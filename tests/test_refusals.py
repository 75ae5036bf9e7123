"""Refusals of bad input that no other test reaches: each raises its own
type and message, or for the CLI exits 2 with one ``error:`` line."""

import argparse
import json
import time
from fractions import Fraction as F

import numpy as np
import pytest

from biquad import gram, kernels, monic
from biquad.classes import lambda_max_estimate, m_identity
from biquad.cli import _integer_flag, build_parser, main
from biquad.core import BilinearForm, SOSCertificate, SymmetricBiquadraticTensor
from biquad.exactla import solve_linear
from biquad.monic import vertex_sos


@pytest.mark.parametrize("build,message", [
    (lambda: SymmetricBiquadraticTensor(0, 2, np.empty((0, 2, 0, 2), dtype=object)),
     "dimensions must be >= 1, got m=0, n=2"),
    (lambda: SymmetricBiquadraticTensor(2, 2, np.zeros((2, 2, 2, 1), dtype=object)),
     "entries shape (2, 2, 2, 1) != (2, 2, 2, 2)"),
    (lambda: BilinearForm(2, 3, np.zeros((3, 2), dtype=object)),
     "W shape (3, 2) != (2, 3)"),
    (lambda: SymmetricBiquadraticTensor(1, 2, [[[[1, 0]], [[0]]]]),
     "entries must be nested sequences of shape (1, 2, 1, 2)"),
    (lambda: BilinearForm(2, 2, [[1, 0], [0]]), "W must be nested sequences of shape (2, 2)"),
    (lambda: SOSCertificate(2, 2, ((F(1), BilinearForm(2, 3, [[1, 0, 0], [0, 0, 0]])),)),
     "form dimensions (2,3) != certificate (2,2)"),
    (lambda: vertex_sos(1, 1, 2), "vertex certificates need m, n >= 2, got (1, 2)"),
    (lambda: vertex_sos(5, 2, 2), "vertex id must be 1..4, got 5"),
    (lambda: lambda_max_estimate(m_identity(2, 2), restarts=0), "restarts must be >= 1, got 0"),
    (lambda: solve_linear([[F(1), F(2)], [F(2), F(4)]], [F(1), F(1)]), "singular linear system"),
])
def test_library_refusal(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def cli_error(capsys, *argv) -> str:
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


# The refusals of oversized dimensions and integers, for every subcommand and
# flag the parser has: a new one is covered without a new test.
SUBCOMMANDS = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices
DIM_COMMANDS = [name for name, p in SUBCOMMANDS.items()
                if any("-m" in a.option_strings for a in p._actions)]
INTEGER_FLAGS = [(name, a.option_strings[0]) for name, p in SUBCOMMANDS.items()
                 for a in p._actions if a.type is _integer_flag]


def least_argv(command: str, given: set) -> list[str]:
    """A value for each required argument of ``command`` whose option is
    not in ``given``; a positional gets a path never read."""
    argv = [command]
    for a in SUBCOMMANDS[command]._actions:
        if a.required and not set(a.option_strings) & given:
            value = (a.choices[0] if a.choices else "1" if a.type is _integer_flag
                     else "0" if a.option_strings else "never-read.json")
            argv += [*a.option_strings[:1], value]
    return argv


def test_the_parser_walk_finds_the_commands_and_flags():
    assert set(DIM_COMMANDS) >= {"classify-monic", "decompose-monic", "vertices", "audit-grid",
                                 "gen", "sweep"}
    assert set(INTEGER_FLAGS) >= {("sweep", "--trials"), ("probe", "--max-iter"),
                                  ("classify", "--seed"), ("gen", "-n")}


@pytest.mark.parametrize("m", ["9", "9" * 4000], ids=["9", "4000-digits"])
@pytest.mark.parametrize("command", DIM_COMMANDS)
def test_every_command_with_dimensions_refuses_them_at_once(capsys, command, m):
    # audit-grid -m 9 -n 9 ran for 2.4 s, and with a 4000-digit -m for minutes
    start = time.perf_counter()
    line = cli_error(capsys, *least_argv(command, {"-m", "-n"}), "-m", m, "-n", "9")
    assert time.perf_counter() - start < 2
    assert line.startswith("error: m*n exceeds the supported maximum 64, got m=")
    assert len(line) < 200


@pytest.mark.parametrize("command,flag", INTEGER_FLAGS, ids=[" ".join(p) for p in INTEGER_FLAGS])
def test_a_long_integer_flag_is_refused_briefly(capsys, command, flag):
    # argparse echoed the whole value, 5 KB
    code = main([*least_argv(command, {flag}), flag, "9" * 5000])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert len(captured.err.encode()) <= 400
    assert captured.err.splitlines()[-1].endswith(
        f"error: argument {flag}: invalid int value: '{'9' * 96}... (5000 characters)")


def test_a_short_bad_integer_flag_reads_as_argparse_wrote_it(capsys):
    assert main(["vertices", "-m", "abc", "-n", "2"]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "biquad vertices: error: argument -m: invalid int value: 'abc'")


@pytest.mark.parametrize("argv", [
    ("sweep", "--class", "b0", "-m", "2", "-n", "2", "--trials", "9" * 4000),
    ("probe", "never-read.json", "--max-iter", "9" * 4000),
])
def test_a_long_count_is_clipped(capsys, argv):
    assert len(cli_error(capsys, *argv)) < 200


@pytest.mark.parametrize("tensor", [
    {"m": 2, "n": 2, "entries": [{"i": 10**3999, "j": 1, "k": 1, "l": 1, "v": "1"}]},
    {"m": 10**3999, "n": 2, "entries": []},
    {"m": "9" * 5000, "n": 2, "entries": []},
], ids=["index", "dimension", "string-dimension"])
def test_a_long_number_in_a_file_is_clipped(capsys, tmp_path, tensor):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(tensor))
    assert len(cli_error(capsys, "check-dd", str(path))) < 200 + len(str(path))


def test_vertices_of_a_degenerate_tetrahedron(capsys):
    assert cli_error(capsys, "vertices", "-m", "1", "-n", "3") == (
        "error: tetrahedron needs m, n >= 2, got (1, 3)")


@pytest.mark.parametrize("flag", ["--step", "--range"])
def test_audit_grid_needs_a_positive_step_and_range(capsys, flag):
    assert cli_error(capsys, "audit-grid", "-m", "2", "-n", "2", flag, "0") == (
        "error: --step and --range must be positive rationals")


@pytest.mark.parametrize("command", ["check-dd", "verify"])
def test_top_level_list_file(capsys, tmp_path, command):
    path = tmp_path / "list.json"
    path.write_text("[]")
    argv = (command, str(path)) if command == "check-dd" else (command, str(path), str(path))
    assert cli_error(capsys, *argv) == f"error: {path}: expected a JSON object at top level"


def test_audit_grid_reports_each_disagreement(capsys, monkeypatch):
    # the real check agrees everywhere; one that fails at the origin shows
    # the row the audit writes and its exit code
    real = monic.membership_equivalence_check
    monkeypatch.setattr(monic, "membership_equivalence_check",
                        lambda p: p.abc != (0, 0, 0) and real(p))
    code = main(["audit-grid", "-m", "2", "-n", "3", "--step", "1", "--range", "1"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert (report["agree"], report["disagreements"]) == (False, [["0", "0", "0"]])


class TestBarrierStopsWhenCholeskyFails:
    def test_inverse_of_an_indefinite_matrix_is_none(self):
        assert gram._inverse_if_pd(np.diag([1.0, -1e-3])) is None
        assert np.allclose(gram._inverse_if_pd(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))

    def test_barrier_keeps_the_last_accepted_point(self, monkeypatch):
        # a step whose matrix is no longer PD (rounding ate the margin) ends
        # the solve at the point before it
        real, calls = gram._inverse_if_pd, []

        def fail_on_second_call(M):
            calls.append(M)
            return real(M) if len(calls) == 1 else None

        monkeypatch.setattr(gram, "_inverse_if_pd", fail_on_second_call)
        F0 = np.diag([1.0, -1.0, 2.0, 3.0])
        dirs = kernels.gram_directions(2, 2)
        t, s, trace, bound = gram._barrier_max_min_eig(F0, dirs, max_iter=50, tol=1e-9)
        assert len(calls) == 2
        assert trace == [] and not t.any()
        assert s == -2.0 and bound == float("inf")
