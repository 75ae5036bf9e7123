"""Refusals of bad input that no other test reaches: each raises its own
type and message, or for the CLI exits 2 with one ``error:`` line."""

import json
from fractions import Fraction as F

import numpy as np
import pytest

from biquad import gram, kernels, monic
from biquad.classes import lambda_max_estimate, m_identity
from biquad.cli import main
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
    (lambda: SOSCertificate(2, 2, ((F(1), BilinearForm.unit(2, 3, 0, 0)),)),
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
