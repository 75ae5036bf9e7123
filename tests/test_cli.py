"""End-to-end CLI behavior: exit codes, JSON reports, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import biquad
from biquad import gram, jsonio
from biquad.classes import gen_tensor, m_identity
from biquad.cli import (
    MAX_GRID_POINTS,
    MAX_ITER,
    MAX_SWEEP_WORK,
    MAX_TRIALS,
    build_parser,
    main,
    sweep_work,
)
from biquad.core import MAX_MN, MonicParams, monic_to_tensor, tensors_equal
from biquad.gram import choi_form, sos_probe

from conftest import suspected_probe


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse(out):
    return json.loads(out)


def run_subprocess(*argv, timeout=120):
    src = str(Path(biquad.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "biquad.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=timeout)


def assert_one_error_line(proc):
    assert proc.stderr.startswith("error:")
    assert len(proc.stderr.strip().splitlines()) == 1


@pytest.fixture
def identity_file(tmp_path):
    path = tmp_path / "identity.json"
    jsonio.save_tensor(m_identity(2, 2), path)
    return str(path)


@pytest.fixture
def monic_ones_file(tmp_path):
    path = tmp_path / "ones.json"
    jsonio.save_tensor(monic_to_tensor(MonicParams(2, 2, 1, 1, 1)), path)
    return str(path)


class TestCheckDD:
    def test_identity_passes(self, capsys, identity_file):
        code, out, _ = run(capsys, "check-dd", identity_file)
        assert code == 0
        assert parse(out)["diagonally_dominated"] is True

    def test_monic_ones_fails_with_rows(self, capsys, monic_ones_file):
        code, out, _ = run(capsys, "check-dd", monic_ones_file)
        assert code == 1
        report = parse(out)
        assert report["diagonally_dominated"] is False
        assert len(report["violations"]) == 4
        assert report["violations"][0]["bound"] == "3"


class TestDecomposeAndVerify:
    def test_roundtrip_exit_zero(self, capsys, tmp_path, identity_file):
        cert = tmp_path / "cert.json"
        code, _, _ = run(capsys, "decompose-dd", identity_file, "-o", str(cert))
        assert code == 0
        assert cert.exists()
        code, out, _ = run(capsys, "verify", str(cert), identity_file)
        assert code == 0
        assert parse(out)["match"] is True

    def test_verify_detects_mismatch(self, capsys, tmp_path, identity_file, monic_ones_file):
        cert = tmp_path / "cert.json"
        run(capsys, "decompose-dd", identity_file, "-o", str(cert))
        code, out, _ = run(capsys, "verify", str(cert), monic_ones_file)
        assert code == 1
        assert parse(out)["match"] is False

    def test_decompose_dd_refuses_non_dominated(self, capsys, monic_ones_file):
        code, out, _ = run(capsys, "decompose-dd", monic_ones_file)
        assert code == 1

    def test_decompose_dd_reports_rows_like_check_dd(self, monic_ones_file):
        proc = run_subprocess("decompose-dd", monic_ones_file)
        assert proc.returncode == 1
        rows = [{"i": i, "j": j, "diagonal": "1", "bound": "3"} for i in (1, 2) for j in (1, 2)]
        assert proc.stdout == jsonio.dumps_canonical(
            {"error": "not diagonally dominated", "violations": rows})
        check = run_subprocess("check-dd", monic_ones_file)
        assert json.loads(check.stdout)["violations"] == rows

    def test_decompose_monic_verify_roundtrip(self, capsys, tmp_path):
        cert = tmp_path / "cert.json"
        tensor = tmp_path / "tensor.json"
        jsonio.save_tensor(monic_to_tensor(MonicParams(3, 3, "1/2", "1/2", "1/2")), tensor)
        code, _, _ = run(capsys, "decompose-monic", "-m", "3", "-n", "3",
                         "-a", "1/2", "-b", "1/2", "-c", "1/2", "-o", str(cert))
        assert code == 0
        code, out, _ = run(capsys, "verify", str(cert), str(tensor))
        assert code == 0 and parse(out)["match"] is True


class TestClassifyMonic:
    def test_psd_with_negative_rational_flags(self, capsys):
        code, out, _ = run(capsys, "classify-monic", "-m", "4", "-n", "3",
                           "-a", "-1/3", "-b", "-1/2", "-c", "1/6")
        assert code == 0
        report = parse(out)
        assert report["psd"] is True
        assert report["eigenvalues"]["iv"] == "0"
        assert report["barycentric"] is not None

    def test_ones_3x3(self, capsys):
        code, out, _ = run(capsys, "classify-monic", "-m", "3", "-n", "3",
                           "-a", "1", "-b", "1", "-c", "1")
        assert code == 0
        report = parse(out)
        assert report["psd"] is True
        assert report["eigenvalues"]["iii"] == "0"

    def test_non_psd_exits_one(self, capsys):
        code, out, _ = run(capsys, "classify-monic", "-m", "2", "-n", "2",
                           "-a", "2", "-b", "0", "-c", "0")
        assert code == 1
        assert parse(out)["psd"] is False

    @pytest.mark.parametrize("a,value", [("-1_000", "-1000"), ("-1.", "-1"), ("-0.5", "-1/2")])
    def test_negative_flag_value_in_any_rational_spelling(self, capsys, a, value):
        # a value starting with '-' is taken as a flag's value iff core.rational reads it
        code, out, _ = run(capsys, "classify-monic", "-m", "2", "-n", "2",
                           "-a", a, "-b", "0", "-c", "0")
        assert code in (0, 1)
        assert parse(out)["a"] == value

    def test_negative_exponent_flag_value_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "classify-monic", "-m", "2", "-n", "2",
                             "-a", "-1e5", "-b", "0", "-c", "0")
        assert (code, out) == (2, "")
        assert "argument -a: expected one argument" in err


class TestVertices:
    def test_4x4(self, capsys):
        code, out, _ = run(capsys, "vertices", "-m", "4", "-n", "4")
        assert code == 0
        report = parse(out)
        assert report["V2"] == ["-1/3", "-1/3", "1/9"]

    def test_4x3(self, capsys):
        code, out, _ = run(capsys, "vertices", "-m", "4", "-n", "3")
        report = parse(out)
        assert report["V1"] == ["1", "1", "1"]
        assert report["V2"] == ["-1/3", "-1/2", "1/6"]
        assert report["V3"] == ["-1/3", "1", "-1/3"]
        assert report["V4"] == ["1", "-1/2", "-1/2"]


class TestAuditGrid:
    def test_coarse_grid_agrees(self, capsys):
        code, out, _ = run(capsys, "audit-grid", "-m", "2", "-n", "2",
                           "--step", "1/2", "--range", "1")
        assert code == 0
        report = parse(out)
        assert report["agree"] is True
        assert report["points"] == 125
        assert report["disagreements"] == []


class TestGenClassifyProbe:
    def test_gen_emits_valid_tensor(self, capsys, tmp_path):
        out_path = tmp_path / "dd.json"
        code, _, _ = run(capsys, "gen", "--class", "dd", "-m", "2", "-n", "2",
                         "--seed", "5", "-o", str(out_path))
        assert code == 0
        t = jsonio.load_tensor(out_path)
        assert (t.m, t.n) == (2, 2)
        code, out, _ = run(capsys, "check-dd", str(out_path))
        assert code == 0

    def test_classify_report(self, capsys, identity_file):
        code, out, _ = run(capsys, "classify", identity_file)
        assert code == 0
        report = parse(out)
        assert report["is_z"] and report["is_b0"] and report["is_dd"]
        assert report["m_tensor"]["verdict"] == "yes"

    def test_probe_identity(self, capsys, identity_file):
        code, out, _ = run(capsys, "probe", identity_file)
        assert code == 0
        report = parse(out)
        assert report["status"] == "flattening_psd"
        assert report["certified"] is True

    def test_probe_zero_tensor_prints_the_empty_certificate(self, tmp_path):
        # an empty certificate used to be dropped as falsy: "certified": true
        # with "certificate": null
        path = tmp_path / "zero.json"
        path.write_text('{"m": 2, "n": 2, "entries": []}')
        proc = run_subprocess("probe", str(path), timeout=30)
        assert proc.returncode == 0
        report = parse(proc.stdout)
        assert report["certified"] is True
        assert report["certificate"] == {"m": 2, "n": 2, "terms": []}

    @pytest.mark.parametrize("m,n", [(1, 2), (2, 1), (1, 3)])
    def test_probe_without_free_directions_exits_one(self, capsys, tmp_path, m, n):
        # m = 1 or n = 1: the Gram family is the flattening alone; here
        # diag(1, -1, ...), whose exact LDL^T refuses it, which proves the
        # form x1^2 y^T A y (or its mirror) neither PSD nor SOS
        path = tmp_path / "t.json"
        entries = [{"i": i, "j": j, "k": i, "l": j, "v": "-1" if i + j > 2 else "1"}
                   for i in range(1, m + 1) for j in range(1, n + 1)]
        path.write_text(json.dumps({"m": m, "n": n, "entries": entries}))
        code, out, _ = run(capsys, "probe", str(path), "--trace")
        assert code == 1
        report = parse(out)
        assert (report["status"], report["iterations"], report["trace"]) == ("not_sos", 0, [])
        assert (report["s"], report["bound"], report["certified"]) == (None, None, False)

    def test_sweep_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "sweep", "--class", "m_tensor", "-m", "2", "-n", "2",
                           "--trials", "5", "--seed", "3", "--max-iter", "800", "--tol", "1e-7",
                           "-o", str(csv_path))
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "trial,seed,status,iterations,s,bound"
        assert [line.split(",")[:2] for line in lines[1:]] == [[str(k), "3"] for k in range(5)]
        report = parse(out)
        assert report["trials"] == 5
        assert sum(report["counts"].values()) == 5

    def test_sweep_writes_each_row_as_its_trial_ends(self, capsys, tmp_path, monkeypatch):
        csv_path = tmp_path / "sweep.csv"
        lines_at_start = []

        def probe(t, max_iter, tol):
            lines_at_start.append(len(csv_path.read_text().splitlines()))
            return sos_probe(t, max_iter=max_iter, tol=tol)

        monkeypatch.setattr(gram, "sos_probe", probe)
        code, _, _ = run(capsys, "sweep", "--class", "m_tensor", "-m", "2", "-n", "2",
                         "--trials", "4", "--seed", "3", "-o", str(csv_path))
        assert code == 0
        # trial k starts with the header and the rows of trials 0..k-1 on disk
        assert lines_at_start == [1, 2, 3, 4]

    def test_sweep_output_puts_fixtures_beside_the_csv(self, capsys, tmp_path, monkeypatch):
        generated = []

        def recording_gen(*args):
            generated.append(gen_tensor(*args))
            return generated[-1]

        monkeypatch.setattr(gram.classes, "gen_tensor", recording_gen)
        monkeypatch.setattr(gram, "sos_probe", suspected_probe)
        runs = tmp_path / "runs"
        runs.mkdir()
        code, out, _ = run(capsys, "sweep", "--class", "b0", "-m", "2", "-n", "3",
                           "--trials", "2", "--seed", "4", "-o", str(runs / "sweep.csv"))
        assert code == 0
        assert parse(out)["counts"] == {"infeasible_suspected": 2}
        assert sorted(p.name for p in runs.iterdir()) == [
            "b0_m2_n3_seed4_trial0.json", "b0_m2_n3_seed4_trial1.json", "sweep.csv"]
        for k, t in enumerate(generated):
            assert tensors_equal(jsonio.load_tensor(runs / f"b0_m2_n3_seed4_trial{k}.json"), t)


class TestEval:
    def test_value(self, capsys, monic_ones_file):
        code, out, _ = run(capsys, "eval", monic_ones_file, "-x", "1,1", "-y", "1,1")
        assert code == 0
        assert parse(out)["value"] == "16"

    def test_rational_vectors(self, capsys, identity_file):
        code, out, _ = run(capsys, "eval", identity_file, "-x", "1/2,1/2", "-y", "2,0")
        assert code == 0
        assert parse(out)["value"] == "2"

    def test_negative_leading_vector_value(self, capsys, identity_file):
        code, out, _ = run(capsys, "eval", identity_file, "-x", "-1,2/3", "-y", "-1/2,1")
        assert code == 0
        # (1 + 4/9) * (1/4 + 1) = 13/9 * 5/4 = 65/36
        assert parse(out)["value"] == "65/36"

    def test_all_negative_vector_values(self, capsys, identity_file):
        code, out, _ = run(capsys, "eval", identity_file, "-x", "-1/2,-3", "-y", "-1,1")
        assert code == 0
        # (1/4 + 9) * (1 + 1)
        assert parse(out)["value"] == "37/2"

    def test_wrong_length_is_usage_error(self, capsys, identity_file):
        code, _, err = run(capsys, "eval", identity_file, "-x", "1,2,3", "-y", "1,1")
        assert code == 2

    @pytest.mark.parametrize("value", ["1,,2", "1,2,", "1, ,2", ",1,2"])
    @pytest.mark.parametrize("flag", ["-x", "-y"])
    def test_empty_field_is_usage_error(self, capsys, identity_file, flag, value):
        # empty fields were dropped: -x 1,,2 was read as (1, 2) and exited 0
        vectors = {"-x": "1,1", "-y": "1,1", flag: value}
        assert run(capsys, "eval", identity_file, "-x", vectors["-x"], "-y", vectors["-y"]) == (
            2, "", f"error: {flag} has an empty field: {value!r}\n")


class TestErrorPaths:
    def test_malformed_json_exit_two_with_position(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"m": 2, "n": 2,\n  "entries": [}\n')
        code, _, err = run(capsys, "check-dd", str(bad))
        assert code == 2
        assert "line 2" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check-dd", "/nonexistent/tensor.json")
        assert code == 2

    def test_unknown_command_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_dimension_mismatch_in_verify(self, capsys, tmp_path, identity_file):
        cert = tmp_path / "c.json"
        from biquad.monic import vertex_sos

        jsonio.save_certificate(vertex_sos(1, 3, 3), cert)
        code, _, err = run(capsys, "verify", str(cert), identity_file)
        assert code == 2

    @pytest.mark.parametrize("command, expected", [("probe", 0), ("classify", 2), ("check-dd", 0)])
    def test_entry_beyond_float_range(self, tmp_path, command, expected):
        # 10**400 is a valid rational but overflows float64. Its flattening is
        # exactly PSD, so the exact layers answer (probe returns the
        # flattening certificate before any float conversion), while the
        # float M-tensor estimate of classify rejects it, naming the entry.
        huge = "1" + "0" * 400
        entries = [{"i": i, "j": j, "k": i, "l": j, "v": huge} for i in (1, 2) for j in (1, 2)]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"m": 2, "n": 2, "entries": entries}))
        proc = run_subprocess(command, str(path))
        assert proc.returncode == expected
        assert "Traceback" not in proc.stderr
        if command == "probe":
            assert '"status": "flattening_psd"' in proc.stdout
        if expected == 2:
            assert_one_error_line(proc)
            assert "(1,1,1,1)" in proc.stderr

    def test_oversized_audit_grid_refused_before_the_loop(self):
        # 4001**3 points would run for hours
        proc = run_subprocess("audit-grid", "-m", "2", "-n", "2", "--step", "1/1000", timeout=30)
        assert proc.returncode == 2
        assert_one_error_line(proc)
        assert str(MAX_GRID_POINTS) in proc.stderr

    def test_tensor_file_beyond_size_cap(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"m": 9, "n": 9, "entries": [
            {"i": 1, "j": 1, "k": 1, "l": 1, "v": "1"}]}))
        for command in ("check-dd", "probe"):
            proc = run_subprocess(command, str(path), timeout=30)
            assert proc.returncode == 2
            assert_one_error_line(proc)
            assert str(MAX_MN) in proc.stderr

    @pytest.mark.parametrize("argv", [
        ("gen", "--class", "dd", "-m", "9", "-n", "9"),
        ("sweep", "--class", "b0", "-m", "9", "-n", "9", "--trials", "1"),
        ("decompose-monic", "-m", "9", "-n", "9", "-a", "0", "-b", "0", "-c", "0"),
    ])
    def test_dimensions_beyond_size_cap(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and str(MAX_MN) in err


    @pytest.mark.parametrize("argv,cap", [
        (("sweep", "--class", "b0", "-m", "8", "-n", "8", "--trials", "100000"), MAX_TRIALS),
        (("sweep", "--class", "b0", "-m", "2", "-n", "2", "--trials", "0"), MAX_TRIALS),
        (("sweep", "--class", "b0", "-m", "2", "-n", "2", "--trials", "1", "--max-iter", "0"), MAX_ITER),
        (("sweep", "--class", "m_tensor", "-m", "8", "-n", "8", "--trials", "2",
          "--max-iter", str(MAX_ITER + 1)), MAX_ITER),
    ])
    def test_sweep_counts_bounded(self, argv, cap):
        proc = run_subprocess(*argv, timeout=30)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert_one_error_line(proc)
        assert str(cap) in proc.stderr

    def test_whole_sweep_bounded(self):
        # at 8x8 a trial takes about a second, so 10,000 of them took hours
        proc = run_subprocess("sweep", "--class", "b0", "-m", "8", "-n", "8", "--trials", "10000",
                              timeout=30)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert_one_error_line(proc)
        assert str(MAX_SWEEP_WORK) in proc.stderr

    @pytest.mark.parametrize("trials,m,n,max_iter", [
        (200, 3, 3, 2000),  # the README example
        (200, 3, 3, 1500),  # acceptance criterion 09
        (3, 2, 2, 400),
        (1, 8, 8, 2000),
    ])
    def test_sweep_bound_accepts(self, trials, m, n, max_iter):
        assert sweep_work(trials, m, n, max_iter) <= MAX_SWEEP_WORK

    def test_sweep_bound_refuses(self):
        assert sweep_work(10_000, 8, 8, 2000) > MAX_SWEEP_WORK
        assert sweep_work(MAX_TRIALS, 3, 3, MAX_ITER) > MAX_SWEEP_WORK

    @pytest.mark.parametrize("m,n,most", [(8, 8, 8), (3, 3, 3048)])
    def test_sweep_bound_at_default_max_iter(self, m, n, most):
        # the largest accepted trial counts the README states
        assert sweep_work(most, m, n, 2000) <= MAX_SWEEP_WORK < sweep_work(most + 1, m, n, 2000)

    @pytest.mark.parametrize("command", ["probe", "sweep"])
    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
    def test_tol_must_be_finite_and_positive(self, tmp_path, command, tol):
        # probe --tol inf reported feasible_numerical on Choi with exit 0,
        # and --tol nan ran to --max-iter
        if command == "probe":
            path = tmp_path / "choi.json"
            jsonio.save_tensor(choi_form(), path)
            argv = ("probe", str(path))
        else:
            argv = ("sweep", "--class", "b0", "-m", "2", "-n", "2", "--trials", "1")
        proc = run_subprocess(*argv, f"--tol={tol}", timeout=30)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert_one_error_line(proc)
        assert "tol must be finite and > 0" in proc.stderr

    @pytest.mark.parametrize("max_iter", ["0", "-5", str(MAX_ITER + 1)])
    def test_probe_max_iter_bounded(self, identity_file, max_iter):
        # --max-iter 0 used to report "inconclusive" with exit 0
        proc = run_subprocess("probe", identity_file, "--max-iter", max_iter, timeout=30)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert_one_error_line(proc)
        assert str(MAX_ITER) in proc.stderr

    @pytest.mark.parametrize("command,text", [
        ("check-dd", '{"m": 2.9, "n": 2, "entries": []}'),
        ("check-dd", '{"m": 2, "n": 2, "entries": [{"i": 1.5, "j": true, "k": 1, "l": 1, "v": "1"}]}'),
        ("verify", '{"m": 1, "n": 2, "terms": [{"weight": "1", "W": [["1", "0", "5"]]}]}'),
    ])
    def test_malformed_json_shapes(self, tmp_path, command, text):
        path = tmp_path / "in.json"
        path.write_text(text)
        tensor = tmp_path / "t.json"
        tensor.write_text('{"m": 1, "n": 2, "entries": [{"i": 1, "j": 1, "k": 1, "l": 1, "v": "1"}]}')
        argv = (command, str(path)) if command == "check-dd" else (command, str(path), str(tensor))
        proc = run_subprocess(*argv, timeout=30)
        assert proc.returncode == 2
        assert_one_error_line(proc)


class TestBadInputExitsTwo:
    """Bad input is a usage error (exit 2, one error line), never a traceback."""

    def assert_usage_error(self, proc):
        assert proc.returncode == 2
        assert_one_error_line(proc)
        assert "Traceback" not in proc.stderr

    def test_zero_denominator_in_tensor_file(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('{"m": 1, "n": 1, "entries": [{"i": 1, "j": 1, "k": 1, "l": 1, "v": "1/0"}]}')
        self.assert_usage_error(run_subprocess("check-dd", str(path), timeout=30))

    def test_zero_denominator_in_certificate_file(self, tmp_path, identity_file):
        path = tmp_path / "c.json"
        path.write_text('{"m": 2, "n": 2, "terms": [{"weight": "1/0", "W": [["1", "0"], ["0", "1"]]}]}')
        self.assert_usage_error(run_subprocess("verify", str(path), identity_file, timeout=30))

    def test_zero_denominator_in_eval_vector(self, identity_file):
        self.assert_usage_error(run_subprocess("eval", identity_file, "-x", "1/0,1", "-y", "1,1",
                                               timeout=30))

    @pytest.mark.parametrize("command", ["check-dd", "decompose-dd", "probe"])
    def test_exponent_in_tensor_file(self, tmp_path, command):
        # Fraction("1e10000000") builds 10**10000000: check-dd spent 10 s on
        # this 82-byte file and exited 0
        path = tmp_path / "t.json"
        path.write_text('{"m": 1, "n": 1, "entries": [{"i": 1, "j": 1, "k": 1, "l": 1, '
                        '"v": "1e10000000"}]}')
        self.assert_usage_error(run_subprocess(command, str(path), timeout=30))

    def test_exponent_in_a_flag(self):
        proc = run_subprocess("classify-monic", "-m", "2", "-n", "2", "-a", "1e10000000",
                              "-b", "0", "-c", "0", timeout=30)
        assert proc.returncode == 2
        assert [line for line in proc.stderr.splitlines() if "error:" in line] == [
            "biquad classify-monic: error: argument -a: invalid rational value: '1e10000000'"]

    @pytest.mark.parametrize("argv,flag,value", [
        (("classify-monic", "-m", "2", "-n", "2", "-a", "1/0", "-b", "0", "-c", "0"), "-a", "1/0"),
        (("decompose-monic", "-m", "2", "-n", "2", "-a", "0", "-b", "0", "-c", "x"), "-c", "x"),
        (("audit-grid", "-m", "2", "-n", "2", "--step", "1e-1"), "--step", "1e-1"),
        (("audit-grid", "-m", "2", "-n", "2", "--range", "2/0"), "--range", "2/0"),
    ])
    def test_bad_rational_flags(self, capsys, argv, flag, value):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].endswith(f"error: argument {flag}: invalid rational value: "
                                             f"{value!r}")

    @pytest.mark.parametrize("value,reason", [
        ("1/" + "7" * 5000, f"a number in rational text has more than {sys.get_int_max_str_digits()} "
                            "digits"),
        ("x" * 5000, "Invalid literal for Fraction: 'xxx"),
    ])
    def test_long_bad_rational_flag_is_clipped_with_its_reason(self, capsys, value, reason):
        # argparse alone would echo the whole value (5 KB) and drop the reason
        code, out, err = run(capsys, "classify-monic", "-m", "2", "-n", "2", "-a", value,
                             "-b", "0", "-c", "0")
        assert (code, out) == (2, "")
        line = err.splitlines()[-1]
        assert len(line) < 400
        assert line.startswith(f"biquad classify-monic: error: argument -a: invalid rational value: "
                               f"{value[:20]!r}"[:-1])
        assert f"... ({len(value)} characters): {reason}" in line

    @pytest.mark.parametrize("value,reason", [
        ("x" * 5000, "Invalid literal for Fraction: 'xxx"),
        ("1e" + "5" * 5000, "exponent notation is not accepted: '1e555"),
    ], ids=["letters", "exponent"])
    def test_long_bad_eval_value_is_clipped_with_its_reason(self, identity_file, value, reason):
        # the reason quotes the value: unclipped, the line was over 5 KB
        proc = run_subprocess("eval", identity_file, "-x", f"{value},1", "-y", "1,1", timeout=30)
        self.assert_usage_error(proc)
        assert len(proc.stderr) < 400
        assert proc.stderr.startswith(f"error: invalid rational value: {value[:20]!r}"[:-1])
        assert f"... ({len(value)} characters): {reason}" in proc.stderr

    def test_exponent_in_eval_vector(self, capsys, identity_file):
        assert run(capsys, "eval", identity_file, "-x", "1e5,1", "-y", "1,1") == (
            2, "", "error: exponent notation is not accepted: '1e5'\n")

    def test_directory_as_input_path(self, tmp_path):
        self.assert_usage_error(run_subprocess("check-dd", str(tmp_path), timeout=30))

    def test_directory_as_output_path(self, tmp_path, identity_file):
        self.assert_usage_error(run_subprocess("decompose-dd", identity_file, "-o", str(tmp_path),
                                               timeout=30))

    def test_deeply_nested_json(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        self.assert_usage_error(run_subprocess("check-dd", str(path), timeout=30))

    @pytest.mark.parametrize("command,text,message", [
        ("check-dd", '{"m": 2, "n": 2, "entries": 5}', "entries must be a JSON list"),
        ("verify", '{"m": 2, "n": 2, "terms": {"a": 1}}', "terms must be a JSON list"),
    ])
    def test_entries_and_terms_must_be_lists(self, capsys, tmp_path, identity_file,
                                             command, text, message):
        path = tmp_path / "in.json"
        path.write_text(text)
        argv = (command, str(path)) if command == "check-dd" else (command, str(path), identity_file)
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("output", [".", "missing/sweep.csv"])
    def test_unwritable_sweep_output_fails_before_the_sweep(self, capsys, monkeypatch, tmp_path,
                                                            output):
        # the whole sweep used to run before -o was opened
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before -o was opened")

        monkeypatch.setattr(gram, "conjecture_sweep", no_sweep)
        code, out, err = run(capsys, "sweep", "--class", "m_tensor", "-m", "3", "-n", "3",
                             "--trials", "200", "-o", str(tmp_path / output))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1
        assert list(tmp_path.iterdir()) == []


class TestSeedOption:
    def test_only_seeded_commands_accept_seed(self):
        sub = next(a for a in build_parser()._actions if a.dest == "command")
        seeded = {name for name, p in sub.choices.items()
                  if any("--seed" in a.option_strings for a in p._actions)}
        assert seeded == {"classify", "gen", "sweep"}

    def test_seed_elsewhere_is_a_usage_error(self, capsys, identity_file):
        code, out, err = run(capsys, "check-dd", identity_file, "--seed", "3")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --seed 3" in err


class TestDeterminism:
    def test_byte_identical_reports(self, capsys, identity_file):
        _, out1, _ = run(capsys, "classify", identity_file, "--seed", "3")
        _, out2, _ = run(capsys, "classify", identity_file, "--seed", "3")
        assert out1 == out2

    def test_gen_deterministic(self, capsys):
        _, out1, _ = run(capsys, "gen", "--class", "b0", "-m", "2", "-n", "3", "--seed", "9")
        _, out2, _ = run(capsys, "gen", "--class", "b0", "-m", "2", "-n", "3", "--seed", "9")
        assert out1 == out2

    def test_quiet_suppresses_output(self, capsys, identity_file):
        code, out, _ = run(capsys, "check-dd", identity_file, "--quiet")
        assert code == 0
        assert out == ""
