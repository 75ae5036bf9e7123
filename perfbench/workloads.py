"""The four workloads.

Every workload has a pool of base inputs drawn from POOL_SEED, the same for
every run. A round runs the whole pool once; before it, the run's ``--seed``
and the round number pick a random signed permutation of the variables for
each base input. That changes every input without changing how hard it is,
so each run does the same amount of work whatever its seed: with inputs drawn
fresh per seed, the spread of Dykstra iteration counts alone moved the probe
throughput by 30% between seeds. Every operation is timed alone and checked
afterwards, outside the timed span.

falsify   one ``sample_min`` call with STARTS starts on a 3x3 form: a
          positive diagonal rescaling of Choi's form (PSD, not SOS), then the
          same form minus EPS |x|^2 |y|^2 (not PSD).
certify   a 4x4 dominated tensor and a 4x4 monic point inside the
          tetrahedron, each decomposed, written and read back as JSON,
          expanded and compared; the dominated one also gets the flattening
          LDL^T. The pair is one item, so every item has the same make-up.
probe     one ``sos_probe`` on a 3x3 sum of nine squares of random integer
          bilinear forms: SOS by construction.
cli       six subcommands, each one subprocess, on 5x5 inputs; two input sets
          alternate, so from the third round on every argv repeats.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import checks, forms


POOL_SEED = 2512_02734
ROOT = Path(__file__).resolve().parents[1]


def _terms(cert):
    """A program certificate as plain (weight, W rows) pairs."""
    return [(w, [[f.W[i, j] for j in range(cert.n)] for i in range(cert.m)])
            for w, f in cert.terms]


@dataclass
class Outcome:
    """One timed operation: its time, and either an error or its problems."""

    seconds: float
    error: str | None = None
    problems: list = field(default_factory=list)


class _Library:
    """Base of the workloads that call biquad in-process."""

    def __init__(self, seed, work_dir, tracer):
        from biquad import core, dominance, gram, jsonio, monic  # loads every biquad module

        self.core, self.dominance, self.gram, self.jsonio, self.monic = (
            core, dominance, gram, jsonio, monic)
        self.seed = seed
        self.work_dir = work_dir
        self.tracer = tracer

    def tensor(self, m, n, poly):
        entries = np.array(forms.symmetric_entries(m, n, poly), dtype=object)
        return self.core.SymmetricBiquadraticTensor(m, n, entries)

    @contextmanager
    def traced(self):
        self.tracer.install()
        try:
            yield
        finally:
            self.tracer.uninstall()

    def run(self, op, check):
        start = time.perf_counter()
        try:
            result = op()
        except Exception as exc:  # a crash is a failed operation, not a benchmark crash
            return Outcome(time.perf_counter() - start, f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
        with self.tracer.paused():
            return Outcome(seconds, problems=check(result))


class Falsify(_Library):
    STARTS = 64
    EPS = Fraction(1, 10)
    POOL = 3

    def prepare(self):
        self.pool = []
        for k in range(self.POOL):
            rng = np.random.default_rng([POOL_SEED, 0, k])
            d, e = ([Fraction(int(rng.integers(2, 9)), 4) for _ in range(3)] for _ in range(2))
            self.pool.append(forms.rescale(forms.choi(), d, e))

    def warm_up(self):
        self.core.sample_min(self.tensor(3, 3, forms.choi()), trials=2, seed=0)

    def round(self, r):
        rng = np.random.default_rng([self.seed, r])
        out = []
        for base in self.pool:
            psd = forms.substitute(base, forms.symmetry(rng, 3, 3))
            for poly, is_psd in ((psd, True), (forms.minus_norms(psd, 3, 3, self.EPS), False)):
                t = self.tensor(3, 3, poly)
                start_seed = int(rng.integers(0, 2**31))
                out.append(self.run(
                    lambda: self.core.sample_min(t, trials=self.STARTS, seed=start_seed),
                    lambda res: checks.falsifier(poly, *res, psd=is_psd)))
        return out


class Certify(_Library):
    m = n = 4
    POOL = 16

    def prepare(self):
        self.pool = []
        for k in range(self.POOL):
            rng = np.random.default_rng([POOL_SEED, 1, k])
            dd_poly = forms.dominated(self.m, self.n, rng)
            abc = forms.monic_point(self.m, self.n, forms.interior_lambda(rng))
            self.pool.append((dd_poly, abc))

    def warm_up(self):
        rng = np.random.default_rng([POOL_SEED, 1, self.POOL])
        self.item(forms.dominated(self.m, self.n, rng),
                  forms.monic_point(self.m, self.n, forms.interior_lambda(rng)))

    def round(self, r):
        rng = np.random.default_rng([self.seed, r])
        return [self.item(forms.substitute(dd_poly, forms.symmetry(rng, self.m, self.n)), abc)
                for dd_poly, abc in self.pool]

    def item(self, dd_poly, abc):
        monic_poly = forms.monic(self.m, self.n, *abc)
        dd_t = self.tensor(self.m, self.n, dd_poly)
        monic_t = self.tensor(self.m, self.n, monic_poly)
        path = self.work_dir / "certificate.json"
        core, jsonio = self.core, self.jsonio

        def round_trip(cert, target):
            jsonio.save_certificate(cert, path)
            back = jsonio.load_certificate(path)
            return back, core.tensors_equal(core.expand_certificate(back), target)

        def op():
            dd_cert = self.dominance.dd_sos_decompose(dd_t)
            dd_back, dd_same = round_trip(dd_cert, dd_t)
            flat = self.gram.flattening_psd_check(dd_t)
            params = core.MonicParams(self.m, self.n, *abc)
            psd, _ = self.monic.psd_conditions(params)
            monic_cert = self.monic.monic_sos_decompose(params)
            monic_back, monic_same = round_trip(monic_cert, monic_t)
            return (dd_cert, dd_back, dd_same, flat, psd, monic_cert, monic_back, monic_same)

        def check(res):
            dd_cert, dd_back, dd_same, flat, psd, monic_cert, monic_back, monic_same = res
            problems = self.check_certificate(dd_cert, dd_back, dd_same, dd_poly)
            if flat is None:
                problems.append("flattening of a dominated tensor reported not PSD")
            else:
                problems += checks.certificate(_terms(flat), dd_poly)
            if psd is not True:
                problems.append("interior monic point classified as not PSD")
            if monic_cert is None:
                problems.append("no certificate for an interior monic point")
            else:
                problems += self.check_certificate(monic_cert, monic_back, monic_same, monic_poly)
            return problems

        return self.run(op, check)

    @staticmethod
    def check_certificate(cert, back, same, poly):
        terms = _terms(cert)
        problems = checks.certificate(terms, poly) + checks.round_trip(terms, _terms(back))
        if same is not True:
            problems.append("tensors_equal rejected the expansion of an exact certificate")
        return problems


class Probe(_Library):
    m = n = 3
    SQUARES = 9
    POOL = 64
    CERTIFIED = ("sos_certified", "flattening_psd")

    def prepare(self):
        self.tally = Counter()
        self.pool = [
            forms.poly_from_squares(forms.random_squares(
                self.m, self.n, self.SQUARES, np.random.default_rng([POOL_SEED, 2, k])))
            for k in range(self.POOL)]

    def warm_up(self):
        # Choi's form has no Gram point: a short run goes through every stage.
        self.gram.sos_probe(self.tensor(3, 3, forms.choi()), max_iter=50)

    def round(self, r):
        rng = np.random.default_rng([self.seed, r])
        out = []
        for base in self.pool:
            poly = forms.substitute(base, forms.symmetry(rng, self.m, self.n))
            t = self.tensor(self.m, self.n, poly)
            out.append(self.run(lambda: self.gram.sos_probe(t), lambda res: self.check(res, poly)))
        return out

    def check(self, res, poly):
        self.tally[res.status] += 1
        if res.status == "infeasible_suspected":
            return ["infeasible_suspected on a sum of squares"]
        if res.status not in self.CERTIFIED:
            return [] if res.certificate is None else [f"{res.status} with a certificate"]
        if res.certificate is None:
            return [f"{res.status} without a certificate"]
        terms = _terms(res.certificate)
        jsonio = self.jsonio
        back = jsonio.certificate_from_dict(
            json.loads(jsonio.dumps_canonical(jsonio.certificate_to_dict(res.certificate))))
        return checks.certificate(terms, poly) + checks.round_trip(terms, _terms(back))


class Command(NamedTuple):
    """One CLI call with the exit code and report its input implies."""

    name: str
    args: list
    code: int
    check: Callable
    output: str | None = None


class Cli:
    m = n = 5

    def __init__(self, seed, work_dir, tracer):
        self.seed = seed
        self.work_dir = work_dir
        self.tracer = tracer
        self.entry = [sys.executable, "-m", "biquad.cli"]
        self.seen = {}
        self.spans_file = None  # set while traced

    @contextmanager
    def traced(self):
        self.spans_file = self.work_dir / "spans.json"
        try:
            yield
        finally:
            self.spans_file = None

    def input_set(self, s):
        m, n = self.m, self.n
        base = np.random.default_rng([POOL_SEED, 3, s])
        d = self.work_dir / f"set{s}"
        d.mkdir(parents=True, exist_ok=True)
        tensor, dd_cert, monic_cert = (str(d / f) for f in ("tensor.json", "dd.json", "monic.json"))
        dd_poly = forms.substitute(forms.dominated(m, n, base),
                                   forms.symmetry(np.random.default_rng([self.seed, s]), m, n))
        Path(tensor).write_text(forms.tensor_json(m, n, dd_poly))
        inside = forms.monic_point(m, n, forms.interior_lambda(base))
        outside = forms.monic_point(m, n, forms.exterior_lambda(base))
        monic_poly = forms.monic(m, n, *inside)

        def abc(point):
            args = ["-m", str(m), "-n", str(n)]
            for name, v in zip("abc", point):
                args += [f"-{name}", str(v)]
            return args

        def written(poly, path):
            def check(report, data):
                problems = checks.report_field(report, "written", path)
                if not data:
                    return problems + ["no certificate written"]
                return problems + checks.certificate(
                    forms.certificate_terms(json.loads(data))[2], poly)
            return check

        def probed(report, _):
            problems = checks.report_field(report, "status", "flattening_psd")
            cert = report.get("certificate")
            if cert is None:
                return problems + ["probe reported no certificate"]
            return problems + checks.certificate(forms.certificate_terms(cert)[2], dd_poly)

        return [
            Command("check-dd", [tensor], 0,
                    lambda report, _: checks.report_field(report, "diagonally_dominated", True)),
            Command("decompose-dd", [tensor, "-o", dd_cert], 0, written(dd_poly, dd_cert), dd_cert),
            Command("verify", [dd_cert, tensor], 0,
                    lambda report, _: checks.report_field(report, "match", True)),
            Command("classify-monic", abc(outside), 1,
                    lambda report, _: checks.report_field(report, "psd", False)),
            Command("decompose-monic", abc(inside) + ["-o", monic_cert], 0,
                    written(monic_poly, monic_cert), monic_cert),
            Command("probe", [tensor], 0, probed),
        ]

    def call(self, cmd):
        argv = self.entry + [cmd.name] + cmd.args
        if self.spans_file is not None:
            argv = [sys.executable, "-m", "perfbench.cli_traced", str(self.spans_file),
                    "--", cmd.name] + cmd.args
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, capture_output=True, cwd=ROOT, timeout=120)
        except subprocess.TimeoutExpired:
            return Outcome(time.perf_counter() - start, f"{cmd.name} timed out")
        seconds = time.perf_counter() - start
        if self.spans_file is not None and self.spans_file.exists():
            self.merge_spans()
        if proc.returncode not in (0, 1) or b"Traceback" in proc.stderr:
            return Outcome(seconds, f"{cmd.name} crashed: {proc.stderr.decode()[-200:]}")
        data = Path(cmd.output).read_bytes() if cmd.output and proc.returncode == 0 else b""
        key = (cmd.name, tuple(cmd.args))
        if key not in self.seen:
            self.seen[key] = (proc.stdout, data, self.check(cmd, proc, data))
        stdout, first_data, problems = self.seen[key]
        if (proc.stdout, data) != (stdout, first_data):
            problems = problems + [f"{cmd.name}: the same argv gave different output"]
        return Outcome(seconds, problems=problems)

    def merge_spans(self):
        """Add the spans and counts a traced CLI call wrote to the tracer."""
        done = json.loads(self.spans_file.read_text())
        self.spans_file.unlink()
        for span in done["spans"]:
            span[4] = self.tracer.item
            self.tracer.spans.append(span)
        for name, value in done["counts"].items():
            self.tracer.counts[name] += value

    def check(self, cmd, proc, data):
        problems = [] if proc.returncode == cmd.code else [
            f"{cmd.name}: exit code {proc.returncode}, expected {cmd.code}"]
        try:
            report = json.loads(proc.stdout)
        except ValueError:
            return problems + [f"{cmd.name}: stdout is not one JSON report"]
        return problems + cmd.check(report, data)

    def prepare(self):
        self.sets = [self.input_set(s) for s in range(2)]

    def warm_up(self):
        subprocess.run(self.entry + ["classify-monic", "-m", "5", "-n", "5", "-a", "1/2",
                                     "-b", "1/2", "-c", "1/2"],
                       capture_output=True, cwd=ROOT, timeout=120)

    def round(self, r):
        return [self.call(cmd) for cmd in self.sets[r % 2]]


WORKLOADS = {"falsify": Falsify, "certify": Certify, "probe": Probe, "cli": Cli}
