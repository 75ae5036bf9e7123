"""Self-tests of the benchmark's own checks and tracer.

    python3 -m perfbench.selftest        (from the root of a checkout)

Each corruption of a program output below must make the matching check
report a failed operation; a check that passes corrupted output would let a
wrong answer through as a fast one.
"""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from biquad import core, dominance, gram, jsonio, monic  # noqa: E402

from . import checks, forms, workloads  # noqa: E402
from .workloads import ROOT  # noqa: E402
from .tracer import Tracer  # noqa: E402
from .worker import per_layer_names  # noqa: E402


def _corrupt_weight(cert):
    (w, f), *rest = cert.terms
    return core.SOSCertificate(cert.m, cert.n, ((w + 1, f), *rest))


def _corrupt_entry(cert):
    (w, f), *rest = cert.terms
    W = f.W.copy()
    W[0, 0] += 1
    return core.SOSCertificate(cert.m, cert.n, ((w, core.BilinearForm(f.m, f.n, W)), *rest))


def _failed(outcomes):
    return [o for o in outcomes if o.error or o.problems]


class Corruptions(unittest.TestCase):
    """A corrupted output must turn a passing operation into a failed one."""

    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.work_dir = Path(self.tmp.name)

    def tearDown(self):
        self.tmp.cleanup()

    def workload(self, cls, seed=3):
        wl = cls(seed, self.work_dir, Tracer())
        wl.prepare()
        wl.pool = wl.pool[:1]  # one base input keeps the tests quick
        self.assertEqual(_failed(wl.round(0)), [], "clean round must pass")
        return wl

    def test_certificate_weight(self):
        wl = self.workload(workloads.Certify)
        real = dominance.dd_sos_decompose
        with mock.patch.object(dominance, "dd_sos_decompose",
                               lambda t: _corrupt_weight(real(t))):
            self.assertEqual(len(_failed(wl.round(0))), 1)

    def test_w_entry(self):
        wl = self.workload(workloads.Certify)
        real = monic.monic_sos_decompose
        with mock.patch.object(monic, "monic_sos_decompose",
                               lambda p: _corrupt_entry(real(p))):
            self.assertEqual(len(_failed(wl.round(0))), 1)

    def test_json_field(self):
        wl = self.workload(workloads.Certify)
        real = jsonio.save_certificate

        def save_then_edit(cert, path):
            real(cert, path)
            doc = json.loads(Path(path).read_text())
            doc["terms"][-1]["weight"] = str(Fraction(doc["terms"][-1]["weight"]) * 2)
            Path(path).write_text(json.dumps(doc))

        with mock.patch.object(jsonio, "save_certificate", save_then_edit):
            self.assertEqual(len(_failed(wl.round(0))), 1)

    def test_cli_report_field(self):
        cmd = workloads.Command("verify", [], 0,
                                lambda report, _: checks.report_field(report, "match", True))
        proc = mock.Mock(returncode=0, stdout=b'{"match": false}\n')
        cli = workloads.Cli.__new__(workloads.Cli)
        self.assertNotEqual(cli.check(cmd, proc, b""), [])
        proc.stdout = b'{"match": true}\n'
        self.assertEqual(cli.check(cmd, proc, b""), [])
        proc.returncode = 1
        self.assertNotEqual(cli.check(cmd, proc, b""), [])

    def test_sample_min_value(self):
        wl = self.workload(workloads.Falsify)
        real = core.sample_min

        def shifted(*args, **kwargs):
            value, x, y = real(*args, **kwargs)
            return value + 1e-3, x, y

        with mock.patch.object(core, "sample_min", shifted):
            self.assertEqual(len(_failed(wl.round(0))), 2)

    def test_sample_min_pair(self):
        poly = forms.minus_norms(forms.choi(), 3, 3, Fraction(1, 10))
        x = y = [1.0, 0.0, 0.0]  # P(e1, e1) = 1 - 1/10 > 0
        value = forms.eval_float(poly, x, y)
        self.assertEqual(checks.falsifier(poly, value, x, y, psd=True), [])
        self.assertNotEqual(checks.falsifier(poly, value, x, y, psd=False), [])
        self.assertNotEqual(checks.falsifier(poly, value, [2.0, 0.0, 0.0], y, psd=True), [])

    def test_probe_status(self):
        wl = self.workload(workloads.Probe)
        real = gram.sos_probe

        def suspected(t, *args, **kwargs):
            res = real(t, *args, **kwargs)
            return gram.SOSProbeResult("infeasible_suspected", None, res.iterations,
                                       res.residuals)

        with mock.patch.object(gram, "sos_probe", suspected):
            self.assertEqual(len(_failed(wl.round(0))), 1)


class Independence(unittest.TestCase):
    def test_own_expansion_matches_the_definition(self):
        # (x1 y1 - x2 y2)^2 = x1^2 y1^2 - 2 x1 x2 y1 y2 + x2^2 y2^2
        one = Fraction(1)
        poly = forms.poly_from_squares([(one, [[one, 0], [0, -one]])])
        self.assertEqual(poly, {(0, 0, 0, 0): 1, (0, 1, 0, 1): -2, (1, 1, 1, 1): 1})

    def test_monic_points(self):
        import numpy as np

        rng = np.random.default_rng(6)
        for _ in range(20):
            inside = forms.monic_point(4, 3, forms.interior_lambda(rng))
            outside = forms.monic_point(4, 3, forms.exterior_lambda(rng))
            self.assertTrue(monic.psd_conditions(core.MonicParams(4, 3, *inside))[0])
            self.assertFalse(monic.psd_conditions(core.MonicParams(4, 3, *outside))[0])


class Tracing(unittest.TestCase):
    def test_by_name_imports_are_wrapped(self):
        tracer = Tracer()
        tracer.install()
        try:
            monic.monic_sos_decompose(core.MonicParams(3, 3, "1/2", "1/3", "1/5"))
            gram.flattening_psd_check(monic.monic_to_tensor(core.MonicParams(3, 3, "1/2", "1/2", "1/2")))
        finally:
            tracer.uninstall()
        table = tracer.aggregate()
        for layer in ("monic.merge_proportional", "exactla.solve_linear",
                      "core.expand_certificate", "core.tensors_equal", "exactla.ldlt_psd"):
            self.assertIn(layer, table)
        self.assertFalse(hasattr(monic.tensors_equal, "__wrapped__"), "uninstall restores")

    def test_self_time(self):
        tracer = Tracer()
        tracer.spans = [["b", 1.0, 2.0, 1, 0], ["c", 2.5, 3.0, 1, 0], ["a", 0.0, 4.0, 0, 0],
                        ["b", 5.0, 6.0, 0, 1]]
        table = tracer.aggregate()
        self.assertEqual(table["a"], [1, 4.0, 2.5])
        self.assertEqual(table["b"], [2, 2.0, 2.0])

    def test_benchmark_json_lists_every_layer_metric(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        self.assertEqual(listed, per_layer_names())


if __name__ == "__main__":
    unittest.main()
