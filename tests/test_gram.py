"""Canonical-flattening certificates, the affine/PSD projections, the
integer rounding of Gram points, the log-barrier probe and its Newton
system, and conjecture sweeps."""

import itertools
import json
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from biquad import exactla, gram, jsonio, kernels
from biquad.core import (
    MonicParams,
    SOSCertificate,
    SymmetricBiquadraticTensor,
    evaluate,
    expand_certificate,
    monic_to_tensor,
    sample_min,
    symmetrize,
    tensors_equal,
)
from biquad.classes import gen_tensor, m_identity
from biquad.dominance import dd_sos_decompose
from biquad.gram import (
    choi_form,
    conjecture_sweep,
    flattening_psd_check,
    sos_probe,
)

from conftest import (
    bilinear_form,
    dense_barrier_system,
    fraction_round_at,
    full_solve_probe,
    gram_direction_stack,
    has_biquadratic_symmetry,
    ldl_pivots,
    random_symmetric_tensor,
)
from test_cli_golden import LITERALS as GOLDEN_LITERALS

ROOT = Path(__file__).resolve().parents[1]


def rank_one_sos_tensor():
    """symmetrize((x1 y2 - x2 y1)^2): certified SOS, indefinite flattening."""
    W = bilinear_form(2, 2, [[0, 1], [-1, 0]])
    return expand_certificate(SOSCertificate(2, 2, ((F(1), W),)))


def integer_squares_tensor(rng, m, n, count):
    """Sum of ``count`` squares of bilinear forms with integer coefficients in [-3, 3]."""
    terms = tuple((F(1), bilinear_form(m, n, rng.integers(-3, 4, size=(m, n)).tolist()))
                  for _ in range(count))
    return expand_certificate(SOSCertificate(m, n, terms))


class TestFlatteningPSDCheck:
    def test_identity_unit_squares(self):
        cert = flattening_psd_check(m_identity(2, 2))
        assert cert is not None
        assert len(cert.terms) == 4
        assert all(w == 1 for w, _ in cert.terms)
        assert tensors_equal(expand_certificate(cert), m_identity(2, 2))

    def test_dominated_tensors_always_pass(self):
        for trial in range(6):
            t = gen_tensor("dd", 2, 2, np.random.default_rng([11, trial]))
            cert = flattening_psd_check(t)
            assert cert is not None
            assert tensors_equal(expand_certificate(cert), t)
            # cross-check against the dominance construction
            dd = dd_sos_decompose(t)
            assert tensors_equal(expand_certificate(dd), t)

    def test_choi_flattening_rejected_with_negative_pivot(self):
        t = choi_form()
        assert flattening_psd_check(t) is None
        res = exactla.ldlt_psd(t.rows)
        assert not res.ok
        assert res.failure == "negative_pivot"
        assert res.value < 0

    def test_sos_tensor_with_indefinite_flattening(self):
        assert flattening_psd_check(rank_one_sos_tensor()) is None

    def test_ldlt_input_carries_its_order(self, monkeypatch):
        # perfbench's tracer counts the order of each ldlt_psd input by its shape
        shapes = []

        def recording(M):
            shapes.append(M.shape)
            return real(M)

        real = exactla.ldlt_psd
        monkeypatch.setattr(exactla, "ldlt_psd", recording)
        assert flattening_psd_check(m_identity(2, 3)) is not None
        assert shapes == [(6, 6)]


class TestLDLT:
    def to_obj(self, rows):
        arr = np.empty((len(rows), len(rows)), dtype=object)
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                arr[i, j] = F(v)
        return arr

    def test_reconstruction(self):
        M = self.to_obj([[4, 2, 0], [2, 3, 1], [0, 1, 5]])
        res = exactla.ldlt_psd(M)
        assert res.ok
        N = 3
        recon = np.empty((N, N), dtype=object)
        recon[...] = F(0)
        for term in res.terms:
            for r in range(N):
                for c in range(N):
                    recon[r, c] += term.pivot * term.vector[r] * term.vector[c]
        assert (recon == M).all()

    def test_zero_matrix_is_psd(self):
        res = exactla.ldlt_psd(self.to_obj([[0, 0], [0, 0]]))
        assert res.ok
        assert res.terms == ()

    def test_zero_diagonal_nonzero_row(self):
        res = exactla.ldlt_psd(self.to_obj([[0, 1], [1, 0]]))
        assert not res.ok
        assert res.failure in ("negative_pivot", "zero_diagonal_nonzero_row")

    def test_psd_singular(self):
        res = exactla.ldlt_psd(self.to_obj([[1, 1], [1, 1]]))
        assert res.ok
        assert ldl_pivots(res) == (1,)


class TestAffineProjection:
    def test_flattening_is_fixed_point(self, rng):
        t = random_symmetric_tensor(rng, 2, 3)
        G = np.array(t.rows, dtype=np.float64)
        P = kernels.project_affine(G, t.to_float())
        assert np.abs(P - G).max() < 1e-12

    def test_zero_matrix_for_identity(self):
        t = m_identity(2, 2)
        P = kernels.project_affine(np.zeros((4, 4)), t.to_float())
        # diagonal entries are pinned to 1; the off-diagonal constraint pairs
        # balance around 0
        assert np.allclose(np.diag(P), 1.0)
        assert np.abs(P - P.T).max() == 0.0

    def test_idempotent(self, rng):
        t = random_symmetric_tensor(rng, 3, 2)
        G = rng.standard_normal((6, 6))
        G = 0.5 * (G + G.T)
        P1 = kernels.project_affine(G, t.to_float())
        P2 = kernels.project_affine(P1, t.to_float())
        assert np.abs(P1 - P2).max() < 1e-12

    def test_projection_restores_form_identity(self, rng):
        t = random_symmetric_tensor(rng, 2, 2)
        G = rng.standard_normal((4, 4))
        G = 0.5 * (G + G.T)
        P = kernels.project_affine(G, t.to_float())
        for _ in range(10):
            x = rng.standard_normal(2)
            y = rng.standard_normal(2)
            z = np.outer(x, y).ravel()
            lhs = float(z @ P @ z)
            rhs = float(evaluate(t, [float(v) for v in x], [float(v) for v in y]))
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


def canonical_certificate(cert):
    return jsonio.dumps_canonical(jsonio.certificate_to_dict(cert))


class TestIntegerRounding:
    """``_round_at`` rounds the shifts and factors the Gram point in
    integers; it must give what ``fraction_round_at``, the Fraction
    version, gives."""

    @pytest.mark.parametrize("m,n", list(itertools.product(range(1, 4), repeat=2)))
    def test_agrees_with_fraction_rounding(self, m, n):
        rng = np.random.default_rng([m, n, 15])
        mn = m * n
        dirs = kernels.gram_directions(m, n)
        certified = []
        # the flattening of S + d I for a random rational symmetric S with
        # entries in [-1, 1]: positive definite, mostly indefinite, negative
        # definite; then random float shifts of its family
        for d in (2 * mn, 0, -2 * mn):
            qs = rng.integers(1, 13, mn * mn).tolist()
            S = np.array([F(int(rng.integers(-q, q + 1)), q) for q in qs], dtype=object).reshape(mn, mn)
            P = np.triu(S) + np.triu(S, 1).T + d * np.eye(mn, dtype=int)
            t = symmetrize(P.reshape(m, n, m, n))
            x = 0.3 * rng.standard_normal(dirs[0].size)
            for denom in gram.RATIONALIZE_DENOMINATORS:
                cert = gram._round_at(x, dirs, t, denom)
                reference = fraction_round_at(x, t, denom)
                assert (cert is None) == (reference is None)
                if cert is not None:
                    assert canonical_certificate(cert) == canonical_certificate(reference)
                certified.append(cert is not None)
        assert any(certified) and not all(certified)

    # Ties: at a ladder denominator D no binary float lies exactly midway
    # between its two candidates, whose denominators q, s are coprime with
    # q + s > D, since the midpoint's denominator 2qs is a power of two only
    # if q = 1 and s is a power of two in (D - 1, D]. The denominators 1, 2
    # and 3 reach the tie rule; (2k + 1) / (2D) comes within an ulp of it.
    @pytest.mark.parametrize("denom", gram.RATIONALIZE_DENOMINATORS + (1, 2, 3))
    def test_nearest_ratio_is_limit_denominator(self, denom):
        rng = np.random.default_rng(denom)
        values = [0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 5e-324, 0.5, -0.5, 1.5, -2.5, 0.75, -0.25,
                  1 / 3, -2 / 3, math.pi, -math.e]
        values += [k / 2 ** e for k in range(-9, 10, 2) for e in range(0, 21)]  # 2^e below and above D
        values += [(2 * k + 1) / (2 * d) for d in (denom, denom - 1, denom + 1) if d for k in range(-6, 6)]
        values += (rng.standard_normal(300) * 10.0 ** rng.integers(-8, 8, 300)).tolist()
        for v in values:
            want = F(v).limit_denominator(denom)
            assert gram._nearest_ratio(v, denom) == (want.numerator, want.denominator), v


class TestBarrierNewtonSystem:
    @pytest.mark.parametrize("m,n", list(itertools.product(range(2, 5), repeat=2)))
    def test_gather_matches_dense_einsum(self, m, n):
        rng = np.random.default_rng([31, m, n])
        A = rng.standard_normal((m * n, m * n))
        W = np.linalg.inv(A @ A.T + np.eye(m * n))
        g, H = kernels.barrier_newton_system(W, kernels.gram_directions(m, n))
        g_ref, H_ref = dense_barrier_system(W, m, n)
        assert g.shape == g_ref.shape and H.shape == H_ref.shape
        assert np.abs(g - g_ref).max() <= 1e-12 * max(1.0, np.abs(g_ref).max())
        assert np.abs(H - H_ref).max() <= 1e-12 * max(1.0, np.abs(H_ref).max())

    @pytest.mark.parametrize("m,n", list(itertools.product(range(1, 5), repeat=2)))
    def test_gram_at_is_the_dense_direction_sum(self, m, n):
        # the 4K positions are distinct, so each gets exactly one +-t_k
        rng = np.random.default_rng([32, m, n])
        F = rng.standard_normal((m * n, m * n))
        F += F.T
        t = rng.standard_normal(math.comb(m, 2) * math.comb(n, 2))
        assert np.array_equal(gram._gram_at(F, t, kernels.gram_directions(m, n)),
                              F + np.tensordot(t, gram_direction_stack(m, n), 1))

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 4)])
    def test_directions_keep_the_form(self, m, n, rng):
        t = random_symmetric_tensor(rng, m, n)
        a4 = t.to_float()
        G = np.array(t.rows, dtype=np.float64) + np.tensordot(
            rng.standard_normal(math.comb(m, 2) * math.comb(n, 2)), gram_direction_stack(m, n), 1)
        assert kernels.affine_residual(G, a4) < 1e-12


class TestGramDirections:
    @pytest.mark.parametrize("m,n", list(itertools.product(range(1, 5), repeat=2)))
    def test_read_only_formula_built_once(self, m, n):
        dirs = kernels.gram_directions(m, n)
        pairs = [(i, k, j, l) for i, k in itertools.combinations(range(m), 2)
                 for j, l in itertools.combinations(range(n), 2)]
        assert [a.tolist() for a in dirs] == [
            [i * n + j for i, k, j, l in pairs], [k * n + l for i, k, j, l in pairs],
            [i * n + l for i, k, j, l in pairs], [k * n + j for i, k, j, l in pairs]]
        assert all(a.dtype.kind == "i" and not a.flags.writeable for a in dirs)
        assert kernels.gram_directions(m, n) is dirs
        for a in dirs:
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    def test_benchmark_probe_pool_splits_50_14(self):
        # the benchmark's probe pool (perfbench.workloads.Probe), base inputs:
        # 64 sums of nine squares that share one direction set
        proc = subprocess.run([sys.executable, "-c", """
from collections import Counter
import numpy as np
from biquad import gram, kernels
from biquad.core import SymmetricBiquadraticTensor
from perfbench import forms
from perfbench.workloads import POOL_SEED, Probe
tally = Counter()
for k in range(Probe.POOL):
    rng = np.random.default_rng([POOL_SEED, 2, k])
    poly = forms.poly_from_squares(forms.random_squares(3, 3, Probe.SQUARES, rng))
    t = SymmetricBiquadraticTensor(3, 3, np.array(forms.symmetric_entries(3, 3, poly), dtype=object))
    tally[gram.sos_probe(t).status] += 1
print(sorted(tally.items()), kernels.gram_directions.cache_info().misses)
"""], cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[('flattening_psd', 14), ('sos_certified', 50)] 1\n"


class TestPSDProjection:
    def test_psd_input_unchanged(self, rng):
        A = rng.standard_normal((5, 5))
        G = A @ A.T
        assert np.abs(gram.gram_project_psd(G) - G).max() < 1e-10

    def test_indefinite_diagonal(self):
        G = np.diag([1.0, -1.0])
        assert np.allclose(gram.gram_project_psd(G), np.diag([1.0, 0.0]), atol=1e-12)

    def test_negative_rank_one_goes_to_zero(self, rng):
        v = rng.standard_normal(4)
        G = -np.outer(v, v)
        assert np.abs(gram.gram_project_psd(G)).max() < 1e-10


class TestSOSProbe:
    def test_dominated_certifies_via_flattening(self):
        t = gen_tensor("dd", 2, 2, np.random.default_rng(21))
        res = sos_probe(t)
        assert res.status == "flattening_psd"
        assert res.certified
        assert res.iterations == 0
        assert tensors_equal(expand_certificate(res.certificate), t)

    def test_results_without_a_trace_share_no_list(self):
        a, b = (gram.SOSProbeResult("inconclusive", None, 0, gram.GramPoint(0.0, 0.0)) for _ in range(2))
        assert a.trace == b.trace == [] and a.trace is not b.trace
        assert a == b and not a.certified

    def test_choi_suspected_infeasible(self):
        res = sos_probe(choi_form(), max_iter=2000, tol=1e-9)
        assert res.status == "infeasible_suspected"
        assert res.certificate is None
        assert res.residuals.s < -1e-3 and res.residuals.bound < -1e-9
        # s is recorded every iteration
        assert len(res.trace) == res.iterations

    def test_barrier_path_rationalizes(self):
        t = rank_one_sos_tensor()
        res = sos_probe(t, max_iter=3000, tol=1e-9)
        assert res.status == "sos_certified"
        assert res.certified
        assert tensors_equal(expand_certificate(res.certificate), t)

    def test_rounds_from_just_below_zero(self):
        # the only Gram point is rank one, so s* = 0 and the barrier ends at
        # s < 0; rounding is tried for every s >= -tol
        res = sos_probe(rank_one_sos_tensor(), tol=1e-9)
        assert -1e-9 <= res.trace[-1] < 0
        assert res.status == "sos_certified"

    def test_stops_at_the_first_step_sure_to_round(self):
        # from s >= mn/D0 on, rounding at D0 keeps lambda_min > 0 (Weyl), so
        # the barrier stops at the first such step and rounds there
        t = integer_squares_tensor(np.random.default_rng([77, 0]), 3, 3, 9)
        sure = 9 / gram.RATIONALIZE_DENOMINATORS[0]
        res = sos_probe(t)
        assert res.status == "sos_certified"
        assert tensors_equal(expand_certificate(res.certificate), t)
        assert res.iterations == len(res.trace)
        assert res.trace[-1] >= sure
        assert all(s < sure for s in res.trace[:-1])
        assert res.iterations < full_solve_probe(t).iterations

    def test_refused_early_rounding_walks_the_ladder_at_the_same_point(self, monkeypatch):
        t = integer_squares_tensor(np.random.default_rng([77, 0]), 3, 3, 9)
        early = sos_probe(t)
        real, calls = gram._round_at, []

        def refuse_first(shift, dirs, tensor, denom):
            calls.append(denom)
            return None if len(calls) == 1 else real(shift, dirs, tensor, denom)

        monkeypatch.setattr(gram, "_round_at", refuse_first)
        res = sos_probe(t)
        assert res.status == "sos_certified"
        assert tensors_equal(expand_certificate(res.certificate), t)
        # no second solve: the early-stop point goes on to the next rung
        assert res.trace == early.trace
        assert calls == [10, 100]

    def test_no_rounding_leaves_feasible_numerical(self, monkeypatch):
        # the barrier reaches s >= -tol, but when no rung of the ladder
        # verifies, no exact certificate is recovered
        monkeypatch.setattr(gram, "_round_at", lambda shift, dirs, t, denom: None)
        res = sos_probe(rank_one_sos_tensor(), tol=1e-9)
        assert res.status == "feasible_numerical"
        assert res.certificate is None and not res.certified
        assert res.iterations == len(res.trace) > 0

    @pytest.mark.parametrize("m,n", [(1, 2), (2, 1)])
    def test_no_free_direction_is_refused_without_a_solve(self, m, n, monkeypatch):
        # K = 0: the family is the flattening alone, indefinite by 1e-12,
        # which the exact LDL^T has already refused; the form is x1^2 y^T A y
        # (or its mirror), so that refusal proves it neither PSD nor SOS
        def unreachable(*args):
            raise AssertionError("ran a float step with no free direction")

        near = 1 + F(1, 10**12)
        t = SymmetricBiquadraticTensor(m, n, np.array([1, near, near, 1], dtype=object).reshape(m, n, m, n))
        assert kernels.gram_directions(m, n)[0].size == 0
        for name in ("_barrier_max_min_eig", "_round_at"):
            monkeypatch.setattr(gram, name, unreachable)
        monkeypatch.setattr(kernels, "gram_directions", unreachable)
        monkeypatch.setattr(SymmetricBiquadraticTensor, "to_float", unreachable)
        res = sos_probe(t)
        assert (res.status, res.certificate, res.iterations, res.trace) == ("not_sos", None, 0, [])
        assert res.residuals == (None, None) and not res.certified
        # the refusal is right: the form is -2e-12 at x = (1,), y = (1, -1)
        x, y = ([1], [1, -1]) if m == 1 else ([1, -1], [1])
        assert evaluate(t, x, y) == -2 * F(1, 10**12)

    def test_ladder_is_nonempty_and_increasing(self):
        # the early stop at s >= mn / D0 reads the first rung unguarded
        ladder = gram.RATIONALIZE_DENOMINATORS
        assert isinstance(ladder, tuple) and len(ladder) > 0
        assert all(type(d) is int and d >= 2 for d in ladder)
        assert all(a < b for a, b in zip(ladder, ladder[1:]))

    def test_choi_optimum(self):
        # max over the Gram family of lambda_min is 1 - 2/sqrt(3) for Choi
        res = sos_probe(choi_form())
        assert res.residuals.s == res.trace[-1]
        assert abs(res.residuals.s - (1 - 2 / math.sqrt(3))) < 1e-7

    @pytest.mark.parametrize("name", ["choi", "rank1", "sos22", "sos33", "choi+I/100", "choi, 3 steps",
                                      "dd22", "1x2"])
    def test_the_evidence_decides_the_status(self, name):
        # the reported (s, bound) are the numbers the status ladder read;
        # Choi cut to 3 Newton steps is inconclusive before its first centre
        choi = choi_form()
        tensors = {
            **{key: jsonio.tensor_from_dict(json.loads(GOLDEN_LITERALS[key]))
               for key in ("rank1", "sos22", "sos33")},
            "choi": choi,
            "choi+I/100": SymmetricBiquadraticTensor(
                3, 3, choi.entries + m_identity(3, 3).entries * F(1, 100)),
            "choi, 3 steps": choi,
            "dd22": gen_tensor("dd", 2, 2, np.random.default_rng(21)),
            "1x2": SymmetricBiquadraticTensor(1, 2, np.array([1, 0, 0, -1], dtype=object).reshape(1, 2, 1, 2)),
        }
        tol = 1e-9
        res = sos_probe(tensors[name], max_iter=3 if name == "choi, 3 steps" else 5000, tol=tol)
        s, bound = res.residuals
        if res.status in ("flattening_psd", "not_sos"):
            assert (s, bound) == (None, None)
            return
        assert s == res.trace[-1]
        if res.status in ("sos_certified", "feasible_numerical"):
            assert s >= -tol
        elif res.status == "infeasible_suspected":
            assert s < -tol and bound is not None and bound < -tol
        else:
            assert res.status == "inconclusive"
            assert s < -tol and (bound is None or bound >= -tol)

    @pytest.mark.parametrize("m,n", [(3, 3), (4, 4)])
    def test_random_integer_squares_certified(self, m, n):
        # rounding needs an interior point: from a boundary point (Dykstra's)
        # 3 of these 12 ended feasible_numerical at each size. The barrier
        # stops at the first step with s >= mn/10, after at most 14 Newton
        # steps here; the full solve to a gap of 1e-9 took 27 to 42.
        for seed in range(12):
            t = integer_squares_tensor(np.random.default_rng([77, seed]), m, n, m * n)
            res = sos_probe(t)
            assert res.status in ("sos_certified", "flattening_psd"), seed
            assert tensors_equal(expand_certificate(res.certificate), t)
            assert res.iterations <= 15

    def test_tol_below_float_resolution_ends_early(self):
        # float64 cannot close a gap of 1e-14, so the Newton decrement stops
        # falling; the solve ends there instead of running to max_iter
        t = integer_squares_tensor(np.random.default_rng([77, 0]), 3, 3, 9)
        res = sos_probe(t, tol=1e-14)
        assert res.status == "sos_certified"
        assert res.iterations < 100
        res = sos_probe(choi_form(), tol=1e-14)
        assert res.status == "infeasible_suspected"
        assert res.iterations < 200

    def test_step_cap_is_inconclusive(self):
        res = sos_probe(choi_form(), max_iter=10)
        assert res.status == "inconclusive"
        assert res.iterations == len(res.trace) == 10

    @pytest.mark.parametrize("tol", [float("inf"), float("nan"), 0.0, -1.0, float("-inf")])
    def test_tol_must_be_finite_and_positive(self, tol):
        # tol=inf reported feasible_numerical on Choi after one iteration,
        # and tol=nan ran to max_iter
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            sos_probe(choi_form(), max_iter=50, tol=tol)
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            sos_probe(m_identity(2, 2), tol=tol)  # even when the flattening decides

    def test_monic_inside_never_suspected(self, rng):
        from biquad.monic import tetrahedron

        for k in range(5):
            m = int(rng.integers(2, 4))
            n = int(rng.integers(2, 4))
            tet = tetrahedron(m, n)
            weights = [F(int(rng.integers(1, 5))) for _ in range(4)]
            s = sum(weights)
            abc = tuple(sum(w / s * tet[v][i] for v, w in enumerate(weights))
                        for i in range(3))
            res = sos_probe(monic_to_tensor(MonicParams(m, n, *abc)), max_iter=1500, tol=1e-8)
            assert res.status != "infeasible_suspected"
            # the canonical flattening of a PSD monic form is itself PSD
            assert res.status == "flattening_psd"


class TestChoiFixture:
    def test_tensor_shape_and_symmetry(self):
        t = choi_form()
        assert (t.m, t.n) == (3, 3)
        assert has_biquadratic_symmetry(t.entries)

    def test_spot_values(self):
        t = choi_form()
        # F(e1, e1) = 1, F(e1, e2) = 1, F(e1, e3) = 0
        assert evaluate(t, [1, 0, 0], [1, 0, 0]) == 1
        assert evaluate(t, [1, 0, 0], [0, 1, 0]) == 1
        assert evaluate(t, [1, 0, 0], [0, 0, 1]) == 0
        # the zero at x = y = (1,1,1)
        assert evaluate(t, [1, 1, 1], [1, 1, 1]) == 0

    def test_sampling_finds_no_negative_value(self):
        val, _, _ = sample_min(choi_form(), 300, seed=5)
        assert val >= -1e-9


class TestConjectureSweep:
    def test_b0_sweep_runs(self):
        pairs = list(conjecture_sweep("b0", 4, seed=1, m=2, n=2, max_iter=800, tol=1e-7))
        assert len(pairs) == 4
        assert [(t.m, t.n) for t, _ in pairs] == [(2, 2)] * 4

    def test_trial_k_draws_from_seed_and_k(self):
        (t, r), = conjecture_sweep("m_tensor", 1, seed=3, m=2, n=2, max_iter=800, tol=1e-7)
        assert tensors_equal(t, gen_tensor("m", 2, 2, np.random.default_rng([3, 0])))
        assert r.status == sos_probe(t, max_iter=800, tol=1e-7).status

    def test_c09_changes_one_trial(self):
        # criterion 09's 2x2 M-tensor sweep: trial 74 has an indefinite
        # flattening; Dykstra left it feasible_numerical, the barrier certifies
        statuses = [r.status for _, r in conjecture_sweep("m_tensor", 200, seed=909, m=2, n=2,
                                                          max_iter=1500, tol=1e-8)]
        assert statuses[74] == "sos_certified"
        assert Counter(statuses) == {"flattening_psd": 199, "sos_certified": 1}

    def test_trials_run_only_as_they_are_taken(self, monkeypatch):
        drawn = []

        def recording_gen(*args):
            drawn.append(args)
            return gen_tensor(*args)

        monkeypatch.setattr(gram.classes, "gen_tensor", recording_gen)
        pairs = conjecture_sweep("b0", 3, seed=0, m=2, n=2)
        assert drawn == []
        next(pairs)
        assert len(drawn) == 1

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            conjecture_sweep("m_tensor", 0, seed=0, m=2, n=2)

    @pytest.mark.parametrize("tol", [float("nan"), 0.0])
    def test_bad_tol_rejected_before_the_first_trial(self, monkeypatch, tol):
        def no_work(*args):
            raise AssertionError("a trial ran")
        monkeypatch.setattr(gram.classes, "gen_tensor", no_work)
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            conjecture_sweep("b0", 3, seed=0, m=2, n=2, tol=tol)

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            conjecture_sweep("dd", 3, seed=0, m=2, n=2)

    def test_deterministic(self):
        a, b = (conjecture_sweep("m_tensor", 3, seed=8, m=2, n=2, max_iter=500, tol=1e-7)
                for _ in range(2))
        assert [r.status for _, r in a] == [r.status for _, r in b]
