"""Canonical-flattening certificates, the affine/PSD projections, the
alternating-projection probe, and conjecture sweeps."""

import io
from fractions import Fraction as F

import numpy as np
import pytest

from biquad import exactla, gram
from biquad.core import (
    BilinearForm,
    MonicParams,
    SOSCertificate,
    evaluate,
    expand_certificate,
    monic_to_tensor,
    sample_min,
    tensors_equal,
)
from biquad.classes import gen_tensor, m_identity
from biquad.dominance import dd_sos_decompose, flatten
from biquad.gram import (
    choi_form,
    conjecture_sweep,
    flattening_psd_check,
    gram_project_affine,
    gram_project_psd,
    sos_probe,
    sweep_counts,
    write_sweep_csv,
)

from conftest import random_symmetric_tensor


def rank_one_sos_tensor():
    """symmetrize((x1 y2 - x2 y1)^2): certified SOS, indefinite flattening."""
    W = BilinearForm.from_entries(2, 2, [[0, 1], [-1, 0]])
    return expand_certificate(SOSCertificate(2, 2, ((F(1), W),)))


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
        res = exactla.ldlt_psd(flatten(t).M)
        assert not res.ok
        assert res.failure == "negative_pivot"
        assert res.value < 0

    def test_sos_tensor_with_indefinite_flattening(self):
        assert flattening_psd_check(rank_one_sos_tensor()) is None


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
        assert res.pivots == (1,)


class TestAffineProjection:
    def test_flattening_is_fixed_point(self, rng):
        t = random_symmetric_tensor(rng, 2, 3)
        G = flatten(t).M.astype(np.float64)
        P = gram_project_affine(G, t)
        assert np.abs(P - G).max() < 1e-12

    def test_zero_matrix_for_identity(self):
        t = m_identity(2, 2)
        P = gram_project_affine(np.zeros((4, 4)), t)
        # diagonal entries are pinned to 1; the off-diagonal constraint pairs
        # balance around 0
        assert np.allclose(np.diag(P), 1.0)
        assert np.abs(P - P.T).max() == 0.0

    def test_idempotent(self, rng):
        t = random_symmetric_tensor(rng, 3, 2)
        G = rng.standard_normal((6, 6))
        G = 0.5 * (G + G.T)
        P1 = gram_project_affine(G, t)
        P2 = gram_project_affine(P1, t)
        assert np.abs(P1 - P2).max() < 1e-12

    def test_projection_restores_form_identity(self, rng):
        t = random_symmetric_tensor(rng, 2, 2)
        G = rng.standard_normal((4, 4))
        G = 0.5 * (G + G.T)
        P = gram_project_affine(G, t)
        for _ in range(10):
            x = rng.standard_normal(2)
            y = rng.standard_normal(2)
            z = np.outer(x, y).ravel()
            lhs = float(z @ P @ z)
            rhs = float(evaluate(t, [float(v) for v in x], [float(v) for v in y]))
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


class TestPSDProjection:
    def test_psd_input_unchanged(self, rng):
        A = rng.standard_normal((5, 5))
        G = A @ A.T
        assert np.abs(gram_project_psd(G) - G).max() < 1e-10

    def test_indefinite_diagonal(self):
        G = np.diag([1.0, -1.0])
        assert np.allclose(gram_project_psd(G), np.diag([1.0, 0.0]), atol=1e-12)

    def test_negative_rank_one_goes_to_zero(self, rng):
        v = rng.standard_normal(4)
        G = -np.outer(v, v)
        assert np.abs(gram_project_psd(G)).max() < 1e-10


class TestSOSProbe:
    def test_dominated_certifies_via_flattening(self):
        t = gen_tensor("dd", 2, 2, np.random.default_rng(21))
        res = sos_probe(t)
        assert res.status == "flattening_psd"
        assert res.certified
        assert res.iterations == 0
        assert tensors_equal(expand_certificate(res.certificate), t)

    def test_choi_suspected_infeasible(self):
        res = sos_probe(choi_form(), max_iter=2000, tol=1e-9)
        assert res.status == "infeasible_suspected"
        assert res.certificate is None
        assert res.residuals.residual_affine > 1e-3 or res.residuals.residual_psd > 1e-3
        # residual trace is recorded every iteration
        assert len(res.trace) == res.iterations

    def test_dykstra_path_rationalizes(self):
        t = rank_one_sos_tensor()
        res = sos_probe(t, max_iter=3000, tol=1e-9)
        assert res.status == "sos_certified"
        assert res.certified
        assert tensors_equal(expand_certificate(res.certificate), t)

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
            abc = tuple(sum(w / s * tet.vertices[v][i] for v, w in enumerate(weights))
                        for i in range(3))
            res = sos_probe(monic_to_tensor(MonicParams(m, n, *abc)), max_iter=1500, tol=1e-8)
            assert res.status != "infeasible_suspected"
            # the canonical flattening of a PSD monic form is itself PSD
            assert res.status == "flattening_psd"


class TestChoiFixture:
    def test_tensor_shape_and_symmetry(self):
        t = choi_form()
        assert (t.m, t.n) == (3, 3)
        assert t.has_biquadratic_symmetry()

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
    def test_rows_and_csv(self, tmp_path):
        rows = conjecture_sweep("m_tensor", 5, seed=3, m=2, n=2, max_iter=800, tol=1e-7)
        assert len(rows) == 5
        buf = io.StringIO()
        write_sweep_csv(rows, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "trial,seed,status,iterations,residual_affine,residual_psd"
        assert len(lines) == 6
        counts = sweep_counts(rows)
        assert sum(counts.values()) == 5

    def test_b0_sweep_runs(self):
        rows = conjecture_sweep("b0", 4, seed=1, m=2, n=2, max_iter=800, tol=1e-7)
        assert len(rows) == 4

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            conjecture_sweep("m_tensor", 0, seed=0, m=2, n=2)

    @pytest.mark.parametrize("tol", [float("nan"), 0.0])
    def test_bad_tol_rejected_before_the_first_trial(self, monkeypatch, tol):
        def no_work(*args):
            raise AssertionError("a trial ran")
        monkeypatch.setattr(gram, "gen_tensor", no_work)
        with pytest.raises(ValueError, match="tol must be finite and > 0"):
            conjecture_sweep("b0", 3, seed=0, m=2, n=2, tol=tol)

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            conjecture_sweep("dd", 3, seed=0, m=2, n=2)

    def test_deterministic(self):
        a = conjecture_sweep("m_tensor", 3, seed=8, m=2, n=2, max_iter=500, tol=1e-7)
        b = conjecture_sweep("m_tensor", 3, seed=8, m=2, n=2, max_iter=500, tol=1e-7)
        assert [r.status for r in a] == [r.status for r in b]
