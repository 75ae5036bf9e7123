"""Structured class predicates, the splitting alpha*I - B, the ascent
estimate of the largest critical value, and the generators."""

from fractions import Fraction as F

import numpy as np
import pytest

from biquad.core import (
    MonicParams,
    SOSCertificate,
    SymmetricBiquadraticTensor,
    expand_certificate,
    monic_to_tensor,
    sample_min,
    tensors_equal,
)
from biquad.classes import (
    GENERATOR_CLASSES,
    classify,
    gen_tensor,
    is_b0_tensor,
    is_z_tensor,
    lambda_max_estimate,
    m_identity,
    z_split,
)
from biquad.dominance import is_diagonally_dominated, row_bound
from biquad.gram import flattening_psd_check

from conftest import (
    bilinear_form,
    has_biquadratic_symmetry,
    random_symmetric_tensor,
    two_family_is_b0,
    two_family_row_mean,
    two_family_row_offdiag_max,
    with_flat_diagonal,
)

ALL_SIZES = [(m, n) for m in range(1, 5) for n in range(1, 5)]


class TestMIdentity:
    def test_flattening_is_identity(self):
        M = m_identity(2, 2).rows
        assert all(M[p][q] == (1 if p == q else 0) for p in range(4) for q in range(4))

    def test_unit_value(self):
        from biquad.core import evaluate

        t = m_identity(3, 2)
        assert evaluate(t, [1, 0, 0], [0, 1]) == 1

    def test_equals_zero_monic(self):
        assert tensors_equal(m_identity(3, 3), monic_to_tensor(MonicParams(3, 3, 0, 0, 0)))


class TestZTensor:
    def test_identity_is_z(self):
        assert is_z_tensor(m_identity(2, 2))

    def test_nonpositive_monic_is_z(self):
        assert is_z_tensor(monic_to_tensor(MonicParams(2, 2, F(-1, 2), F(-1, 2), F(-1, 4))))

    def test_positive_offdiagonal_is_not_z(self):
        assert not is_z_tensor(monic_to_tensor(MonicParams(2, 2, 1, 0, 0)))

    def test_split_identity(self):
        alpha, B = z_split(m_identity(2, 2))
        assert alpha == 1
        assert B.is_zero()

    def test_split_roundtrip(self):
        t = monic_to_tensor(MonicParams(3, 2, F(-1, 3), F(-2, 3), F(-1, 6)))
        alpha, B = z_split(t)
        assert alpha == 1
        assert all(v >= 0 for v in B.entries.flat)
        recon = m_identity(3, 2).entries * alpha - B.entries
        assert tensors_equal(SymmetricBiquadraticTensor(3, 2, recon), t)

    def test_split_zero_tensor(self):
        alpha, B = z_split(SymmetricBiquadraticTensor.zeros(2, 2))
        assert alpha == 0
        assert B.is_zero()

    def test_split_rejects_non_z(self):
        with pytest.raises(ValueError):
            z_split(monic_to_tensor(MonicParams(2, 2, 1, 0, 0)))


class TestLambdaMaxEstimate:
    def test_identity_is_one(self):
        est = lambda_max_estimate(m_identity(2, 2), restarts=4, seed=0)
        assert abs(est - 1.0) < 1e-9

    def test_rank_one_ones_reaches_mn(self):
        W = bilinear_form(2, 2, [[1, 1], [1, 1]])
        B = expand_certificate(SOSCertificate(2, 2, ((F(1), W),)))
        est = lambda_max_estimate(B, restarts=6, seed=1)
        assert abs(est - 4.0) < 1e-6

    def test_zero_tensor(self):
        B = SymmetricBiquadraticTensor.zeros(2, 3)
        assert abs(lambda_max_estimate(B, restarts=3, seed=0)) < 1e-12

    def test_monotone_in_restarts(self):
        W = bilinear_form(3, 2, [[1, 0], [F(1, 2), 1], [0, F(1, 3)]])
        B = expand_certificate(SOSCertificate(3, 2, ((F(1), W),)))
        # absolute values make it nonnegative? expansion of a square with
        # nonnegative W is entrywise nonnegative after symmetrization
        prefix = lambda_max_estimate(B, restarts=3, seed=9)
        more = lambda_max_estimate(B, restarts=8, seed=9)
        assert more >= prefix - 1e-12

    def test_rejects_negative_entries(self):
        t = monic_to_tensor(MonicParams(2, 2, F(-1, 2), 0, 0))
        with pytest.raises(ValueError):
            lambda_max_estimate(t)


class TestB0:
    def test_identity(self):
        assert is_b0_tensor(m_identity(2, 2))
        assert is_b0_tensor(m_identity(3, 4))

    def test_zero_tensor(self):
        assert is_b0_tensor(SymmetricBiquadraticTensor.zeros(2, 2))

    def test_large_positive_offdiagonal_fails_b2(self):
        # one big positive off-diagonal entry with zero diagonal: the row mean
        # cannot dominate it
        arr = SymmetricBiquadraticTensor.zeros(2, 2).entries.copy()
        arr[0, 0, 1, 1] = F(5)
        arr[1, 1, 0, 0] = F(5)
        arr[1, 0, 0, 1] = F(5)
        arr[0, 1, 1, 0] = F(5)
        t = SymmetricBiquadraticTensor(2, 2, arr)
        assert not is_b0_tensor(t)

    def test_negative_row_mean_fails_b1(self):
        arr = SymmetricBiquadraticTensor.zeros(2, 2).entries.copy()
        arr[0, 0, 1, 1] = F(-5)
        arr[1, 1, 0, 0] = F(-5)
        arr[1, 0, 0, 1] = F(-5)
        arr[0, 1, 1, 0] = F(-5)
        t = SymmetricBiquadraticTensor(2, 2, arr)
        assert not is_b0_tensor(t)

    @pytest.mark.parametrize("m,n", ALL_SIZES)
    def test_matches_two_family_formula(self, rng, m, n):
        for _ in range(3):
            t = random_symmetric_tensor(rng, m, n)
            # diagonal lifted by a random amount so both verdicts occur
            diagonal = [row[p] for p, row in enumerate(t.rows)]
            lift = [v + F(int(rng.integers(0, 8 * m * n)), 4) for v in diagonal]
            for s in (t, with_flat_diagonal(t, lift)):
                assert is_b0_tensor(s) == two_family_is_b0(s)

    @staticmethod
    def boundary(rng, m, n):
        """A random off-diagonal part and the diagonal that puts every row
        exactly on its boundary: S = 0 or S / (mn) = off-diagonal max."""
        mn = m * n
        base = with_flat_diagonal(random_symmetric_tensor(rng, m, n), [0] * mn)
        rows = [(i0, j0) for i0 in range(m) for j0 in range(n)]
        diag = [max(-two_family_row_mean(base, *r),
                    mn * two_family_row_offdiag_max(base, *r) - two_family_row_mean(base, *r))
                for r in rows]
        return base, diag

    @pytest.mark.parametrize("m,n", ALL_SIZES)
    def test_equality_boundary_against_two_family_formula(self, rng, m, n):
        # every row exactly on its boundary passes; one row lowered by 1/64 fails
        base, diag = self.boundary(rng, m, n)
        tight = with_flat_diagonal(base, diag)
        assert two_family_is_b0(tight) and is_b0_tensor(tight)
        diag[int(rng.integers(0, m * n))] -= F(1, 64)
        below = with_flat_diagonal(base, diag)
        assert not two_family_is_b0(below)
        assert not is_b0_tensor(below)

    @pytest.mark.parametrize("m,n", ALL_SIZES)
    def test_flattening_is_psd(self, rng, m, n):
        # B0 + eps I is a symmetric B-matrix, hence a P-matrix (Pena 2001),
        # hence positive definite; so every B0 flattening is PSD, and
        # flattening_psd_check certifies it exactly
        base, diag = self.boundary(rng, m, n)
        draws = [gen_tensor("b0", m, n, np.random.default_rng([m, n, s])) for s in range(15)]
        for t in [*draws, with_flat_diagonal(base, diag)]:
            assert is_b0_tensor(t)
            cert = flattening_psd_check(t)
            assert cert is not None and tensors_equal(expand_certificate(cert), t)


class TestClassify:
    def test_identity_report(self):
        rep = classify(m_identity(2, 2))
        assert rep.is_z and rep.is_b0 and rep.is_dd
        assert rep.m_tensor.verdict == "yes"
        assert rep.m_tensor.alpha == 1
        assert rep.m_tensor.lambda_max_estimate < 1e-9

    def test_positive_monic_not_z(self):
        rep = classify(monic_to_tensor(MonicParams(2, 2, 1, 1, 1)))
        assert not rep.is_z
        assert rep.m_tensor.verdict == "no"

    def test_small_negative_monic(self):
        t = monic_to_tensor(MonicParams(2, 2, F(-1, 4), F(-1, 4), F(-1, 8)))
        rep = classify(t)
        assert rep.is_z
        # bound = 1/4 + 1/4 + 1/8 < 1
        assert rep.is_dd
        assert row_bound(t, 1, 1) == F(5, 8)

    def test_non_m_tensor_gets_no(self):
        # alpha*I - B with alpha well below the largest critical value of B
        W = bilinear_form(2, 2, [[1, 1], [1, 1]])
        B = expand_certificate(SOSCertificate(2, 2, ((F(1), W),)))
        t = SymmetricBiquadraticTensor(2, 2, m_identity(2, 2).entries * F(1) - B.entries)
        rep = classify(t)
        assert rep.is_z
        assert rep.m_tensor.verdict == "no"  # lambda_max = 4 > alpha


def is_z_above_estimate(t, seed):
    """The Z-shape, with alpha of alpha*I - B above the ascent estimate of
    lambda_max(B): the part of M-membership decidable here."""
    if not is_z_tensor(t):
        return False
    alpha, B = z_split(t)
    return float(alpha) > lambda_max_estimate(B, restarts=10, seed=seed)


class TestGenerators:
    # Each generator builds a member by construction, with no rejection step.
    MEMBERSHIP = {
        "dd": lambda t, seed: is_diagonally_dominated(t),
        "z": lambda t, seed: is_z_tensor(t),
        "m": is_z_above_estimate,
        "b0": lambda t, seed: is_b0_tensor(t),
    }

    @pytest.mark.parametrize("m,n", ALL_SIZES)
    @pytest.mark.parametrize("klass", GENERATOR_CLASSES)
    def test_members_satisfy_predicate(self, klass, m, n):
        for seed in range(4):
            t = gen_tensor(klass, m, n, np.random.default_rng([3, m, n, seed]))
            assert (t.m, t.n) == (m, n)
            assert has_biquadratic_symmetry(t.entries)
            assert self.MEMBERSHIP[klass](t, seed)

    def test_deterministic_per_seed(self):
        a = gen_tensor("dd", 2, 2, np.random.default_rng(77))
        b = gen_tensor("dd", 2, 2, np.random.default_rng(77))
        assert tensors_equal(a, b)

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError):
            gen_tensor("psd", 2, 2, np.random.default_rng(0))

    def test_m_and_b0_members_sample_nonnegative(self):
        for trial in range(4):
            rng = np.random.default_rng([9, trial])
            for klass in ("m", "b0"):
                t = gen_tensor(klass, 2, 2, rng)
                val, _, _ = sample_min(t, 8, seed=trial)
                assert val >= -1e-9
