"""Flattening, row bounds, and the dominance certificate, with the row-sum
equivalence as the cross-cutting oracle."""

from fractions import Fraction as F

import numpy as np
import pytest

from biquad.core import (
    BilinearForm,
    MonicParams,
    SOSCertificate,
    SymmetricBiquadraticTensor,
    evaluate,
    expand_certificate,
    monic_to_tensor,
    tensors_equal,
)
from biquad.classes import m_identity
from biquad.dominance import (
    NotDiagonallyDominantError,
    dd_sos_decompose,
    dominance_violations,
    flatten,
    is_diagonally_dominated,
    row_bound,
)

from conftest import (
    nonzero_entries,
    random_rational_vector,
    random_symmetric_tensor,
    two_family_row_bound,
    with_flat_diagonal,
)

ALL_SIZES = [(m, n) for m in range(1, 5) for n in range(1, 5)]


def flat_offdiag_abs_row_sum(M: np.ndarray, p: int) -> F:
    return sum(abs(M[p, q]) for q in range(len(M)) if q != p)


class TestFlatten:
    def test_identity_flattens_to_identity_matrix(self):
        M = flatten(m_identity(2, 2))
        assert M.shape == (4, 4)
        for p in range(4):
            for q in range(4):
                assert M[p, q] == (1 if p == q else 0)

    def test_monic_2x2_pattern_against_hand_expansion(self):
        # z = (x1y1, x1y2, x2y1, x2y2). Matching z^T M z with the form gives
        # diagonal 1, a at x-swap positions ((11),(21)) and ((12),(22)), b at
        # y-swap positions, c at the double-swap positions.
        a, b, c = F(1, 3), F(-2, 5), F(7, 11)
        M = flatten(monic_to_tensor(MonicParams(2, 2, a, b, c)))
        expected = [
            [1, b, a, c],
            [b, 1, c, a],
            [a, c, 1, b],
            [c, a, b, 1],
        ]
        for p in range(4):
            for q in range(4):
                assert M[p, q] == expected[p][q]

    def test_zero_tensor(self):
        M = flatten(SymmetricBiquadraticTensor.zeros(2, 3))
        assert all(v == 0 for v in M.flat)

    def test_internal_symmetry_invariant(self, rng):
        t = random_symmetric_tensor(rng, 3, 2)
        M = flatten(t)
        m, n = 3, 2
        for i in range(m):
            for j in range(n):
                for k in range(m):
                    for l in range(n):
                        assert M[i * n + j, k * n + l] == M[i * n + l, k * n + j]

    def test_quadratic_form_identity(self, rng):
        t = random_symmetric_tensor(rng, 2, 3)
        M = flatten(t)
        for _ in range(10):
            x = random_rational_vector(rng, 2)
            y = random_rational_vector(rng, 3)
            z = [x[i] * y[j] for i in range(2) for j in range(3)]
            ztMz = sum(z[p] * M[p, q] * z[q] for p in range(6) for q in range(6))
            assert ztMz == evaluate(t, x, y)

    def test_is_a_read_only_view_of_the_entries(self, rng):
        t = random_symmetric_tensor(rng, 2, 3)
        M = flatten(t)
        assert M.shape == (6, 6)
        assert np.shares_memory(M, t.entries)
        with pytest.raises(ValueError):
            M[0, 0] = F(1)


class TestRowBound:
    def test_identity_rows_are_zero(self):
        t = m_identity(3, 2)
        for i in range(1, 4):
            for j in range(1, 3):
                assert row_bound(t, i, j) == 0

    @pytest.mark.parametrize("m,n,a,b,c", [
        (2, 2, F(1), F(1), F(1)),
        (3, 2, F(-1, 2), F(1, 3), F(2, 7)),
        (4, 3, F(1, 5), F(-2, 5), F(-1, 6)),
    ])
    def test_monic_closed_form(self, m, n, a, b, c):
        # Entry placement puts |a| at (m-1) x-swap slots per row, |b| at
        # (n-1) y-swap slots, |c| at (m-1)(n-1) double-swap slots; both sum
        # families see the same multiset, so the halves cancel.
        t = monic_to_tensor(MonicParams(m, n, a, b, c))
        expected = (m - 1) * abs(a) + (n - 1) * abs(b) + (m - 1) * (n - 1) * abs(c)
        for i in range(1, m + 1):
            for j in range(1, n + 1):
                assert row_bound(t, i, j) == expected

    def test_equals_flattened_offdiagonal_row_sum(self, rng):
        for _ in range(50):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(1, 4))
            t = random_symmetric_tensor(rng, m, n)
            M = flatten(t)
            for i in range(1, m + 1):
                for j in range(1, n + 1):
                    p = (i - 1) * n + (j - 1)
                    assert row_bound(t, i, j) == flat_offdiag_abs_row_sum(M, p)

    @pytest.mark.parametrize("m,n", ALL_SIZES)
    def test_matches_two_family_formula(self, rng, m, n):
        for _ in range(3):
            t = random_symmetric_tensor(rng, m, n)
            for i in range(1, m + 1):
                for j in range(1, n + 1):
                    assert row_bound(t, i, j) == two_family_row_bound(t, i - 1, j - 1)

    def test_index_range_checked(self):
        t = m_identity(2, 2)
        with pytest.raises(IndexError):
            row_bound(t, 0, 1)
        with pytest.raises(IndexError):
            row_bound(t, 1, 3)


class TestIsDiagonallyDominated:
    def test_identity(self):
        assert is_diagonally_dominated(m_identity(2, 2))

    def test_monic_ones_is_not(self):
        # bound = 1 + 1 + 1 = 3 > diagonal 1
        assert not is_diagonally_dominated(monic_to_tensor(MonicParams(2, 2, 1, 1, 1)))

    def test_monic_half_half_zero_is_tight(self):
        # bound = 1/2 + 1/2 + 0 = 1 = diagonal, so dominance holds with equality
        t = monic_to_tensor(MonicParams(2, 2, F(1, 2), F(1, 2), 0))
        assert row_bound(t, 1, 1) == 1
        assert is_diagonally_dominated(t)

    def test_matches_flat_matrix_dominance(self, rng):
        for _ in range(20):
            t = random_symmetric_tensor(rng, 2, 2)
            M = flatten(t)
            flat_dd = all(
                M[p, p] >= flat_offdiag_abs_row_sum(M, p) for p in range(4)
            )
            assert is_diagonally_dominated(t) == flat_dd


    @pytest.mark.parametrize("m,n", ALL_SIZES)
    def test_equality_boundary_against_two_family_formula(self, rng, m, n):
        # diagonal exactly at the two-family bound: dominated with equality in
        # every row; one row lowered by 1/64 is the only violation
        base = with_flat_diagonal(random_symmetric_tensor(rng, m, n), [0] * (m * n))
        bounds = [two_family_row_bound(base, i0, j0) for i0 in range(m) for j0 in range(n)]
        tight = with_flat_diagonal(base, bounds)
        assert is_diagonally_dominated(tight)
        assert dominance_violations(flatten(tight)) == []
        p = int(rng.integers(0, m * n))
        lowered = list(bounds)
        lowered[p] -= F(1, 64)
        below = with_flat_diagonal(base, lowered)
        assert not is_diagonally_dominated(below)
        assert dominance_violations(flatten(below)) == [(p, lowered[p], bounds[p])]


class TestDDMatrixDecompose:
    """The matrix-level decomposition, read back from certificates of N x 1
    tensors: every symmetric N x N matrix is the flattening of one."""

    def column_tensor(self, rows):
        M = np.array([[F(v) for v in row] for row in rows], dtype=object)
        N = len(M)
        return M, SymmetricBiquadraticTensor(N, 1, M.reshape(N, 1, N, 1))

    def decompose(self, t):
        """(alphas, pairs) of dd_sos_decompose(t): the unit weight of each
        row (0 where the term was dropped) and (p, q, beta, s) per pair
        term, with every pair term ahead of every unit term."""
        cert = dd_sos_decompose(t)
        alphas, pairs = [F(0)] * t.m, []
        for w, form in cert.terms:
            rows = [p for p in range(t.m) if form.W[p, 0] != 0]
            assert form.W[rows[0], 0] == 1
            if len(rows) == 1:
                alphas[rows[0]] = w
            else:
                assert alphas == [0] * t.m, "pair term after a unit term"
                p, q = rows
                pairs.append((p, q, w, form.W[q, 0]))
        assert tensors_equal(expand_certificate(cert), t)
        return tuple(alphas), tuple(pairs)

    def test_identity(self):
        _, t = self.column_tensor([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        alphas, pairs = self.decompose(t)
        assert alphas == (1, 1, 1, 1)
        assert pairs == ()

    def test_all_ones_2x2(self):
        _, t = self.column_tensor([[1, 1], [1, 1]])
        alphas, pairs = self.decompose(t)
        assert alphas == (0, 0)
        assert pairs == ((0, 1, 1, 1),)

    def test_mixed_sign_2x2(self):
        _, t = self.column_tensor([[3, -2], [-2, 5]])
        alphas, pairs = self.decompose(t)
        assert alphas == (1, 3)
        assert pairs == ((0, 1, 2, -1),)

    def test_violation_identifies_row(self):
        _, t = self.column_tensor([[1, 5], [5, 9]])
        with pytest.raises(NotDiagonallyDominantError) as exc:
            dd_sos_decompose(t)
        assert [p for p, _, _ in exc.value.violations] == [0]

    def test_reconstruction_on_random_dominant_matrices(self, rng):
        for _ in range(20):
            N = int(rng.integers(2, 6))
            M = np.empty((N, N), dtype=object)
            M[...] = F(0)
            for p in range(N):
                for q in range(p + 1, N):
                    M[p, q] = M[q, p] = F(int(rng.integers(-6, 7)), 6)
            for p in range(N):
                M[p, p] = sum(abs(M[p, q]) for q in range(N) if q != p) + F(int(rng.integers(0, 4)), 3)
            alphas, _ = self.decompose(self.column_tensor(M)[1])
            assert all(a >= 0 for a in alphas)


class TestDDSOSDecompose:
    def test_identity_certificate(self):
        cert = dd_sos_decompose(m_identity(2, 2))
        assert len(cert.terms) == 4
        assert all(w == 1 for w, _ in cert.terms)
        for _, form in cert.terms:
            assert len(nonzero_entries(form)) == 1

    def test_ones_flattening_m2_n1(self):
        arr = np.empty((2, 1, 2, 1), dtype=object)
        arr[...] = F(1)
        t = SymmetricBiquadraticTensor(2, 1, arr)
        cert = dd_sos_decompose(t)
        assert len(cert.terms) == 1
        w, form = cert.terms[0]
        assert w == 1
        assert form.W[0, 0] == 1 and form.W[1, 0] == 1
        assert tensors_equal(expand_certificate(cert), t)

    def test_monic_tight_case_roundtrip(self):
        t = monic_to_tensor(MonicParams(2, 2, F(1, 2), F(1, 2), 0))
        cert = dd_sos_decompose(t)
        assert tensors_equal(expand_certificate(cert), t)
        # tight dominance leaves no diagonal residue
        assert all(len(nonzero_entries(f)) == 2 for _, f in cert.terms)

    def test_rejects_non_dominated(self):
        with pytest.raises(NotDiagonallyDominantError):
            dd_sos_decompose(monic_to_tensor(MonicParams(2, 2, 1, 1, 1)))

    def test_weights_nonnegative_and_sampled_values_nonnegative(self, rng):
        from biquad.classes import gen_tensor
        from biquad.core import sample_min

        for trial in range(5):
            t = gen_tensor("dd", 2, 3, np.random.default_rng([5, trial]))
            cert = dd_sos_decompose(t)
            assert all(w >= 0 for w, _ in cert.terms)
            assert tensors_equal(expand_certificate(cert), t)
            val, _, _ = sample_min(t, 5, seed=trial)
            assert val >= -1e-9
