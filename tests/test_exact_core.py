"""The integer exact core against its all-Fraction references.

``ldlt_psd``, ``expand_certificate``, ``merge_proportional`` and
``symmetrize`` compute in integers; ``tests/conftest.py`` keeps the
all-Fraction implementations they replaced. Each test here requires equal
results: the full ``LDLResult`` (terms, failure kind, index and exact
value), ``tensors_equal`` expansions and symmetrizations, and equal merged
certificates. The certificate builders place shared constants instead of
computing entries, so a last class checks that every entry they emit is
still a Fraction in a read-only array.
"""

import math
from fractions import Fraction as F
from itertools import chain, product

import numpy as np
import pytest

from biquad import exactla
from biquad.core import (
    BilinearForm,
    MonicParams,
    SOSCertificate,
    expand_certificate,
    symmetrize,
    tensors_equal,
)
from biquad.dominance import dd_sos_decompose
from biquad.gram import choi_form
from biquad.monic import merge_proportional, monic_sos_decompose, vertex_sos
from biquad.classes import gen_tensor
from conftest import (
    certificates_equal,
    fraction_expand_certificate,
    fraction_ldlt_psd,
    fraction_merge_proportional,
    fraction_symmetrize,
    random_symmetric_tensor,
)

SHAPES = list(product(range(1, 5), repeat=2))
# denominator bounds: integers, the small fixed 8, and up to 1e3 and 1e6
DENOMS = (1, 8, 1_000, 1_000_000)


def rand_rational(rng, denom, span=4):
    """A rational with numerator in [-span*q, span*q] and denominator q,
    where q is ``denom`` itself for 1 and 8 and drawn up to ``denom`` above."""
    q = denom if denom in (1, 8) else int(rng.integers(1, denom + 1))
    return F(int(rng.integers(-span * q, span * q + 1)), q)


def rand_matrix(rng, rows, cols, denom, density=1.0):
    out = np.full((rows, cols), F(0), dtype=object)
    for idx in np.ndindex(rows, cols):
        if rng.random() < density:
            out[idx] = rand_rational(rng, denom)
    return out


def rand_symmetric(rng, N, denom):
    A = rand_matrix(rng, N, N, denom)
    return np.triu(A) + np.triu(A, 1).T


def gram_sum(rng, N, rank, denom):
    """sum of ``rank`` terms v v^T: PSD by construction, singular for rank < N."""
    V = rand_matrix(rng, rank, N, denom)
    return V.T @ V if rank else np.full((N, N), F(0), dtype=object)


def permuted(rng, M):
    perm = rng.permutation(M.shape[0])
    return M[np.ix_(perm, perm)]


def block_diag(*blocks):
    N = sum(b.shape[0] for b in blocks)
    out = np.full((N, N), F(0), dtype=object)
    at = 0
    for b in blocks:
        k = b.shape[0]
        out[at:at + k, at:at + k] = b
        at += k
    return out


def as_fractions(rows):
    """Nested rows of ints, numpy integers or Fractions as an object matrix
    of Fractions with Python-int parts, the form the oracle takes."""
    return np.array([[F(int(v.numerator), int(v.denominator)) for v in row] for row in rows],
                    dtype=object)


def assert_same_ldlt(M):
    res = exactla.ldlt_psd(M)
    ref = fraction_ldlt_psd(M)
    assert res == ref
    assert all(t.pivot > 0 for t in res.terms)
    assert all(type(v) is F for t in res.terms for v in (t.pivot, *t.vector))
    return res


class TestLDLTAgainstFractionReference:
    @pytest.mark.parametrize("m,n", SHAPES)
    @pytest.mark.parametrize("denom", DENOMS)
    def test_random_symmetric(self, m, n, denom):
        rng = np.random.default_rng([m, n, denom, 1])
        for _ in range(3):
            assert_same_ldlt(rand_symmetric(rng, m * n, denom))

    @pytest.mark.parametrize("m,n", SHAPES)
    @pytest.mark.parametrize("denom", DENOMS)
    def test_psd_by_construction_full_and_singular(self, m, n, denom):
        rng = np.random.default_rng([m, n, denom, 2])
        N = m * n
        for rank in sorted({N, max(N - 1, 0), N // 2, 0}):
            res = assert_same_ldlt(gram_sum(rng, N, rank, denom))
            assert res.ok
            assert len(res.terms) <= rank

    @pytest.mark.parametrize("m,n", SHAPES)
    @pytest.mark.parametrize("denom", DENOMS)
    def test_indefinite_negative_pivot(self, m, n, denom):
        rng = np.random.default_rng([m, n, denom, 3])
        N = m * n
        P = gram_sum(rng, N, N, denom)
        v = rand_matrix(rng, 1, N, denom)
        v[0, 0] = F(1)
        M = P - 4 * (v.T @ v) * max(abs(x) for x in P.reshape(-1)) - np.eye(N, dtype=object)
        res = assert_same_ldlt(permuted(rng, M))
        assert res.failure == "negative_pivot" and res.value < 0

    @pytest.mark.parametrize("denom", DENOMS)
    def test_zero_diagonal_nonzero_row(self, denom):
        rng = np.random.default_rng([denom, 4])
        for k in range(0, 5):
            x = rand_rational(rng, denom) or F(1)
            hole = np.array([[F(0), x], [x, F(0)]], dtype=object)
            res = assert_same_ldlt(permuted(rng, block_diag(gram_sum(rng, k, k, denom), hole)))
            assert res.failure == "zero_diagonal_nonzero_row" and res.value == x

    @pytest.mark.parametrize("denom", DENOMS)
    def test_negative_diagonal_behind_zero_pivot(self, denom):
        # once the PSD block is eliminated the largest diagonal is 0 and a
        # negative one remains: the zero-pivot scan reports it
        rng = np.random.default_rng([denom, 5])
        for k in range(0, 5):
            neg = np.array([[-abs(rand_rational(rng, denom)) - 1]], dtype=object)
            zero = np.full((2, 2), F(0), dtype=object)
            res = assert_same_ldlt(permuted(rng, block_diag(gram_sum(rng, k, k, denom), zero, neg)))
            assert res.failure == "negative_pivot" and res.value == neg[0, 0]

    @pytest.mark.parametrize("m,n", SHAPES)
    def test_tensor_flattenings(self, m, n):
        rng = np.random.default_rng([m, n, 6])
        for denom in (1, 8, 1000):
            assert_same_ldlt(random_symmetric_tensor(rng, m, n, denom=denom).rows)
        for klass in ("dd", "z", "m", "b0"):
            assert_same_ldlt(gen_tensor(klass, m, n, rng).rows)

    def test_choi_flattening(self):
        res = assert_same_ldlt(choi_form().rows)
        assert res.failure == "negative_pivot"

    def test_integer_entries(self):
        M = np.array([[4, 2, 0], [2, 3, 1], [0, 1, 5]], dtype=object)
        assert exactla.ldlt_psd(M) == fraction_ldlt_psd(M.astype(object) * F(1))

    @pytest.mark.parametrize("entry", [
        np.int64,
        lambda v: F(np.int64(v * 3), np.int64(3)),  # keeps numpy-integer parts
    ])
    def test_numpy_integer_entries(self, entry):
        # positive definite; with int64 parts, d B - col col^T would overflow
        rows = [[2**40, 1], [1, 2**40]]
        M = np.array([[entry(v) for v in row] for row in rows], dtype=object)
        res = exactla.ldlt_psd(M)
        assert res.ok
        assert res == fraction_ldlt_psd(as_fractions(rows))

    def test_mixed_entry_types(self):
        rows = [[4, F(1, 2), np.int64(0)], [F(1, 2), np.int64(3), 1], [0, 1, F(5, 7)]]
        assert exactla.ldlt_psd(np.array(rows, dtype=object)) == fraction_ldlt_psd(as_fractions(rows))
        M = np.array([[6, -2, 1], [-2, 5, 3], [1, 3, 4]], dtype=np.int64)
        assert exactla.ldlt_psd(M) == fraction_ldlt_psd(as_fractions(M.tolist()))

    @pytest.mark.parametrize("rows", [
        np.eye(3, dtype=int).tolist(),
        (2 * np.eye(4, dtype=int)).tolist(),  # block-diagonal 2I, 2I
        [[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 2, 1], [0, 0, 1, 2]],  # two coupled 2x2 blocks
        (np.ones((4, 4), dtype=int) + np.eye(4, dtype=int)).tolist(),
        [[2, 1, 1], [1, 2, -1], [1, -1, 2]],
        [[1, 2, 2], [2, 1, 2], [2, 2, 1]],  # negative pivot ties after the first step
    ])
    def test_pivot_ties_take_the_lowest_index(self, rows):
        # every diagonal is equal at the start, and ties recur after each step
        assert_same_ldlt(as_fractions(rows))

    @pytest.mark.parametrize("rows", [[[3]], [[F(-2, 5)]], [[0]]]
                             + [np.zeros((N, N), dtype=int).tolist() for N in (2, 3, 5)])
    def test_order_one_and_zero_matrices(self, rows):
        res = assert_same_ldlt(as_fractions(rows))
        assert res.ok == (rows[0][0] >= 0)
        assert len(res.terms) == (rows[0][0] > 0)

    def test_asymmetric_rejected(self):
        M = np.array([[F(1), F(1, 2)], [F(1, 3), F(1)]], dtype=object)
        with pytest.raises(ValueError):
            exactla.ldlt_psd(M)


class TestLDLTEntrySize:
    """The gcd reduction keeps the integers at the size of the reduced Schur
    complement. Over the input's common denominator D, the Schur complement
    after k pivots has entries that are (k+1)-minors of the integer matrix
    D M over D times a k-minor, and reduction only shrinks that. By
    Hadamard's inequality no integer the elimination hands to Fraction then
    needs more than N (b + log2(N) / 2) + bits(D) bits, b the bits of the
    largest entry of D M. Without the reduction they double at every pivot:
    the bound trips within a few pivots instead of running for minutes."""

    def test_integers_stay_within_hadamards_bound(self, monkeypatch):
        rng = np.random.default_rng(16)
        N = 16
        # off-diagonal row sums are below 4 N, so this is positive definite
        # and the elimination runs all N pivots
        M = rand_symmetric(rng, N, 1_000_000) + 5 * N * np.eye(N, dtype=int)
        nums, D = exactla.common_denominator(M.reshape(-1).tolist())
        bound = N * (max(map(abs, nums)).bit_length() + math.log2(N) / 2) + D.bit_length()

        def sized(num=0, den=1):
            bits = max(abs(num).bit_length(), abs(den).bit_length())
            assert bits <= bound, f"an integer of {bits} bits, above the bound {bound:.0f}"
            return F(num, den)

        monkeypatch.setattr(exactla, "Fraction", sized)
        res = exactla.ldlt_psd(M)
        monkeypatch.undo()
        assert res.ok and len(res.terms) == N
        assert res == fraction_ldlt_psd(M)


class TestCommonDenominator:
    def test_numerators_over_lcm(self):
        nums, D = exactla.common_denominator([F(1, 4), F(-5, 6), 3, F(0)])
        assert D == 12
        assert nums == [3, -10, 36, 0]

    def test_empty(self):
        assert exactla.common_denominator([]) == ([], 1)


def random_certificate(rng, m, n, denom, n_terms, density):
    """Random weights (some zero) and forms, with zero forms and forms
    proportional to earlier ones mixed in."""
    terms = []
    for p in range(n_terms):
        w = abs(rand_rational(rng, denom))
        kind = rng.integers(0, 6)
        if kind == 0:
            W = np.full((m, n), F(0), dtype=object)
        elif kind == 1 and terms:
            W = terms[int(rng.integers(0, len(terms)))][1].W * (rand_rational(rng, denom) or F(-2))
        else:
            W = rand_matrix(rng, m, n, denom, density)
        terms.append((w, BilinearForm(m, n, W)))
    return SOSCertificate(m, n, tuple(terms))


class TestExpansionAgainstFractionReference:
    @pytest.mark.parametrize("m,n", SHAPES)
    @pytest.mark.parametrize("denom", DENOMS)
    def test_random_certificates(self, m, n, denom):
        rng = np.random.default_rng([m, n, denom, 7])
        certs = [random_certificate(rng, m, n, denom, n_terms, density)
                 for n_terms, density in ((0, 1.0), (1, 1.0), (5, 0.3), (12, 1.0))]
        # integer forms alternating with fractional ones, then the same forms
        # all at weight 0
        integral = random_certificate(rng, m, n, 1, 4, 1.0).terms
        fractional = random_certificate(rng, m, n, 8, 4, 1.0).terms
        certs.append(SOSCertificate(m, n, tuple(chain(*zip(integral, fractional)))))
        certs.append(SOSCertificate(m, n, tuple((F(0), form) for _, form in certs[-1].terms)))
        for cert in certs:
            assert tensors_equal(expand_certificate(cert), fraction_expand_certificate(cert))

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 4), (3, 3), (4, 4)])
    def test_vertex_and_dd_certificates(self, m, n):
        rng = np.random.default_rng([m, n, 8])
        certs = [vertex_sos(v, m, n) for v in range(1, 5)]
        certs.append(dd_sos_decompose(gen_tensor("dd", m, n, rng)))
        for cert in certs:
            assert tensors_equal(expand_certificate(cert), fraction_expand_certificate(cert))


class TestMergeAgainstFractionReference:
    @pytest.mark.parametrize("m,n", SHAPES)
    @pytest.mark.parametrize("denom", DENOMS)
    def test_random_certificates(self, m, n, denom):
        rng = np.random.default_rng([m, n, denom, 9])
        for n_terms, density in ((0, 1.0), (4, 0.3), (12, 0.6)):
            cert = random_certificate(rng, m, n, denom, n_terms, density)
            assert certificates_equal(merge_proportional(cert), fraction_merge_proportional(cert))

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (4, 4)])
    def test_concatenated_vertex_certificates(self, m, n):
        terms = tuple(term for v in range(1, 5) for term in vertex_sos(v, m, n).terms)
        cert = SOSCertificate(m, n, terms + terms)
        assert certificates_equal(merge_proportional(cert), fraction_merge_proportional(cert))


def rand_coefficients(rng, m, n, denom):
    """An m x n x m x n array of rand_rational entries, without symmetry."""
    return rand_matrix(rng, m * n, m * n, denom).reshape(m, n, m, n)


class TestSymmetrizeAgainstFractionReference:
    @pytest.mark.parametrize("m,n", SHAPES)
    @pytest.mark.parametrize("denom", DENOMS)
    def test_fraction_input(self, m, n, denom):
        rng = np.random.default_rng([m, n, denom, 10])
        for _ in range(3):
            arr = rand_coefficients(rng, m, n, denom)
            assert tensors_equal(symmetrize(arr), fraction_symmetrize(arr))

    @pytest.mark.parametrize("m,n", SHAPES)
    @pytest.mark.parametrize("denom", DENOMS)
    def test_int_input(self, m, n, denom):
        rng = np.random.default_rng([m, n, denom, 11])
        arr = np.array([int(v) for v in rng.integers(-4 * denom, 4 * denom + 1, (m * n) ** 2)],
                       dtype=object).reshape(m, n, m, n)
        assert tensors_equal(symmetrize(arr), fraction_symmetrize(arr))

    def test_float_entry_raises(self):
        arr = rand_coefficients(np.random.default_rng(12), 2, 2, 8)
        arr[1, 0, 0, 1] = 0.25
        with pytest.raises(TypeError):
            symmetrize(arr)


def assert_exact_forms(cert):
    """Every W entry is a Fraction (not an int) and every W is read-only."""
    for _, form in cert.terms:
        assert not form.W.flags.writeable
        assert all(type(v) is F for v in form.W.flat)


class TestCertificateEntryTypes:
    @pytest.mark.parametrize("m,n", list(product(range(2, 5), repeat=2)))
    def test_vertex_certificates(self, m, n):
        for v in range(1, 5):
            assert_exact_forms(vertex_sos(v, m, n))

    @pytest.mark.parametrize("m,n", SHAPES)
    def test_dd_certificates(self, m, n):
        rng = np.random.default_rng([m, n, 13])
        assert_exact_forms(dd_sos_decompose(gen_tensor("dd", m, n, rng)))

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (4, 4)])
    def test_monic_certificates(self, m, n):
        assert_exact_forms(monic_sos_decompose(MonicParams(m, n, F(1, 5), F(1, 7), F(-1, 9))))

    @pytest.mark.parametrize("denom", DENOMS)
    def test_merged_certificates(self, denom):
        rng = np.random.default_rng([denom, 14])
        for m, n in ((2, 3), (4, 4)):
            assert_exact_forms(merge_proportional(random_certificate(rng, m, n, denom, 12, 0.6)))
            terms = tuple(term for v in range(1, 5) for term in vertex_sos(v, m, n).terms)
            assert_exact_forms(merge_proportional(SOSCertificate(m, n, terms + terms)))
