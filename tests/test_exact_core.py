"""The integer exact core against its all-Fraction references.

``ldlt_psd``, ``expand_certificate``, ``merge_proportional`` and
``symmetrize`` compute in integers; ``tests/conftest.py`` keeps the
all-Fraction implementations they replaced. Each test here requires equal
results: the full ``LDLResult`` (terms, failure kind, index and exact
value), expansions and symmetrizations with equal ``rows`` (compared by
Fraction's own ``==``, not by ``tensors_equal``, which reads slots), and
equal merged certificates. The certificate builders place shared constants
instead of computing entries, so a class checks that every entry they emit
is still a Fraction in a read-only array. The last classes hold the
dominance row sums and decomposition, ``tensors_equal``, the expansion's
per-column term support, the merge's groups, the certificate weight check
and ``common_denominator``'s slot reads against the Fraction operators
they replaced.
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
    SymmetricBiquadraticTensor,
    expand_certificate,
    permutation_invariant,
    symmetrize,
    tensors_equal,
)
from biquad.dominance import NotDiagonallyDominantError, dd_sos_decompose, offdiag_row_sums
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
    two_family_row_bound,
    with_flat_diagonal,
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
            assert expand_certificate(cert).rows == fraction_expand_certificate(cert).rows

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 4), (3, 3), (4, 4)])
    def test_vertex_and_dd_certificates(self, m, n):
        rng = np.random.default_rng([m, n, 8])
        certs = [vertex_sos(v, m, n) for v in range(1, 5)]
        certs.append(dd_sos_decompose(gen_tensor("dd", m, n, rng)))
        for cert in certs:
            assert expand_certificate(cert).rows == fraction_expand_certificate(cert).rows


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
            assert symmetrize(arr).rows == fraction_symmetrize(arr).rows

    @pytest.mark.parametrize("m,n", SHAPES)
    @pytest.mark.parametrize("denom", DENOMS)
    def test_int_input(self, m, n, denom):
        rng = np.random.default_rng([m, n, denom, 11])
        arr = np.array([int(v) for v in rng.integers(-4 * denom, 4 * denom + 1, (m * n) ** 2)],
                       dtype=object).reshape(m, n, m, n)
        assert symmetrize(arr).rows == fraction_symmetrize(arr).rows

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


# The certify path reads Fraction slots where it used Fraction's operators:
# the dominance row sums and decomposition, the expansion, the tensor
# comparison, the merge and the weight check. Each is compared here with
# the operator version it replaced, and tensors by ``rows ==`` (Fraction's
# own __eq__), so that no check runs through the ``tensors_equal`` it tests.

def operator_row_sums(M) -> list:
    """sum_{q != p} |M[p][q]| for each row p, by Fraction's operators."""
    return [sum(map(abs, row)) - abs(row[p]) for p, row in enumerate(M)]


def operator_dd_terms(M) -> list:
    """``dd_sos_decompose``'s terms as (weight, flat W) by Fraction's
    operators: |M[p][q]| on e_p + sign(M[p][q]) e_q for p < q, then
    M[p][p] minus the row sum on e_p, zero weights dropped."""
    N = len(M)
    terms = []

    def unit(p, q=None, sign=F(1)):
        W = [F(0)] * N
        W[p] = F(1)
        if q is not None:
            W[q] = sign
        return W

    for p in range(N):
        for q in range(p + 1, N):
            if M[p][q] != 0:
                terms.append((abs(M[p][q]), unit(p, q, F(1) if M[p][q] > 0 else F(-1))))
    for p, bound in enumerate(operator_row_sums(M)):
        if M[p][p] - bound != 0:
            terms.append((M[p][p] - bound, unit(p)))
    return terms


def flat_terms(cert) -> list:
    return [(w, list(chain.from_iterable(form.rows))) for w, form in cert.terms]


def random_tensor(rng, m, n, denom):
    """The symmetric representative of random coefficients with denominators
    up to ``denom`` and both signs."""
    return symmetrize(rand_coefficients(rng, m, n, denom))


def is_exact(v) -> bool:
    return type(v) is F and type(v.numerator) is int and type(v.denominator) is int


class TestDominanceSlots:
    @pytest.mark.parametrize("m,n", SHAPES)
    @pytest.mark.parametrize("denom", DENOMS)
    def test_row_sums(self, m, n, denom):
        rng = np.random.default_rng([m, n, denom, 20])
        for _ in range(2):
            t = random_tensor(rng, m, n, denom)
            sums = offdiag_row_sums(t.rows)
            assert sums == operator_row_sums(t.rows)
            assert sums == [two_family_row_bound(t, i, j) for i in range(m) for j in range(n)]
            assert all(map(is_exact, sums))

    def test_row_sums_of_mixed_entry_types(self):
        # ints, numpy integers and Fractions with numpy-integer parts take
        # common_denominator's int rule; a row need not be a tensor's
        rows = [[F(-3, 4), np.int64(-2), 5, F(np.int64(-7), np.int64(6))],
                [F(1, 10**6), 0, F(-999_999, 10**6), np.int64(3)],
                [0, 0, 0, 0]]
        sums = offdiag_row_sums(rows)
        assert sums == operator_row_sums(as_fractions(rows))
        assert all(map(is_exact, sums))

    @pytest.mark.parametrize("m,n", SHAPES)
    @pytest.mark.parametrize("denom", DENOMS)
    def test_decomposition(self, m, n, denom):
        rng = np.random.default_rng([m, n, denom, 21])
        t = random_tensor(rng, m, n, denom)
        # slack 0 (tight rows, no unit term) or a random nonnegative one
        slack = [F(0) if rng.random() < 0.4 else abs(rand_rational(rng, denom)) for _ in range(m * n)]
        dd = with_flat_diagonal(t, [r + s for r, s in zip(operator_row_sums(t.rows), slack)])
        cert = dd_sos_decompose(dd)
        assert flat_terms(cert) == operator_dd_terms(dd.rows)
        assert all(is_exact(w) for w, _ in cert.terms)
        assert fraction_expand_certificate(cert).rows == dd.rows

    @pytest.mark.parametrize("m,n", SHAPES)
    @pytest.mark.parametrize("denom", DENOMS)
    def test_violations(self, m, n, denom):
        rng = np.random.default_rng([m, n, denom, 22])
        t = random_tensor(rng, m, n, denom)
        bounds = operator_row_sums(t.rows)
        # below the bound by 1/q (a violation), at it, or above it
        q = 10**6
        diag = [r + F(int(rng.integers(-1, 2)), q) for r in bounds]
        diag[0] = bounds[0] - F(1, q)
        bad = with_flat_diagonal(t, diag)
        with pytest.raises(NotDiagonallyDominantError) as exc:
            dd_sos_decompose(bad)
        assert exc.value.violations == tuple(
            (p, d, r) for p, (d, r) in enumerate(zip(diag, bounds)) if d < r)


class TestTensorsEqualSlots:
    BASE = (F(3, 7), F(1, 2), F(-5, 6), F(0))

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (2, 3), (4, 4)])
    @pytest.mark.parametrize("orbit,changed", [
        (0, F(3, 8)),    # the denominator only
        (1, F(-1, 2)),   # the sign only
        (2, F(5, 6)),    # the sign only, negative to positive
        (3, F(1, 10**6)),  # zero to nonzero
    ])
    def test_one_orbit_differs(self, m, n, orbit, changed):
        values = list(self.BASE)
        s = permutation_invariant(m, n, *values)
        values[orbit] = changed
        t = permutation_invariant(m, n, *values)
        assert tensors_equal(s, t) == (s.rows == t.rows)
        if (orbit == 1 and m == 1) or (orbit == 2 and n == 1) or (orbit == 3 and 1 in (m, n)):
            return  # that orbit is empty at this shape
        assert not tensors_equal(s, t) and not tensors_equal(t, s)

    def test_one_entry_differs_in_its_denominator_only(self):
        t = random_tensor(np.random.default_rng(23), 3, 3, 8)
        arr = np.array(t.entries)
        v = arr[0, 1, 2, 0]
        assert v != 0
        for idx in ((0, 1, 2, 0), (2, 1, 0, 0), (0, 0, 2, 1), (2, 0, 0, 1)):  # its orbit
            arr[idx] = F(v.numerator, v.denominator + 1)
        u = SymmetricBiquadraticTensor(3, 3, arr)
        assert not tensors_equal(t, u) and t.rows != u.rows

    def test_equal_values_in_distinct_objects(self):
        t = random_tensor(np.random.default_rng(24), 3, 2, 1_000_000)
        copy = SymmetricBiquadraticTensor(3, 2, [[[[F(v.numerator, v.denominator) for v in row]
                                                   for row in block] for block in plane]
                                                 for plane in t.entries.tolist()])
        assert all(a is not b for a, b in zip(chain(*t.rows), chain(*copy.rows)) if a != 0)
        assert tensors_equal(t, copy) and tensors_equal(t, t)

    @pytest.mark.parametrize("m,n", SHAPES)
    def test_agrees_with_fraction_equality(self, m, n):
        rng = np.random.default_rng([m, n, 25])
        for denom in (1, 8):
            s, t = random_tensor(rng, m, n, denom), random_tensor(rng, m, n, denom)
            assert tensors_equal(s, t) == (s.rows == t.rows)
            dd = gen_tensor("dd", m, n, rng)
            cert = dd_sos_decompose(dd)
            mine, reference = expand_certificate(cert), fraction_expand_certificate(cert)
            assert reference.rows == dd.rows
            assert tensors_equal(mine, dd) and tensors_equal(dd, reference) and tensors_equal(mine, reference)
            assert tensors_equal(s, dd) == (s.rows == dd.rows)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            tensors_equal(permutation_invariant(2, 3, 1, 0, 0, 0), permutation_invariant(3, 2, 1, 0, 0, 0))
        with pytest.raises(ValueError, match="shape mismatch"):
            # the same 4 x 4 flattening, different shapes
            tensors_equal(permutation_invariant(1, 4, 1, 0, 0, 0), permutation_invariant(4, 1, 1, 0, 0, 0))
        t = permutation_invariant(2, 2, 1, 0, 0, 0)
        with pytest.raises(ValueError, match="shape mismatch"):
            tensors_equal(t, permutation_invariant(2, 3, 1, 0, 0, 0))


def sparse_certificate(rng, m, n, denom, n_terms):
    """Terms over a random half of the positions (the others are all-zero
    columns of the expansion), with one-entry forms, dense forms and zero
    weights mixed in."""
    mn = m * n
    live = [p for p in range(mn) if rng.random() < 0.5] or [int(rng.integers(0, mn))]
    terms = []
    for _ in range(n_terms):
        W = [F(0)] * mn
        kind = rng.integers(0, 3)
        for p in ([live[int(rng.integers(0, len(live)))]] if kind == 0 else live):
            W[p] = rand_rational(rng, denom) or F(1)
        w = F(0) if kind == 1 and rng.random() < 0.5 else abs(rand_rational(rng, denom))
        terms.append((w, BilinearForm.from_flat(m, n, W)))
    return SOSCertificate(m, n, tuple(terms))


class TestExpansionSupport:
    """Each column of the expansion sums over the terms with a nonzero entry
    there; these inputs make that set empty, a single term, a few, or all."""

    @pytest.mark.parametrize("m,n", SHAPES)
    @pytest.mark.parametrize("denom", DENOMS)
    def test_sparse_forms(self, m, n, denom):
        rng = np.random.default_rng([m, n, denom, 26])
        for n_terms in (1, 2, 7, 20):
            cert = sparse_certificate(rng, m, n, denom, n_terms)
            assert expand_certificate(cert).rows == fraction_expand_certificate(cert).rows

    @pytest.mark.parametrize("m,n", SHAPES)
    def test_one_entry_forms_and_zero_weights(self, m, n):
        mn = m * n
        for p in range(mn):
            W = [F(0)] * mn
            W[p] = F(-3, 7)
            one = BilinearForm.from_flat(m, n, W)
            for cert in (SOSCertificate(m, n, ((F(2, 5), one),)),
                         SOSCertificate(m, n, ((F(0), one),)),
                         SOSCertificate(m, n, ((F(0), one), (F(1, 10**6), one), (F(0), one)))):
                expanded = expand_certificate(cert)
                assert expanded.rows == fraction_expand_certificate(cert).rows
                assert all(map(is_exact, chain.from_iterable(expanded.rows)))
        empty = expand_certificate(SOSCertificate(m, n, ()))
        assert empty.rows == ((F(0),) * mn,) * mn

    @pytest.mark.parametrize("m,n", SHAPES)
    def test_dd_and_vertex_certificates(self, m, n):
        rng = np.random.default_rng([m, n, 27])
        certs = [dd_sos_decompose(gen_tensor("dd", m, n, rng)) for _ in range(2)]
        if m > 1 and n > 1:
            certs += [vertex_sos(v, m, n) for v in range(1, 5)]
            certs.append(monic_sos_decompose(MonicParams(m, n, F(1, 5), F(1, 7), F(-1, 9))))
        for cert in certs:
            assert expand_certificate(cert).rows == fraction_expand_certificate(cert).rows


class TestMergeGroups:
    @pytest.mark.parametrize("m,n", [(1, 4), (2, 2), (3, 4), (4, 4)])
    @pytest.mark.parametrize("denom", DENOMS)
    def test_groups_of_one_and_of_three(self, m, n, denom):
        rng = np.random.default_rng([m, n, denom, 28])
        mn = m * n
        terms = []
        for group in range(4):
            # group g's forms lead at entry g, so no two groups are proportional
            W = [F(0)] * group + [rand_rational(rng, denom) for _ in range(group, mn)]
            W[group] = W[group] or F(1)
            base = BilinearForm.from_flat(m, n, W)
            terms.append((abs(rand_rational(rng, denom)) or F(1), base))
            if group % 2:  # two more members: a negative and a fractional multiple
                for k in (F(-2), F(1, 3)):
                    multiple = BilinearForm.from_flat(m, n, [k * v for v in W])
                    terms.append((abs(rand_rational(rng, denom)), multiple))
        rng.shuffle(terms)
        cert = SOSCertificate(m, n, tuple(terms))
        merged = merge_proportional(cert)
        assert len(merged.terms) == 4
        assert certificates_equal(merged, fraction_merge_proportional(cert))
        assert all(is_exact(w) for w, _ in merged.terms)
        assert fraction_expand_certificate(merged).rows == fraction_expand_certificate(cert).rows

    def test_singletons_with_unit_lead_keep_their_weight(self):
        m, n = 3, 3
        cert = SOSCertificate(m, n, tuple(term for v in range(1, 5) for term in vertex_sos(v, m, n).terms))
        merged = merge_proportional(cert)
        assert certificates_equal(merged, cert)
        assert certificates_equal(merged, fraction_merge_proportional(cert))


class TestWeightSign:
    @pytest.mark.parametrize("weight", [F(-1, 10**6), F(-1), -1, np.int64(-1), "-1/1000000"])
    def test_negative_weight_refused(self, weight):
        form = BilinearForm(2, 2, [[1, 0], [0, 1]])
        with pytest.raises(ValueError, match="is negative"):
            SOSCertificate(2, 2, ((F(1), form), (weight, form)))

    @pytest.mark.parametrize("weight", [F(0), F(1, 10**6), 0, np.int64(3), "0/5"])
    def test_nonnegative_weight_accepted(self, weight):
        form = BilinearForm(2, 2, [[1, 0], [0, 1]])
        cert = SOSCertificate(2, 2, ((weight, form),))
        assert cert.terms[0][0] == F(weight) and is_exact(cert.terms[0][0])


class TestCommonDenominatorSlots:
    def test_python_int_parts_from_any_entry(self):
        values = [F(np.int64(3), np.int64(4)), np.int64(-5), 2, F(-1, 6), F(2**70, 3), True]
        nums, D = exactla.common_denominator(values)
        assert D == 12 and type(D) is int
        assert nums == [9, -60, 24, -2, 2**72, 12]
        assert all(type(v) is int for v in nums)

    def test_numpy_parts_do_not_overflow(self):
        # int64 numerators times D // den overflow unless read as Python ints
        nums, D = exactla.common_denominator([F(np.int64(2**62), np.int64(3)), F(1, 2**40)])
        assert D == 3 * 2**40 and nums == [2**102, 3]
