"""Shared test helpers: independent oracles and random rational data.

The oracles here deliberately avoid the library's own code paths: the monic
form is evaluated term by term from its defining four sums, so is the form
of any coefficient array, symmetry is checked entry by entry, invariance
under the variables' permutations by applying every pair of them, certificates are
evaluated as literal weighted squares, the dominance and B0 row quantities
are computed from their two-family tensor-index formulas, the barrier
Newton system is contracted from dense direction matrices, the Gram probe
runs its barrier to the full duality gap before it rounds, the Gram
rounding projects and factors its rounded point on Fractions, certificates are written
to JSON objects value by value, LDL^T,
certificate expansion, term merging and symmetrization are the all-Fraction
implementations the integer versions replaced, and the monic barycentric coordinates are
the scaled critical values written out, not solved from the vertex table. Tests compare library output against these.

A deterministic hypothesis profile is registered and loaded here, so the
property tests draw the same examples on every run and their count is
bounded.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import settings

from biquad import gram, kernels
from biquad.core import (
    BilinearForm,
    SOSCertificate,
    SymmetricBiquadraticTensor,
    rational_array,
    symmetrize,
)
from biquad.exactla import LDLResult, LDLTerm
from biquad.gram import GramPoint, SOSProbeResult

settings.register_profile("biquad", derandomize=True, max_examples=40, deadline=None)
settings.load_profile("biquad")


def random_rational(rng, denom=12, lo=-3, hi=3) -> Fraction:
    return Fraction(int(rng.integers(lo * denom, hi * denom + 1)), denom)


def random_rational_vector(rng, length, denom=12, lo=-3, hi=3):
    return [random_rational(rng, denom, lo, hi) for _ in range(length)]


def random_coefficients(rng, m, n, denom=8):
    """An m x n x m x n array of rationals in [-1, 1], without symmetry."""
    arr = np.empty((m, n, m, n), dtype=object)
    for idx in np.ndindex(m, n, m, n):
        arr[idx] = Fraction(int(rng.integers(-denom, denom + 1)), denom)
    return arr


def random_symmetric_tensor(rng, m, n, denom=8):
    return symmetrize(random_coefficients(rng, m, n, denom))


def coefficient_form_value(a, x, y):
    """sum_{i,j,k,l} a[i,j,k,l] x_i y_j x_k y_l, term by term, for any
    m x n x m x n coefficient array a (symmetric or not)."""
    m, n = a.shape[:2]
    return sum((a[i, j, k, l] * x[i] * y[j] * x[k] * y[l]
                for i in range(m) for j in range(n) for k in range(m) for l in range(n)),
               Fraction(0))


def has_biquadratic_symmetry(a) -> bool:
    """a[i,j,k,l] == a[k,j,i,l] == a[i,l,k,j] == a[k,l,i,j] at every index,
    checked entry by entry."""
    m, n = a.shape[:2]
    return all(a[i, j, k, l] == a[k, j, i, l] == a[i, l, k, j] == a[k, l, i, j]
               for i in range(m) for j in range(n) for k in range(m) for l in range(n))


def fixed_by_every_permutation(a) -> bool:
    """a[s(i),p(j),s(k),p(l)] == a[i,j,k,l] for every permutation s of the
    x indices and p of the y indices, each pair applied in turn."""
    m, n = a.shape[:2]
    entries = a.tolist()
    return all(a[np.ix_(s, p, s, p)].tolist() == entries
               for s in permutations(range(m)) for p in permutations(range(n)))


def with_flat_diagonal(t, diag):
    """Copy of a symmetric tensor with a[i,j,i,j] set to diag[(i-1)*n + (j-1)].

    Each diagonal entry is its own symmetry orbit, so the result stays
    symmetric.
    """
    arr = np.array(t.entries, dtype=object)
    for p, v in enumerate(diag):
        i, j = divmod(p, t.n)
        arr[i, j, i, j] = v
    return SymmetricBiquadraticTensor(t.m, t.n, arr)


# The paper states the row conditions on two families of tensor entries,
# a[i,j,i2,j2] and a[i,j1,i2,j], with the diagonal occurrence zeroed. The
# library reads rows of the flattening instead; these are the tensor-index
# formulas, kept as the reference (0-based i0, j0).

def two_family_row_bound(t, i0, j0) -> Fraction:
    """r_ij = 1/2 sum_{i2} ( sum_{j2} |abar[i,j,i2,j2]| + sum_{j1} |abar[i,j1,i2,j]| )."""
    a = t.entries
    total = Fraction(0)
    for i2 in range(t.m):
        for j2 in range(t.n):
            if (i2, j2) != (i0, j0):
                total += abs(a[i0, j0, i2, j2])
        for j1 in range(t.n):
            if (i2, j1) != (i0, j0):
                total += abs(a[i0, j1, i2, j0])
    return total / 2


def two_family_row_mean(t, i0, j0) -> Fraction:
    """S_ij = 1/2 sum_{i2} ( sum_{j2} a[i,j,i2,j2] + sum_{j1} a[i,j1,i2,j] ), signed."""
    a = t.entries
    total = Fraction(0)
    for i2 in range(t.m):
        for j2 in range(t.n):
            total += a[i0, j0, i2, j2]
        for j1 in range(t.n):
            total += a[i0, j1, i2, j0]
    return total / 2


def two_family_row_offdiag_max(t, i0, j0) -> Fraction:
    """Largest entry of both families, the diagonal occurrence counted as 0."""
    a = t.entries
    values = [Fraction(0)]
    for i2 in range(t.m):
        for j2 in range(t.n):
            if (i2, j2) != (i0, j0):
                values.append(a[i0, j0, i2, j2])
        for j1 in range(t.n):
            if (i2, j1) != (i0, j0):
                values.append(a[i0, j1, i2, j0])
    return max(values)


def two_family_is_b0(t) -> bool:
    """S_ij >= 0 and S_ij / (mn) >= the off-diagonal maximum, for every (i, j)."""
    mn = t.m * t.n
    return all(
        two_family_row_mean(t, i0, j0) >= 0
        and two_family_row_mean(t, i0, j0) / mn >= two_family_row_offdiag_max(t, i0, j0)
        for i0 in range(t.m) for j0 in range(t.n)
    )


def nonzero_terms(cert: SOSCertificate) -> tuple:
    """The (weight, form) terms of a certificate with a nonzero weight and a
    nonzero form."""
    return tuple((w, f) for (w, f) in cert.terms if w != 0 and not f.is_zero())


def ldl_pivots(res: LDLResult) -> tuple:
    """The pivots of an LDL^T result, in elimination order."""
    return tuple(t.pivot for t in res.terms)


def suspected_probe(t, max_iter, tol) -> SOSProbeResult:
    """Stand-in for ``gram.sos_probe`` that reports every tensor as
    ``infeasible_suspected``, for the sweep's fixture path."""
    return SOSProbeResult("infeasible_suspected", None, 7, GramPoint(0.5, 0.25))


def full_solve_probe(t, max_iter=5000, tol=1e-9) -> SOSProbeResult:
    """``gram.sos_probe`` without the early stop: the barrier runs until
    the duality gap is below ``tol``, then rounding walks the whole
    denominator ladder. The status rules are the probe's."""
    cert = gram.flattening_psd_check(t)
    if cert is not None:
        return SOSProbeResult("flattening_psd", cert, 0, GramPoint(0.0, 0.0))
    mn = t.m * t.n
    a4 = t.to_float()
    F = a4.reshape(mn, mn)
    dirs = kernels.gram_directions(t.m, t.n)
    shift, s, trace, bound = gram._barrier_max_min_eig(F, dirs, max_iter, tol)
    G = gram._gram_at(F, shift, dirs)
    point = GramPoint(kernels.affine_residual(G, a4), max(0.0, -float(np.linalg.eigvalsh(G)[0])))
    if s < -tol:
        status = "infeasible_suspected" if bound < -tol else "inconclusive"
        return SOSProbeResult(status, None, len(trace), point, trace)
    cert = gram._rationalize(G, t)
    status = "feasible_numerical" if cert is None else "sos_certified"
    return SOSProbeResult(status, cert, len(trace), point, trace)


def fraction_round_at(G: np.ndarray, t, denom: int):
    """``gram._round_at`` computed on Fractions: the rounded upper triangle,
    mirrored, is projected by ``kernels.project_affine`` on Fraction
    objects, and ``fraction_ldlt_psd`` factors the projected point. Its
    terms are the certificate; None when the point is not PSD."""
    m, n = t.m, t.n
    upper = np.triu_indices(m * n)
    rat = np.empty((m * n, m * n), dtype=object)
    rat[upper] = [Fraction(float(v)).limit_denominator(denom) for v in G[upper]]
    rat.T[upper] = rat[upper]
    res = fraction_ldlt_psd(kernels.project_affine(rat, t.entries))
    if not res.ok:
        return None
    return SOSCertificate(m, n, tuple(
        (term.pivot, BilinearForm(m, n, np.array(term.vector, dtype=object).reshape(m, n)))
        for term in res.terms))


def nonzero_entries(form: BilinearForm) -> list[tuple[int, int, Fraction]]:
    """(i, j, W[i, j]) for every nonzero entry of the form, row-major."""
    return [
        (i, j, form.W[i, j])
        for i in range(form.m)
        for j in range(form.n)
        if form.W[i, j] != 0
    ]


# All-Fraction reference implementations of the exact layer: every operation
# on fractions.Fraction, with no common denominator. The library computes the
# same results in integers.

def fraction_ldlt_psd(M: np.ndarray) -> LDLResult:
    """Pivoted exact LDL^T of a symmetric rational matrix, as a PSD test.

    Pivots greedily on the largest remaining diagonal entry. Succeeds iff M is
    positive semidefinite; the returned terms reconstruct M exactly.
    """
    N = M.shape[0]
    A = np.array(M, dtype=object)
    if not bool((A == A.T).all()):
        raise ValueError("matrix is not symmetric")
    active = list(range(N))
    terms = []
    while active:
        p = max(active, key=lambda r: (A[r, r], -r))
        d = A[p, p]
        if d < 0:
            return LDLResult(False, tuple(terms), "negative_pivot", p, d)
        if d == 0:
            # All remaining diagonals are <= 0 here; a PSD matrix with a zero
            # diagonal entry has the whole row zero.
            for r in active:
                if A[r, r] < 0:
                    return LDLResult(False, tuple(terms), "negative_pivot", r, A[r, r])
            for r in active:
                for c in active:
                    if A[r, c] != 0:
                        return LDLResult(False, tuple(terms), "zero_diagonal_nonzero_row", r, A[r, c])
            break
        col = {r: A[r, p] for r in active}
        vec = [Fraction(0)] * N
        for r, v in col.items():
            vec[r] = v / d
        terms.append(LDLTerm(d, tuple(vec)))
        active.remove(p)
        for r in active:
            if col[r] == 0:
                continue
            for c in active:
                if col[c] != 0:
                    A[r, c] -= col[r] * col[c] / d
    return LDLResult(True, tuple(terms))


def fraction_expand_certificate(cert: SOSCertificate) -> SymmetricBiquadraticTensor:
    """Symmetric tensor of sum_p c_p f_p(x,y)^2, by exact expansion.

    Accumulates T[i1,j1,i2,j2] += c_p W_p[i1,j1] W_p[i2,j2] over the nonzero
    entries of each form and symmetrizes. Raises on negative weights (also
    enforced at certificate construction).
    """
    acc = np.full((cert.m, cert.n, cert.m, cert.n), Fraction(0), dtype=object)
    for weight, form in cert.terms:
        if weight < 0:
            raise ValueError(f"certificate weight {weight} is negative")
        if weight == 0:
            continue
        nz = nonzero_entries(form)
        for i1, j1, w1 in nz:
            ww1 = weight * w1
            for i2, j2, w2 in nz:
                acc[i1, j1, i2, j2] += ww1 * w2
    return fraction_symmetrize(acc)


def fraction_symmetrize(arr) -> SymmetricBiquadraticTensor:
    """Symmetric representative of an m x n x m x n coefficient array: each
    entry the average of its orbit, as Fraction sums divided by 4."""
    m, n = arr.shape[:2]
    a = rational_array(arr)
    avg = (a + a.transpose(2, 1, 0, 3) + a.transpose(0, 3, 2, 1) + a.transpose(2, 3, 0, 1)) / 4
    return SymmetricBiquadraticTensor(m, n, avg)


def fraction_merge_proportional(cert: SOSCertificate) -> SOSCertificate:
    """Combine terms whose bilinear forms are proportional.

    Each form is normalized by its first nonzero entry (row-major scan);
    terms sharing a normalized form merge into a single weight
    sum_p c_p * lead_p^2. Zero weights and zero forms are dropped. The
    expansion is unchanged. This is a cheap tidy-up, not rank minimization.
    """
    groups: dict[tuple, Fraction] = {}
    order: list[tuple] = []
    reps: dict[tuple, BilinearForm] = {}
    for weight, form in cert.terms:
        if weight == 0 or form.is_zero():
            continue
        nz = nonzero_entries(form)
        lead = nz[0][2]
        key = tuple((form.W / lead).reshape(-1))
        if key not in groups:
            groups[key] = Fraction(0)
            order.append(key)
            reps[key] = BilinearForm(cert.m, cert.n, (form.W / lead).reshape(cert.m, cert.n))
        groups[key] += weight * lead * lead
    terms = tuple((groups[k], reps[k]) for k in order)
    return SOSCertificate(cert.m, cert.n, terms)


def face_barycentric(p):
    """Barycentric coordinates of (a, b, c) in the (m, n) tetrahedron, as the
    critical values (i)-(iv) each divided by its value at the one vertex where
    it does not vanish; None when any is negative (outside, not PSD)."""
    m, n = p.m, p.n
    a, b, c = p.abc
    lam = (
        (1 + (m - 1) * a + (n - 1) * b + (m - 1) * (n - 1) * c) / (m * n),
        (1 - a - b + c) * (m - 1) * (n - 1) / (m * n),
        (1 - a + (n - 1) * (b - c)) * (m - 1) / (m * n),
        (1 - b + (m - 1) * (a - c)) * (n - 1) / (m * n),
    )
    if any(w < 0 for w in lam):
        return None
    return lam


def reference_certificate_dict(c: SOSCertificate) -> dict:
    """The certificate as a JSON object, built value by value: the writer
    ``jsonio.certificate_text`` must give the canonical bytes of this."""
    terms = [{"weight": str(w), "W": [[str(v) for v in row] for row in form.W.tolist()]}
             for w, form in c.terms]
    return {"m": c.m, "n": c.n, "terms": terms}


def certificates_equal(a: SOSCertificate, b: SOSCertificate) -> bool:
    """Same dimensions and the same terms in order: equal weights and W."""
    return (a.m, a.n, len(a.terms)) == (b.m, b.n, len(b.terms)) and all(
        wa == wb and bool((fa.W == fb.W).all())
        for (wa, fa), (wb, fb) in zip(a.terms, b.terms))


def gram_direction_stack(m, n) -> np.ndarray:
    """The free directions of the Gram affine family as dense (mn, mn)
    matrices, one per i < k and j < l in lexicographic order: +1 at
    ((i,j),(k,l)) and its mirror, -1 at ((i,l),(k,j)) and its mirror."""
    mn = m * n
    mats = []
    for i in range(m):
        for k in range(i + 1, m):
            for j in range(n):
                for l in range(j + 1, n):
                    N = np.zeros((mn, mn))
                    N[i * n + j, k * n + l] = N[k * n + l, i * n + j] = 1.0
                    N[i * n + l, k * n + j] = N[k * n + j, i * n + l] = -1.0
                    mats.append(N)
    return np.array(mats).reshape(-1, mn, mn)


def dense_barrier_system(W, m, n):
    """Gradient -tr(W A_k) and Hessian tr(W A_k W A_l) of -log det(G(t) - s I)
    at W = (G(t) - s I)^-1, by einsum over the dense directions A_k, with
    A = -I for s last."""
    A = np.concatenate([gram_direction_stack(m, n), -np.eye(m * n)[None]])
    g = -np.einsum("ab,kba->k", W, A)
    H = np.einsum("ab,kbc,cd,lda->kl", W, A, W, A, optimize=True)
    return g, H


def monic_form_value(m, n, a, b, c, x, y):
    """Term-by-term evaluation of the monic symmetric form.

    Sums the four defining blocks directly:
      sum_i sum_j x_i^2 y_j^2
      + a sum_{i != k} sum_j x_i x_k y_j^2
      + b sum_i sum_{j != l} x_i^2 y_j y_l
      + c sum_{i != k} sum_{j != l} x_i y_j x_k y_l
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    t0 = sum(x[i] * x[i] * y[j] * y[j] for i in range(m) for j in range(n))
    t1 = sum(
        x[i] * x[k] * y[j] * y[j]
        for i in range(m) for k in range(m) if i != k
        for j in range(n)
    )
    t2 = sum(
        x[i] * x[i] * y[j] * y[l]
        for i in range(m)
        for j in range(n) for l in range(n) if j != l
    )
    t3 = sum(
        x[i] * y[j] * x[k] * y[l]
        for i in range(m) for k in range(m) if i != k
        for j in range(n) for l in range(n) if j != l
    )
    return t0 + a * t1 + b * t2 + c * t3


def bilinear_form(m, n, data) -> BilinearForm:
    """The m x n form with coefficient rows ``data`` (ints, Fractions or
    "p/q" strings), each coerced to a Fraction."""
    return BilinearForm(m, n, rational_array(data))


def certificate_value(cert, x, y):
    """sum_p c_p * (sum_ij W_p[i,j] x_i y_j)^2, computed literally."""
    total = Fraction(0)
    for w, form in cert.terms:
        f = sum(form.W[i, j] * x[i] * y[j] for i in range(cert.m) for j in range(cert.n))
        total += w * f * f
    return total


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
