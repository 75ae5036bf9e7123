"""Monic symmetric biquadratic forms: PSD classification, the parameter
tetrahedron, and constructive square certificates.

A monic symmetric form is determined by (m, n, a, b, c). Its nonnegativity is
equivalent to four linear inequalities (i)-(iv) in (a, b, c) (plus one
rational inequality that turns out to be redundant). The feasible set is the
tetrahedron of four explicit vertices; each of (i)-(iv) vanishes on a facet
and, scaled, is a barycentric coordinate. Each vertex carries a short
closed-form square certificate; any point inherits their barycentric mix,
as does a PSD tensor fixed by all permutations of x and y, scaled by d > 0.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from itertools import chain

from . import exactla
from .core import (
    MINUS_ONE,
    ONE,
    ZERO,
    BilinearForm,
    MonicParams,
    SOSCertificate,
    SymmetricBiquadraticTensor,
    monic_to_tensor,
    permutation_invariant,
    tensors_equal,
)

__all__ = [
    "CONDITION_LABELS",
    "m_eigen_monic",
    "psd_conditions",
    "tetrahedron",
    "barycentric",
    "membership_equivalence_check",
    "vertex_sos",
    "monic_sos_decompose",
    "symmetric_sos_decompose",
    "merge_proportional",
    "monic_to_tensor",
]

CONDITION_LABELS = ("i", "ii", "iii", "iv", "v")


def m_eigen_monic(p: MonicParams) -> dict[str, Fraction | None]:
    """Closed-form critical values of the monic form with parameters p, by
    label 'i'..'v':

        (i)   1 - b + (m-1)(a - c)
        (ii)  1 - a + (n-1)(b - c)
        (iii) 1 - a - b + c
        (iv)  1 + (m-1)a + (n-1)b + (m-1)(n-1)c
        (v)   1 - ab/c, or None where inapplicable.

    (v) applies only when c != 0 and a/c in [1-n, 1) and b/c in [1-m, 1) (the
    range in which the interior critical pair with alpha_x^2 = (c-b)/c,
    alpha_y^2 = (c-a)/c exists on the spheres). Each value is the form value
    at a specific unit-sphere pair, so the form is PSD iff every value that
    is not None is nonnegative.
    """
    m, n = p.m, p.n
    a, b, c = p.abc
    vals = [
        ONE - b + (m - 1) * (a - c),
        ONE - a + (n - 1) * (b - c),
        ONE - a - b + c,
        ONE + (m - 1) * a + (n - 1) * b + (m - 1) * (n - 1) * c,
    ]
    v_applies = (
        c != 0
        and Fraction(1 - n) <= a / c < 1
        and Fraction(1 - m) <= b / c < 1
    )
    vals.append(ONE - a * b / c if v_applies else None)
    return dict(zip(CONDITION_LABELS, vals))


def psd_conditions(p: MonicParams) -> tuple[bool, dict[str, Fraction | None]]:
    """Decide PSD-ness of the monic form; returns (verdict, the critical
    values of ``m_eigen_monic``)."""
    report = m_eigen_monic(p)
    return all(v >= 0 for v in report.values() if v is not None), report


def tetrahedron(m: int, n: int) -> tuple:
    """The PSD parameter region of monic (m, n) forms, as its four vertices
    (V1, V2, V3, V4) of (a, b, c):

        V1 = (1, 1, 1)
        V2 = (-1/(m-1), -1/(n-1), 1/((m-1)(n-1)))
        V3 = (-1/(m-1), 1, -1/(m-1))
        V4 = (1, -1/(n-1), -1/(n-1))

    The vertices are affinely independent for all m, n >= 2.
    """
    if m < 2 or n < 2:
        raise ValueError(f"tetrahedron needs m, n >= 2, got ({m}, {n})")
    im = Fraction(1, m - 1)
    jn = Fraction(1, n - 1)
    return (
        (ONE, ONE, ONE),
        (-im, -jn, im * jn),
        (-im, ONE, -im),
        (ONE, -jn, -jn),
    )


def barycentric(p: MonicParams):
    """Barycentric coordinates of (a, b, c) in the (m, n) tetrahedron.

    Solves the exact 4x4 system [V1..V4; 1 1 1 1] lam = [(a,b,c); 1] (unique
    by affine independence) and returns the tuple lam when every coordinate
    is >= 0, else None: the point lies outside, i.e. the form is not PSD.

    Equivalently lam = ((iv)/mn, (iii)(m-1)(n-1)/mn, (ii)(m-1)/mn,
    (i)(n-1)/mn) in the critical values of ``m_eigen_monic``: each is affine,
    vanishes at three vertices, and equals its denominator at the fourth
    ((iv) = mn at V1, (iii) = mn/((m-1)(n-1)) at V2, (ii) = mn/(m-1) at V3,
    (i) = mn/(n-1) at V4). The solve stays independent of that formula so
    that ``membership_equivalence_check`` compares two derivations.
    """
    A = [list(coords) for coords in zip(*tetrahedron(p.m, p.n))]  # rows a, b, c
    A.append([ONE] * 4)
    lam = exactla.solve_linear(A, [p.a, p.b, p.c, ONE])
    if any(w < 0 for w in lam):
        return None
    return tuple(lam)


def membership_equivalence_check(p: MonicParams) -> bool:
    """Audit that the inequality classifier and tetrahedron membership agree.

    Returns True iff psd_conditions(p) and (barycentric(p) is not None) give
    the same verdict: the first reads the closed-form critical values, the
    second solves against the vertex table, so a wrong formula or a wrong
    vertex makes them disagree somewhere. Additionally enforces the
    redundancy of condition (v): if (i)-(iv) all hold, (v) must hold too; a
    violation would contradict the convexity argument behind the vertex
    certificates, so it raises.
    """
    psd, report = psd_conditions(p)
    inside = barycentric(p) is not None
    first_four = all(report[lab] >= 0 for lab in CONDITION_LABELS[:4])
    if first_four and report["v"] is not None and report["v"] < 0:
        raise RuntimeError(f"condition (v) violated inside the tetrahedron at {p}")
    return psd == inside


# the exact entries -1, 0, 1 of the sign forms, indexed by sign + 1
_SIGNS = (MINUS_ONE, ZERO, ONE)


def _sign_vectors(size: int, differences: bool) -> list[list[int]]:
    """Integer [e_i - e_k over i < k, lexicographic] if ``differences``, else [ones]."""
    if differences:
        return [[(r == i) - (r == k) for r in range(size)]
                for i, k in itertools.combinations(range(size), 2)]
    return [[1] * size]


def _sign_forms(m: int, n: int, dx: bool, dy: bool) -> list[BilinearForm]:
    """The forms u(x) v(y), u over ``_sign_vectors(m, dx)`` and v over
    ``_sign_vectors(n, dy)``: W is the outer product of two sign vectors."""
    by_sign = [{s: [_SIGNS[s * w + 1] for w in v] for s in (-1, 0, 1)}  # row of W for x-sign s
               for v in _sign_vectors(n, dy)]
    return [BilinearForm.from_flat(m, n, chain.from_iterable(map(rows.__getitem__, u)))
            for u in _sign_vectors(m, dx) for rows in by_sign]


def vertex_sos(v: int, m: int, n: int) -> SOSCertificate:
    """Closed-form square certificate of tetrahedron vertex v (1-based).

        V1: ( sum_i x_i * sum_j y_j )^2, weight 1
        V2: ((x_i - x_k)(y_j - y_l))^2 over i<k, j<l, weights 1/((m-1)(n-1))
        V3: ((x_i - x_k) * sum_j y_j)^2 over i<k, weights 1/(m-1)
        V4: ( sum_i x_i * (y_j - y_l))^2 over j<l, weights 1/(n-1)

    Each W is an outer product of sign vectors: primitive, entries 0 and +-1,
    leading entry +1, and no two forms (of one vertex or two) proportional.
    The expansion equals monic_to_tensor of the vertex parameters exactly.
    """
    if m < 2 or n < 2:
        raise ValueError(f"vertex certificates need m, n >= 2, got ({m}, {n})")
    if v not in (1, 2, 3, 4):
        raise ValueError(f"vertex id must be 1..4, got {v}")
    dx, dy = v in (2, 3), v in (2, 4)  # differences in x, in y
    weight = Fraction(1, (m - 1 if dx else 1) * (n - 1 if dy else 1))
    return SOSCertificate(m, n, tuple((weight, form) for form in _sign_forms(m, n, dx, dy)))


def merge_proportional(cert: SOSCertificate) -> SOSCertificate:
    """Combine terms whose bilinear forms are proportional.

    Terms are grouped by the primitive integer vector of W, signed so that
    its first nonzero entry (row-major scan) is positive. A group becomes
    one term: its first member's form divided by that entry lead_p (kept
    as it is when lead_p is 1), with weight sum_p c_p * lead_p^2. Zero
    weights and zero forms are dropped. The expansion is unchanged. This is
    a cheap tidy-up, not rank minimization.
    """
    groups: dict[tuple, Fraction] = {}
    reps: dict[tuple, BilinearForm] = {}
    for weight, form in cert.terms:
        if weight == 0:
            continue
        values = list(chain.from_iterable(form.rows))
        u, _ = exactla.common_denominator(values)
        k = next((k for k, v in enumerate(u) if v), None)
        if k is None:  # the zero form
            continue
        g = math.gcd(*u) if u[k] > 0 else -math.gcd(*u)
        key = tuple(v // g for v in u)
        lead = values[k]
        if key not in groups:
            groups[key] = Fraction(0)
            reps[key] = form if lead == 1 else BilinearForm.from_flat(
                cert.m, cert.n, [v / lead for v in values])
        groups[key] += weight if lead == 1 else weight * lead * lead
    return SOSCertificate(cert.m, cert.n, tuple((groups[k], reps[k]) for k in groups))


def monic_sos_decompose(p: MonicParams) -> SOSCertificate | None:
    """Square certificate for a PSD monic form, or None when not PSD.

    Writes (a, b, c) as a convex combination of the tetrahedron vertices and
    concatenates the vertex certificates with weights scaled by the
    barycentric coordinates (zero-coordinate vertices are skipped), then
    merges proportional terms. No two vertex forms are proportional
    (``vertex_sos``), so the merge pass returns its input unchanged.
    The expansion equals monic_to_tensor(p).
    """
    lam = barycentric(p)
    if lam is None:
        return None
    return merge_proportional(SOSCertificate(p.m, p.n, tuple(
        (weight * w, form)
        for v, weight in enumerate(lam, start=1) if weight != 0
        for w, form in vertex_sos(v, p.m, p.n).terms)))


def symmetric_sos_decompose(t: SymmetricBiquadraticTensor) -> SOSCertificate | None:
    """Square certificate for any PSD tensor of a fully symmetric form.

    Requires the tensor to be the ``permutation_invariant`` tensor of its
    own entries d, a, b, c (raises otherwise). d < 0 means not PSD (None);
    d = 0 forces the zero form (an empty certificate) unless some entry is
    nonzero (None). For d > 0 and m, n >= 2 it scales to the monic case,
    decomposes there and scales the weights back by d. For m = 1 the form
    is x_1^2 q(y), q = d sum_j y_j^2 + b sum_{j != l} y_j y_l, and

        q = (d + (n-1) b)/n (sum_j y_j)^2 + (d - b)/n sum_{j<l} (y_j - y_l)^2,

    so the certificate is those weights on (x_1 sum_j y_j)^2 and on each
    (x_1 (y_j - y_l))^2, and None when either weight is negative (q then
    has a negative eigenvalue). n = 1 mirrors it with a and x; 1 x 1 is
    d (x_1 y_1)^2.
    """
    m, n = t.m, t.n
    d, b, a, c = (t.rows[0][q] for q in (0, n - 1, (m - 1) * n, m * n - 1))
    if not tensors_equal(t, permutation_invariant(m, n, d, a, b, c)):
        raise ValueError("tensor is not x- and y-permutation symmetric")
    if d <= 0:
        return SOSCertificate(m, n, ()) if t.is_zero() else None
    if m == 1 or n == 1:
        size, off = (n, b) if m == 1 else (m, a)
        whole, apart = (d + (size - 1) * off) / size, (d - off) / size
        if whole < 0 or apart < 0:
            return None
        return SOSCertificate(m, n, tuple(
            (w, form) for w, dx, dy in ((whole, False, False), (apart, n == 1, m == 1)) if w != 0
            for form in _sign_forms(m, n, dx, dy)))
    cert = monic_sos_decompose(MonicParams(m, n, a / d, b / d, c / d))
    return None if cert is None else SOSCertificate(m, n, tuple((d * w, f) for w, f in cert.terms))
