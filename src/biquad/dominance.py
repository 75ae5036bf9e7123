"""Diagonal dominance: the row-bound test, and the explicit square
certificate a diagonally dominated tensor always admits.

The flattening pairs z[(i,j)] = x_i y_j and rewrites the form as z^T M z with
M[(i,j),(k,l)] = a[i,j,k,l], which a tensor stores as its ``rows``. Diagonal
dominance of the tensor (each diagonal entry at least its row bound r_ij) is
exactly diagonal dominance of M, and a diagonally dominant symmetric matrix
with nonnegative diagonal splits into
     sum_p alpha_p e_p e_p^T  +  sum_{p<q} beta_pq (e_p + s_pq e_q)(...)^T,
whose terms pull back to squares of the bilinear forms x_i y_j and
x_i y_j + s x_k y_l.
"""

from __future__ import annotations

from fractions import Fraction

from . import exactla
from .core import (
    MINUS_ONE,
    ONE,
    ZERO,
    BilinearForm,
    SOSCertificate,
    SymmetricBiquadraticTensor,
)

__all__ = [
    "NotDiagonallyDominantError",
    "offdiag_row_sums",
    "row_bound",
    "dominance_violations",
    "is_diagonally_dominated",
    "dd_sos_decompose",
]


class NotDiagonallyDominantError(ValueError):
    """Raised when a dominance decomposition is asked of a non-dominant input.

    ``violations`` lists (p, diagonal, off_row_sum) for each violating row,
    with p the 0-based flat index (i*n + j).
    """

    def __init__(self, violations):
        self.violations = tuple(violations)
        rows = ", ".join(f"row {p}: diag {d} < bound {r}" for p, d, r in self.violations)
        super().__init__(f"matrix is not diagonally dominant with nonnegative diagonal ({rows})")


def offdiag_row_sums(M) -> list[Fraction]:
    """Off-diagonal absolute row sums sum_{q != p} |M[p][q]|, one per row p.

    For a symmetric tensor the sum at row p = (i-1)*n + (j-1) is the row
    bound r_ij of the paper's dominance condition. Each row is summed in
    integers, its entries written over their common denominator D
    (``exactla.common_denominator``), and becomes one Fraction(S, D).
    """
    sums = []
    for p, row in enumerate(M):
        nums, D = exactla.common_denominator(row)
        sums.append(Fraction(sum(map(abs, nums)) - abs(nums[p]), D))
    return sums


def row_bound(t: SymmetricBiquadraticTensor, i: int, j: int) -> Fraction:
    """Row bound r_ij (1-based i, j):

        r_ij = 1/2 * sum_{i2} ( sum_{j2} |abar[i,j,i2,j2]| + sum_{j1} |abar[i,j1,i2,j]| )

    where abar zeroes the diagonal occurrence: abar[i,j,i2,j2] = 0 when
    (i2,j2) = (i,j), and abar[i,j1,i2,j] = 0 when (i2,j1) = (i,j). Symmetry
    makes the two families equal, so this is the off-diagonal absolute row
    sum of the flattening at row (i,j).
    """
    if not (1 <= i <= t.m) or not (1 <= j <= t.n):
        raise IndexError(f"(i, j) = ({i}, {j}) out of range for ({t.m}, {t.n})")
    return offdiag_row_sums(t.rows)[(i - 1) * t.n + (j - 1)]


def dominance_violations(M) -> list[tuple[int, Fraction, Fraction]]:
    """(p, M[p][p], bound) for each row p whose diagonal is below its
    off-diagonal absolute row sum; p is the 0-based flat index (i*n + j)."""
    return [(p, M[p][p], bound) for p, bound in enumerate(offdiag_row_sums(M))
            if M[p][p] < bound]


def is_diagonally_dominated(t: SymmetricBiquadraticTensor) -> bool:
    """True iff a[i,j,i,j] >= r_ij for every (i, j)."""
    return not dominance_violations(t.rows)


def dd_sos_decompose(t: SymmetricBiquadraticTensor) -> SOSCertificate:
    """Square certificate for a diagonally dominated symmetric tensor.

    The flattening M splits into weighted unit and pair rank-1 terms: for
    each p < q with M[p,q] != 0 the pair term beta (e_p + s e_q)(e_p + s e_q)^T
    with beta = |M[p,q]| and s = sign(M[p,q]), and for each p the unit term
    alpha_p e_p e_p^T with alpha_p = M[p,p] - sum_{q != p} |M[p,q]| >= 0.
    Pair terms come first (lexicographic in the flat index pair), then the
    unit terms; zero weights are dropped. The expansion of the result equals
    ``t`` exactly. Raises :class:`NotDiagonallyDominantError` (identifying the
    violating rows) when ``t`` is not diagonally dominated.

    Zero tests and signs read each Fraction's numerator slot, and a pair
    weight is M[p,q] itself or its negation, never a call of ``abs``.
    """
    M = t.rows
    alphas = [row[p] - bound for p, (row, bound) in enumerate(zip(M, offdiag_row_sums(M)))]
    if any(alpha._numerator < 0 for alpha in alphas):
        raise NotDiagonallyDominantError(dominance_violations(M))
    m, n = t.m, t.n
    terms = []
    for p, row in enumerate(M):
        for q in range(p + 1, m * n):
            v = row[q]
            if v._numerator:
                W = [ZERO] * (m * n)
                W[p] = ONE
                W[q], weight = (ONE, v) if v._numerator > 0 else (MINUS_ONE, -v)
                terms.append((weight, BilinearForm.from_flat(m, n, W)))
    for p, alpha in enumerate(alphas):
        if alpha._numerator:
            W = [ZERO] * (m * n)
            W[p] = ONE
            terms.append((alpha, BilinearForm.from_flat(m, n, W)))
    return SOSCertificate(m, n, tuple(terms))
