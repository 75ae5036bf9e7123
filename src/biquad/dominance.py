"""Diagonal dominance: flattening, the row-bound test, and the explicit
square certificate a diagonally dominated tensor always admits.

The flattening pairs z[(i,j)] = x_i y_j and rewrites the form as z^T M z with
M[(i,j),(k,l)] = a[i,j,k,l]. Diagonal dominance of the tensor (each diagonal
entry at least its row bound r_ij) is exactly diagonal dominance of M, and a
diagonally dominant symmetric matrix with nonnegative diagonal splits into
     sum_p alpha_p e_p e_p^T  +  sum_{p<q} beta_pq (e_p + s_pq e_q)(...)^T,
whose terms pull back to squares of the bilinear forms x_i y_j and
x_i y_j + s x_k y_l.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

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
    "flatten",
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


def flatten(t: SymmetricBiquadraticTensor) -> np.ndarray:
    """The (mn) x (mn) flattening M of a symmetric tensor, a read-only view of
    its entries.

    Rows and columns are indexed by pairs (i, j) in row-major order
    (i-1)*n + j (1-based convention). M is symmetric and carries the extra
    internal symmetry M[(i,j),(k,l)] = M[(i,l),(k,j)].
    """
    mn = t.m * t.n
    return t.entries.reshape(mn, mn)


def offdiag_row_sums(M: np.ndarray) -> np.ndarray:
    """Off-diagonal absolute row sums sum_{q != p} |M[p,q]|, one per row p.

    For a symmetric tensor the sum at row p = (i-1)*n + (j-1) is the row
    bound r_ij of the paper's dominance condition.
    """
    return np.abs(M).sum(axis=1) - np.abs(M.diagonal())


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
    return offdiag_row_sums(flatten(t))[(i - 1) * t.n + (j - 1)]


def dominance_violations(M: np.ndarray) -> list[tuple[int, Fraction, Fraction]]:
    """(p, M[p,p], bound) for each row p whose diagonal is below its
    off-diagonal absolute row sum; p is the 0-based flat index (i*n + j)."""
    return [(p, M[p, p], bound) for p, bound in enumerate(offdiag_row_sums(M))
            if M[p, p] < bound]


def is_diagonally_dominated(t: SymmetricBiquadraticTensor) -> bool:
    """True iff a[i,j,i,j] >= r_ij for every (i, j)."""
    return not dominance_violations(flatten(t))


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
    """
    M = flatten(t)
    alphas = M.diagonal() - offdiag_row_sums(M)
    if any(alpha < 0 for alpha in alphas):
        raise NotDiagonallyDominantError(dominance_violations(M))
    m, n = t.m, t.n
    zero = np.full((m, n), ZERO, dtype=object)
    terms = []
    for p, q in itertools.combinations(range(m * n), 2):
        if M[p, q] != 0:
            W = zero.copy()
            W[divmod(p, n)] = ONE
            W[divmod(q, n)] = ONE if M[p, q] > 0 else MINUS_ONE
            terms.append((abs(M[p, q]), BilinearForm(m, n, W)))
    for p, alpha in enumerate(alphas):
        if alpha != 0:
            terms.append((alpha, BilinearForm.unit(m, n, *divmod(p, n))))
    return SOSCertificate(m, n, tuple(terms))
