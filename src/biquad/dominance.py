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

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    ZERO,
    BilinearForm,
    SOSCertificate,
    SymmetricBiquadraticTensor,
)

__all__ = [
    "FlatMatrix",
    "DDCertificateRaw",
    "NotDiagonallyDominantError",
    "flatten",
    "offdiag_row_sums",
    "row_bound",
    "dominance_violations",
    "is_diagonally_dominated",
    "dd_matrix_decompose",
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


@dataclass(frozen=True, eq=False)
class FlatMatrix:
    """(mn) x (mn) rational matrix view of a symmetric biquadratic tensor.

    Rows and columns are indexed by pairs (i, j) in row-major order
    (i-1)*n + j (1-based convention). Built from a symmetric tensor it is
    symmetric and carries the extra internal symmetry
    M[(i,j),(k,l)] = M[(i,l),(k,j)].
    """

    m: int
    n: int
    M: np.ndarray

    def __post_init__(self):
        mn = self.m * self.n
        if self.M.shape != (mn, mn):
            raise ValueError(f"flat matrix shape {self.M.shape} != ({mn}, {mn})")
        arr = np.array(self.M, dtype=object)
        arr.setflags(write=False)
        object.__setattr__(self, "M", arr)


def flatten(t: SymmetricBiquadraticTensor) -> FlatMatrix:
    """Flatten a symmetric tensor to its (mn) x (mn) matrix M."""
    if not isinstance(t, SymmetricBiquadraticTensor):
        raise TypeError("flatten requires a SymmetricBiquadraticTensor")
    mn = t.m * t.n
    return FlatMatrix(t.m, t.n, t.entries.reshape(mn, mn))


def offdiag_row_sums(flat: FlatMatrix) -> np.ndarray:
    """Off-diagonal absolute row sums sum_{q != p} |M[p,q]|, one per row p.

    For a symmetric tensor the sum at row p = (i-1)*n + (j-1) is the row
    bound r_ij of the paper's dominance condition.
    """
    M = flat.M
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


def dominance_violations(flat: FlatMatrix) -> list[tuple[int, Fraction, Fraction]]:
    """(p, M[p,p], bound) for each row p whose diagonal is below its
    off-diagonal absolute row sum; p is the 0-based flat index (i*n + j)."""
    M = flat.M
    return [(p, M[p, p], bound) for p, bound in enumerate(offdiag_row_sums(flat))
            if M[p, p] < bound]


def is_diagonally_dominated(t: SymmetricBiquadraticTensor) -> bool:
    """True iff a[i,j,i,j] >= r_ij for every (i, j)."""
    return not dominance_violations(flatten(t))


@dataclass(frozen=True)
class DDCertificateRaw:
    """Matrix-level dominance decomposition:

        M = sum_p alphas[p] e_p e_p^T
          + sum beta (e_p + s e_q)(e_p + s e_q)^T over pairs (p, q, beta, s),

    with alphas[p] >= 0, beta > 0, s in {-1, +1} and p < q (0-based flat
    indices).
    """

    size: int
    alphas: tuple
    pairs: tuple


def dd_matrix_decompose(flat: FlatMatrix) -> DDCertificateRaw:
    """Decompose a diagonally dominant symmetric matrix with nonnegative
    diagonal into weighted unit and pair rank-1 terms.

    For each unordered p < q with M[p,q] != 0: beta = |M[p,q]|,
    s = sign(M[p,q]); each alpha_p = M[p,p] - sum_{q != p} |M[p,q]|. Raises
    :class:`NotDiagonallyDominantError` (identifying the violating rows) if
    any alpha would be negative.
    """
    M = flat.M
    N = M.shape[0]
    bounds = offdiag_row_sums(flat)
    alphas = tuple(M.diagonal() - bounds)
    if any(alpha < 0 for alpha in alphas):
        raise NotDiagonallyDominantError(
            (p, M[p, p], bounds[p]) for p in range(N) if alphas[p] < 0)
    pairs = tuple((p, q, abs(M[p, q]), 1 if M[p, q] > 0 else -1)
                  for p in range(N) for q in range(p + 1, N) if M[p, q] != 0)
    return DDCertificateRaw(N, alphas, pairs)


def dd_sos_decompose(t: SymmetricBiquadraticTensor) -> SOSCertificate:
    """Square certificate for a diagonally dominated symmetric tensor.

    Pair terms come first (lexicographic in the flat index pair), then the
    residual diagonal terms; zero weights are dropped. The expansion of the
    result equals ``t`` exactly. Raises :class:`NotDiagonallyDominantError`
    when ``t`` is not diagonally dominated.
    """
    raw = dd_matrix_decompose(flatten(t))
    m, n = t.m, t.n
    terms = []
    for p, q, beta, s in raw.pairs:
        W = np.full((m, n), ZERO, dtype=object)
        W[divmod(p, n)] = Fraction(1)
        W[divmod(q, n)] = Fraction(s)
        terms.append((beta, BilinearForm(m, n, W)))
    for p, alpha in enumerate(raw.alphas):
        if alpha != 0:
            i, j = divmod(p, n)
            terms.append((alpha, BilinearForm.unit(m, n, i, j)))
    return SOSCertificate(m, n, tuple(terms))
