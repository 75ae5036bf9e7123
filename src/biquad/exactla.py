"""Small exact-rational linear algebra: dense solves and pivoted LDL^T.

Results are decisions, not tolerances: inputs and outputs are
``fractions.Fraction`` scalars. Inside, the hot paths avoid Fraction
arithmetic, whose every operation pays an object allocation and a gcd.
``common_denominator`` writes a sequence of rationals as Python-int
numerators over one denominator, and ``ldlt_psd`` eliminates on such an
integer matrix B over a scalar denominator q (the true matrix is B / q).
A pivot step is fraction-free, B' = d B - col col^T and q' = q d, in the
manner of Bareiss (1968); dividing B' and q' by their common gcd after each
step keeps the entries at the size of the reduced Schur complement, where
a fixed common denominator would grow as d^k. The small dense solver stays
plain Gaussian elimination on Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = ["common_denominator", "pairs_over_lcm", "solve_linear", "LDLTerm", "LDLResult", "ldlt_psd"]


def common_denominator(values) -> tuple[list[int], int]:
    """Write rationals (Fractions or ints) as integers over one denominator.

    Returns (numerators, D) with D the lcm of the denominators, so that
    values[k] == numerators[k] / D. This is where the exact layer turns
    Fractions into integers.
    """
    return pairs_over_lcm([(v.numerator, v.denominator) for v in values])


def pairs_over_lcm(pairs) -> tuple[list[int], int]:
    """``common_denominator`` of rationals given as (numerator, denominator)
    int pairs with positive denominators, none of them built as a Fraction."""
    D = math.lcm(*(den for _, den in pairs))
    return [num * (D // den) for num, den in pairs], D


def solve_linear(A, b) -> list[Fraction]:
    """Solve A x = b exactly by Gaussian elimination with partial pivoting.

    A is an n x n nested sequence (or object array) of Fractions, b a length-n
    sequence. Raises ValueError if A is singular.
    """
    n = len(b)
    M = [[Fraction(A[r][c]) for c in range(n)] + [Fraction(b[r])] for r in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular linear system")
        M[col], M[pivot] = M[pivot], M[col]
        prow = M[col]
        for r in range(col + 1, n):
            factor = M[r][col] / prow[col]
            if factor == 0:
                continue
            for c in range(col, n + 1):
                M[r][c] -= factor * prow[c]
    x = [Fraction(0)] * n
    for r in range(n - 1, -1, -1):
        acc = M[r][n] - sum(M[r][c] * x[c] for c in range(r + 1, n))
        x[r] = acc / M[r][r]
    return x


@dataclass(frozen=True)
class LDLTerm:
    """One rank-1 term pivot * v v^T of a PSD factorization (v has a unit
    leading coefficient at the pivot index)."""

    pivot: Fraction
    vector: tuple


@dataclass(frozen=True)
class LDLResult:
    """Outcome of the pivoted PSD factorization attempt.

    ``ok`` means M = sum_k pivot_k v_k v_k^T with every pivot > 0:
    elimination stops at the first zero pivot, where the remaining block is
    zero, so no zero pivot is ever emitted. On failure, ``failure`` is
    either ``negative_pivot`` (a principal 1x1 minor went negative during
    elimination) or ``zero_diagonal_nonzero_row`` (a zero diagonal with a
    surviving off-diagonal entry, which no PSD matrix allows); ``index`` and
    ``value`` locate the violation.
    """

    ok: bool
    terms: tuple = ()
    failure: str | None = None
    index: int | None = None
    value: Fraction | None = None


def ldlt_psd(M: np.ndarray) -> LDLResult:
    """Pivoted exact LDL^T of a symmetric rational matrix, as a PSD test.

    Pivots greedily on the largest remaining diagonal entry (the lowest
    index among ties). Succeeds iff M is positive semidefinite; the returned
    terms reconstruct M exactly.
    """
    N = M.shape[0]
    nums, q = common_denominator(np.asarray(M, dtype=object).reshape(-1))
    B = np.array(nums, dtype=object).reshape(N, N)
    if not bool((B == B.T).all()):
        raise ValueError("matrix is not symmetric")
    # B is the Schur complement on the rows ``active`` (original indices,
    # ascending); the true entries are B / q with q > 0, so comparisons and
    # signs of B are those of the true entries.
    active = list(range(N))
    terms = []
    lower = np.tril_indices(N)
    while active:
        k = max(range(len(active)), key=lambda r: (B[r, r], -r))
        d = B[k, k]
        if d < 0:
            return LDLResult(False, tuple(terms), "negative_pivot", active[k], Fraction(d, q))
        if d == 0:
            # All remaining diagonals are <= 0 here; a PSD matrix with a zero
            # diagonal entry has the whole row zero.
            for r in range(len(active)):
                if B[r, r] < 0:
                    return LDLResult(False, tuple(terms), "negative_pivot", active[r], Fraction(B[r, r], q))
            for (r, _), v in np.ndenumerate(B):
                if v != 0:
                    return LDLResult(False, tuple(terms), "zero_diagonal_nonzero_row",
                                     active[r], Fraction(v, q))
            break
        vec = [Fraction(0)] * N
        for r, v in zip(active, B[:, k]):
            if v != 0:
                vec[r] = Fraction(v, d)
        terms.append(LDLTerm(Fraction(d, q), tuple(vec)))
        del active[k]
        keep = np.arange(len(active) + 1) != k
        col = B[keep, k]
        # B' = d B - col col^T over q' = q d, reduced by the gcd of q' and
        # every entry. When the next pivot is negative its diagonal alone
        # decides the failure, so the full update is skipped.
        diag = B.diagonal()[keep] * d - col * col
        r = max(range(len(active)), key=lambda r: (diag[r], -r), default=None)
        if r is not None and diag[r] < 0:
            return LDLResult(False, tuple(terms), "negative_pivot", active[r], Fraction(diag[r], q * d))
        # B' is symmetric: compute its lower triangle (the leading entries of
        # ``lower``, row by row) and mirror it, which halves the big-integer work.
        B = B[np.ix_(keep, keep)]
        size = len(active) * (len(active) + 1) // 2
        rows, cols = lower[0][:size], lower[1][:size]
        tri = B[rows, cols] * d - col[rows] * col[cols]
        q *= d
        g = math.gcd(q, *tri)
        if g != 1:
            tri //= g
            q //= g
        B[rows, cols] = tri
        B[cols, rows] = tri
    return LDLResult(True, tuple(terms))
