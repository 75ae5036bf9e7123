"""Small exact-rational linear algebra: dense solves and pivoted LDL^T.

Results are decisions, not tolerances: inputs and outputs are
``fractions.Fraction`` scalars. Inside, the hot paths avoid Fraction
arithmetic, whose every operation pays an object allocation and a gcd.
``common_denominator`` writes a sequence of rationals as Python-int
numerators over one denominator: it reads a Fraction's slots where both
parts are Python ints and applies ``int`` to the parts of anything else
(``core.rational``'s rule). ``ldlt_psd`` eliminates on those integers as
plain lists of Python-int rows B (the lower triangle) over a scalar
denominator q, the true matrix being B / q; numpy object arrays cost more in
indexing than the arithmetic does.
A pivot step is fraction-free, B' = d B - col col^T and q' = q d, in the
manner of Bareiss (1968); dividing B' and q' by their common gcd after each
step keeps the entries at the size of the reduced Schur complement, where
a fixed common denominator would grow as d^k. The small dense solver stays
plain Gaussian elimination on Fractions.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import chain

__all__ = ["common_denominator", "pairs_over_lcm", "solve_linear", "LDLTerm", "LDLResult", "ldlt_psd"]


def common_denominator(values) -> tuple[list[int], int]:
    """Write rationals (Fractions or ints) as integers over one denominator.

    Returns (numerators, D) with D the lcm of the denominators, so that
    values[k] == numerators[k] / D. This is where the exact layer turns
    Fractions into integers, as Python ints by ``core.rational``'s rule: a
    Fraction with two Python-int parts is read from its slots (its
    properties cost four times as much), and anything else (an int, a numpy
    integer, a Fraction with a numpy-integer part) through ``int`` of its
    parts, which would overflow in the products that follow.
    """
    return pairs_over_lcm([(v._numerator, v._denominator)
                           if type(v) is Fraction and type(v._numerator) is int is type(v._denominator)
                           else (int(v.numerator), int(v.denominator)) for v in values])


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


class LDLTerm(namedtuple("LDLTerm", "pivot vector")):
    """One rank-1 term pivot * v v^T of a PSD factorization (v has a unit
    leading coefficient at the pivot index)."""

    __slots__ = ()


class LDLResult(namedtuple("LDLResult", "ok terms failure index value", defaults=((), None, None, None))):
    """Outcome of the pivoted PSD factorization attempt.

    ``ok`` means M = sum_k pivot_k v_k v_k^T with every pivot > 0:
    elimination stops at the first zero pivot, where the remaining block is
    zero, so no zero pivot is ever emitted. On failure, ``failure`` is
    either ``negative_pivot`` (a principal 1x1 minor went negative during
    elimination) or ``zero_diagonal_nonzero_row`` (a zero diagonal with a
    surviving off-diagonal entry, which no PSD matrix allows); ``index`` and
    ``value`` locate the violation.
    """

    __slots__ = ()


def ldlt_psd(M) -> LDLResult:
    """Pivoted exact LDL^T of a symmetric rational matrix, as a PSD test.

    M is its rows (nested sequences or a numpy array) of Fractions or ints.
    Pivots greedily on the largest remaining diagonal entry (the lowest
    index among ties). Succeeds iff M is positive semidefinite; the returned
    terms reconstruct M exactly.
    """
    N = len(M)
    nums, q = common_denominator(chain.from_iterable(M))
    rows = [nums[r * N:(r + 1) * N] for r in range(N)]
    if rows != [list(col) for col in zip(*rows)]:
        raise ValueError("matrix is not symmetric")
    # B holds the lower triangle (row r: columns 0..r) of the Schur complement
    # on the rows ``active`` (original indices, ascending), which halves the
    # big-integer work; the true entries are B / q with q > 0, so comparisons
    # and signs of B are those of the true entries.
    B = [row[:r + 1] for r, row in enumerate(rows)]
    active = list(range(N))
    terms = []
    while B:
        diag = [row[-1] for row in B]
        d = max(diag)
        k = diag.index(d)
        if d < 0:
            return LDLResult(False, tuple(terms), "negative_pivot", active[k], Fraction(d, q))
        if d == 0:
            # All remaining diagonals are <= 0 here; a PSD matrix with a zero
            # diagonal entry has the whole row zero.
            for r, v in enumerate(diag):
                if v < 0:
                    return LDLResult(False, tuple(terms), "negative_pivot", active[r], Fraction(v, q))
            for r, row in enumerate(B):
                for v in row + [below[r] for below in B[r + 1:]]:
                    if v:
                        return LDLResult(False, tuple(terms), "zero_diagonal_nonzero_row",
                                         active[r], Fraction(v, q))
            break
        col = B[k] + [row[k] for row in B[k + 1:]]
        vec = [Fraction(0)] * N
        for r, v in zip(active, col):
            if v:
                vec[r] = Fraction(v, d)
        terms.append(LDLTerm(Fraction(d, q), tuple(vec)))
        del active[k], col[k], B[k]
        for row in B[k:]:
            del row[k]
        # B' = d B - col col^T over q' = q d (zip stops each row at its
        # diagonal), reduced by the gcd of q' and every entry. When the next
        # pivot is negative its diagonal alone decides the failure, so the
        # full update is skipped.
        diag = [row[-1] * d - c * c for row, c in zip(B, col)]
        if diag and max(diag) < 0:
            r = diag.index(max(diag))
            return LDLResult(False, tuple(terms), "negative_pivot", active[r], Fraction(diag[r], q * d))
        B = [[b * d - c * e for b, e in zip(row, col)] for row, c in zip(B, col)]
        q *= d
        g = math.gcd(q, *chain.from_iterable(B))
        if g != 1:
            B = [[v // g for v in row] for row in B]
            q //= g
    return LDLResult(True, tuple(terms))
