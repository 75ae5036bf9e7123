"""Structured tensor classes: identity, Z-, M-, and B0-membership, plus the
random generators used for conjecture sweeps and test corpora.

The M-tensor check is only partially decidable here: a Z-tensor splits as
alpha*I - B with B entrywise nonnegative, and membership asks
alpha >= lambda_max(B), the largest critical value of B on unit spheres. We
estimate lambda_max by alternating ascent, which yields a certified *lower*
bound only, so the verdict is three-valued (yes / no / unknown).
Every test reads the rows of the flattening of a symmetric tensor; each
generator builds a class member by construction.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import chain
from operator import add

from . import kernels
from .core import (
    ONE,
    ZERO,
    SymmetricBiquadraticTensor,
    permutation_invariant,
    symmetrize,
)
from .dominance import is_diagonally_dominated, offdiag_row_sums

__all__ = [
    "MTensorReport",
    "ClassReport",
    "m_identity",
    "is_z_tensor",
    "z_split",
    "lambda_max_estimate",
    "is_b0_tensor",
    "classify",
    "gen_tensor",
    "GENERATOR_CLASSES",
]

# The gap between alpha and classify's ascent estimate below which the
# M-tensor verdict is 'unknown'.
MARGIN = 1e-6

# Generated entries are multiples of 1/DENOM.
DENOM = 8


def m_identity(m: int, n: int) -> SymmetricBiquadraticTensor:
    """Identity for the class: I[i,j,k,l] = 1 iff i = k and j = l.

    Its form is (sum x_i^2)(sum y_j^2), identically 1 on unit spheres, and
    its flattening is the (mn) x (mn) identity matrix.
    """
    return permutation_invariant(m, n, ONE, ZERO, ZERO, ZERO)


def is_z_tensor(t: SymmetricBiquadraticTensor) -> bool:
    """True iff every off-diagonal entry (not of the form a[i,j,i,j]) is <= 0."""
    return all(v <= 0 for p, row in enumerate(t.rows) for v in row[:p] + row[p + 1:])


def _minus(alpha: Fraction, t: SymmetricBiquadraticTensor) -> SymmetricBiquadraticTensor:
    """alpha * I - t, whose flattening is alpha times the identity minus t's."""
    mn = t.m * t.n
    values = [-v for v in chain.from_iterable(t.rows)]
    values[::mn + 1] = [alpha + v for v in values[::mn + 1]]
    return SymmetricBiquadraticTensor.from_flat(t.m, t.n, values)


def z_split(t: SymmetricBiquadraticTensor) -> tuple[Fraction, SymmetricBiquadraticTensor]:
    """Write a Z-tensor as alpha*I - B with B entrywise nonnegative.

    alpha is the largest diagonal entry, the smallest choice making B
    nonnegative (smaller alpha leaves a positive diagonal in -B; any larger
    alpha works but weakens the M-tensor test). Raises on non-Z input.
    """
    if not is_z_tensor(t):
        raise ValueError("not a Z-tensor: some off-diagonal entry is positive")
    alpha = max(row[p] for p, row in enumerate(t.rows))
    return alpha, _minus(alpha, t)


def lambda_max_estimate(B: SymmetricBiquadraticTensor, restarts: int = 20, seed: int = 0) -> float:
    """Lower bound on the largest critical value of B on unit-sphere pairs.

    Alternating largest-eigenvector ascent (fix y, take the top eigenvector
    of the contracted m x m matrix; swap roles; repeat until the value moves
    by less than ``kernels.REFINE_TOL`` or for ``kernels.REFINE_ITERS`` steps),
    restarted from ``restarts`` random unit pairs. A restart still at or
    below the value some restart has settled at after
    ``kernels.STALL_ITERS`` steps is dropped there. Each restart's value is
    monotone nondecreasing in its steps. The result need not grow with
    ``restarts``: ``kernels.random_unit_pairs`` draws all xs before all ys,
    so a larger count changes the ys of the first restarts too.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if any(v < 0 for v in chain.from_iterable(B.rows)):
        raise ValueError("lambda_max_estimate needs an entrywise nonnegative tensor")
    return kernels.refine_best(B.to_float(), restarts, seed, maximize=True)[0]


def _b0_rows(t: SymmetricBiquadraticTensor) -> tuple[list[Fraction], list[Fraction]]:
    # Per flattening row p: the signed row sum S_p (diagonal included) and
    # max(0, off-diagonal entries of row p).
    M = t.rows
    return [sum(row) for row in M], [max(row[:p] + (ZERO,) + row[p + 1:]) for p, row in enumerate(M)]


def is_b0_tensor(t: SymmetricBiquadraticTensor) -> bool:
    """Row-mean membership test on the rows of the flattening.

    For every row p the signed row sum S_p must be nonnegative, and S_p / (mn)
    must be at least every off-diagonal entry of the row and at least 0, which
    already implies S_p >= 0. This is the paper's two-family test (half sums
    over a[i,j,i2,j2] and a[i,j1,i2,j], diagonal occurrence zeroed), to which
    it reduces under biquadratic symmetry.
    """
    mn = t.m * t.n
    sums, off_max = _b0_rows(t)
    return all(s / mn >= top for s, top in zip(sums, off_max))


class MTensorReport(namedtuple("MTensorReport", "alpha lambda_max_estimate verdict")):
    """Three-valued M-tensor verdict with the evidence behind it.

    verdict 'yes' means alpha >= estimate + margin (heuristic: the estimate
    is a lower bound, so this is confidence, not proof); 'no' means
    estimate >= alpha + margin, a float comparison with no witness pair
    stored; 'unknown' otherwise. Non-Z tensors are definitionally 'no'
    with empty evidence.
    """

    __slots__ = ()


ClassReport = namedtuple("ClassReport", "is_z is_b0 is_dd m_tensor")


def classify(t: SymmetricBiquadraticTensor, seed: int = 0) -> ClassReport:
    """Aggregate membership report for the structured classes."""
    zq = is_z_tensor(t)
    if zq:
        t.to_float()  # the verdict below is float: name an entry beyond its range
        alpha, B = z_split(t)
        est = lambda_max_estimate(B, seed=seed)
        if float(alpha) >= est + MARGIN:
            verdict = "yes"
        elif est >= float(alpha) + MARGIN:
            verdict = "no"
        else:
            verdict = "unknown"
        mrep = MTensorReport(alpha, est, verdict)
    else:
        mrep = MTensorReport(None, None, "no")
    return ClassReport(zq, is_b0_tensor(t), is_diagonally_dominated(t), mrep)


# ---------------------------------------------------------------------------
# random generators
# ---------------------------------------------------------------------------

def _draws(rng, lo, hi, size):
    """Multiples of 1/DENOM in [lo, hi], an array of Fractions of the given
    size drawn in one call, in index order."""
    return rng.integers(lo * DENOM, hi * DENOM + 1, size=size).astype(object) * Fraction(1, DENOM)


def _random_symmetric(m, n, rng, lo, hi):
    return symmetrize(_draws(rng, lo, hi, (m, n, m, n)))


def _with_diagonal(t, diag):
    """Copy of t with the flattening's diagonal replaced by the mn Fractions
    diag (each a[i,j,i,j] is its own symmetry orbit)."""
    values = list(chain.from_iterable(t.rows))
    values[::t.m * t.n + 1] = diag
    return SymmetricBiquadraticTensor.from_flat(t.m, t.n, values)


def _gen_dd(m, n, rng):
    # each diagonal entry is its row bound plus a slack >= 0
    base = _random_symmetric(m, n, rng, -1, 1)
    return _with_diagonal(base, list(map(add, offdiag_row_sums(base.rows), _draws(rng, 0, 1, m * n))))


def _gen_z(m, n, rng):
    # off-diagonals <= 0, any nonnegative diagonal
    base = _random_symmetric(m, n, rng, -1, 0)
    return _with_diagonal(base, _draws(rng, 0, 2, m * n).tolist())


def _gen_m(m, n, rng):
    B = _random_symmetric(m, n, rng, 0, 1)
    est = lambda_max_estimate(B, restarts=10, seed=int(rng.integers(0, 2**31)))
    # alpha strictly above the estimate + 0.1, as a rational; B >= 0 makes
    # every off-diagonal entry of alpha*I - B nonpositive.
    alpha = Fraction(math.floor((est + 0.1) * 256) + 1, 256)
    return _minus(alpha, B)


def _gen_b0(m, n, rng):
    mn = m * n
    base = _with_diagonal(_random_symmetric(m, n, rng, -1, 1), [ZERO] * mn)
    # zero diagonal, so the row sums are the off-diagonal parts; a common
    # diagonal d passes row p iff sums[p] + d >= mn * off_max[p]
    sums, off_max = _b0_rows(base)
    need = max([Fraction(0), *(mn * top - s for s, top in zip(sums, off_max))])
    return _with_diagonal(base, [need + _draws(rng, 0, 1, None)] * mn)


_GENERATORS = {"dd": _gen_dd, "z": _gen_z, "m": _gen_m, "b0": _gen_b0}
GENERATOR_CLASSES = tuple(_GENERATORS)


def gen_tensor(klass: str, m: int, n: int, rng) -> SymmetricBiquadraticTensor:
    """Random member of a structured class, by construction.

    'dd' sets each diagonal entry to its row bound plus a slack >= 0; 'z'
    draws off-diagonals <= 0; 'b0' puts a common diagonal at the least value
    the row test allows, plus a slack. 'm' is alpha*I - B with B entrywise
    nonnegative and alpha above the ascent estimate of lambda_max(B) + 0.1:
    a Z-tensor, but exact M-membership is not decidable here.
    """
    if klass not in _GENERATORS:
        raise ValueError(f"unknown class {klass!r}; expected one of {GENERATOR_CLASSES}")
    return _GENERATORS[klass](m, n, rng)
