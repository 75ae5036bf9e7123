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
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kernels
from .core import (
    ONE,
    ZERO,
    SymmetricBiquadraticTensor,
    permutation_invariant,
    symmetrize,
)
from .dominance import flatten, is_diagonally_dominated, offdiag_row_sums

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

# classify's ascent: random starts, and the gap between alpha and the
# estimate below which the M-tensor verdict is 'unknown'.
RESTARTS = 20
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
    M = flatten(t)
    return all(v <= 0 for v in M[~np.eye(len(M), dtype=bool)])


def z_split(t: SymmetricBiquadraticTensor) -> tuple[Fraction, SymmetricBiquadraticTensor]:
    """Write a Z-tensor as alpha*I - B with B entrywise nonnegative.

    alpha is the largest diagonal entry, the smallest choice making B
    nonnegative (smaller alpha leaves a positive diagonal in -B; any larger
    alpha works but weakens the M-tensor test). Raises on non-Z input.
    """
    if not is_z_tensor(t):
        raise ValueError("not a Z-tensor: some off-diagonal entry is positive")
    alpha = max(flatten(t).diagonal())
    B = m_identity(t.m, t.n).entries * alpha - t.entries
    return alpha, SymmetricBiquadraticTensor(t.m, t.n, B)


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
    if B.entries[B.entries < ZERO].size:
        raise ValueError("lambda_max_estimate needs an entrywise nonnegative tensor")
    return kernels.refine_best(B.to_float(), restarts, seed, maximize=True)[0]


def _b0_rows(t: SymmetricBiquadraticTensor) -> tuple[np.ndarray, np.ndarray]:
    # Per flattening row p: the signed row sum S_p (diagonal included) and
    # max(0, off-diagonal entries of row p).
    M = flatten(t)
    off = np.where(np.eye(len(M), dtype=bool), ZERO, M)
    return M.sum(axis=1), off.max(axis=1)


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


@dataclass(frozen=True)
class MTensorReport:
    """Three-valued M-tensor verdict with the evidence behind it.

    verdict 'yes' means alpha >= estimate + margin (heuristic: the estimate
    is a lower bound, so this is confidence, not proof); 'no' means
    estimate >= alpha + margin, a float comparison with no witness pair
    stored; 'unknown' otherwise. Non-Z tensors are definitionally 'no'
    with empty evidence.
    """

    alpha: Fraction | None
    lambda_max_estimate: float | None
    verdict: str


@dataclass(frozen=True)
class ClassReport:
    is_z: bool
    is_b0: bool
    is_dd: bool
    m_tensor: MTensorReport


def classify(t: SymmetricBiquadraticTensor, seed: int = 0) -> ClassReport:
    """Aggregate membership report for the structured classes."""
    zq = is_z_tensor(t)
    if zq:
        t.to_float()  # the verdict below is float: name an entry beyond its range
        alpha, B = z_split(t)
        est = lambda_max_estimate(B, restarts=RESTARTS, seed=seed)
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

def _random_symmetric_offdiag(m, n, rng, lo, hi):
    """Symmetric tensor with zero diagonal and off-diagonals in [lo, hi]."""
    arr = np.empty((m, n, m, n), dtype=object)
    for idx in np.ndindex(m, n, m, n):
        arr[idx] = Fraction(int(rng.integers(lo * DENOM, hi * DENOM + 1)), DENOM)
    np.fill_diagonal(arr.reshape(m * n, m * n), ZERO)
    return symmetrize(arr)


def _with_diagonal(t, diag):
    """Copy of t with the flattening's diagonal replaced by the mn values diag
    (each a[i,j,i,j] is its own symmetry orbit)."""
    M = np.array(flatten(t))
    np.fill_diagonal(M, diag)
    return SymmetricBiquadraticTensor(t.m, t.n, M.reshape(t.m, t.n, t.m, t.n))


def _gen_dd(m, n, rng):
    # each diagonal entry is its row bound plus a slack >= 0
    base = _random_symmetric_offdiag(m, n, rng, -1, 1)
    slack = [Fraction(int(rng.integers(0, DENOM + 1)), DENOM) for _ in range(m * n)]
    return _with_diagonal(base, offdiag_row_sums(flatten(base)) + slack)


def _gen_z(m, n, rng):
    # off-diagonals <= 0, any nonnegative diagonal
    base = _random_symmetric_offdiag(m, n, rng, -1, 0)
    diag = [Fraction(int(rng.integers(0, 2 * DENOM + 1)), DENOM) for _ in range(m * n)]
    return _with_diagonal(base, diag)


def _gen_m(m, n, rng):
    arr = np.empty((m, n, m, n), dtype=object)
    for idx in np.ndindex(m, n, m, n):
        arr[idx] = Fraction(int(rng.integers(0, DENOM + 1)), DENOM)
    B = symmetrize(arr)
    est = lambda_max_estimate(B, restarts=10, seed=int(rng.integers(0, 2**31)))
    # alpha strictly above the estimate + 0.1, as a rational; B >= 0 makes
    # every off-diagonal entry of alpha*I - B nonpositive.
    alpha = Fraction(math.floor((est + 0.1) * 256) + 1, 256)
    entries = m_identity(m, n).entries * alpha - B.entries
    return SymmetricBiquadraticTensor(m, n, entries)


def _gen_b0(m, n, rng):
    base = _random_symmetric_offdiag(m, n, rng, -1, 1)
    mn = m * n
    # zero diagonal, so the row sums are the off-diagonal parts; a common
    # diagonal d passes row p iff sums[p] + d >= mn * off_max[p]
    sums, off_max = _b0_rows(base)
    need = max([Fraction(0), *(mn * off_max - sums)])
    slack = Fraction(int(rng.integers(0, DENOM + 1)), DENOM)
    return _with_diagonal(base, need + slack)


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
