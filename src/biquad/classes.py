"""Structured tensor classes: identity, Z-, M-, and B0-membership, plus the
random generators used for conjecture sweeps and test corpora.

The M-tensor check is only partially decidable here: a Z-tensor splits as
alpha*I - B with B entrywise nonnegative, and membership asks
alpha >= lambda_max(B), the largest critical value of B on unit spheres. We
estimate lambda_max by alternating ascent, which yields a certified *lower*
bound only, so the verdict is three-valued (yes / no / unknown).
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
    BiquadraticTensor,
    SymmetricBiquadraticTensor,
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

GENERATOR_CLASSES = ("dd", "z", "m", "b0")


def m_identity(m: int, n: int) -> SymmetricBiquadraticTensor:
    """Identity for the class: I[i,j,k,l] = 1 iff i = k and j = l.

    Its form is (sum x_i^2)(sum y_j^2), identically 1 on unit spheres, and
    its flattening is the (mn) x (mn) identity matrix.
    """
    arr = np.full((m * n, m * n), ZERO, dtype=object)
    np.fill_diagonal(arr, ONE)
    return SymmetricBiquadraticTensor(m, n, arr.reshape(m, n, m, n))


def _flat_entries(t: BiquadraticTensor) -> np.ndarray:
    # M[(i,j),(k,l)] = a[i,j,k,l]; the diagonal holds the entries a[i,j,i,j].
    mn = t.m * t.n
    return t.entries.reshape(mn, mn)


def is_z_tensor(t: BiquadraticTensor) -> bool:
    """True iff every off-diagonal entry (not of the form a[i,j,i,j]) is <= 0."""
    M = _flat_entries(t)
    return all(v <= 0 for v in M[~np.eye(len(M), dtype=bool)])


def z_split(t: BiquadraticTensor) -> tuple[Fraction, BiquadraticTensor]:
    """Write a Z-tensor as alpha*I - B with B entrywise nonnegative.

    alpha is the largest diagonal entry, the smallest choice making B
    nonnegative (smaller alpha leaves a positive diagonal in -B; any larger
    alpha works but weakens the M-tensor test). Raises on non-Z input.
    """
    if not is_z_tensor(t):
        raise ValueError("not a Z-tensor: some off-diagonal entry is positive")
    alpha = max(_flat_entries(t).diagonal())
    B = m_identity(t.m, t.n).entries * alpha - t.entries
    cls = SymmetricBiquadraticTensor if isinstance(t, SymmetricBiquadraticTensor) else BiquadraticTensor
    return alpha, cls(t.m, t.n, B)


def lambda_max_estimate(B: SymmetricBiquadraticTensor, restarts: int = 20, seed: int = 0,
                        max_iter: int = 500, tol: float = 1e-12) -> float:
    """Lower bound on the largest critical value of B on unit-sphere pairs.

    Alternating largest-eigenvector ascent (fix y, take the top eigenvector
    of the contracted m x m matrix; swap roles; repeat until the value moves
    by less than ``tol`` or ``max_iter`` is hit), restarted from ``restarts``
    random unit pairs. The per-iteration value is monotone nondecreasing and
    the result never decreases as restarts are added.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if not isinstance(B, SymmetricBiquadraticTensor):
        raise TypeError("lambda_max_estimate needs a symmetric tensor")
    neg = B.entries[B.entries < ZERO]
    if neg.size:
        raise ValueError("lambda_max_estimate needs an entrywise nonnegative tensor")
    a4 = np.ascontiguousarray(B.to_float())
    xs, ys = kernels.random_unit_pairs(seed, restarts, B.m, B.n)
    vals, _, _ = kernels.refine_batch(a4, xs, ys, max_iter, tol, True)
    return float(np.max(vals))


def _b0_rows(t: BiquadraticTensor) -> tuple[np.ndarray, np.ndarray]:
    # Per flattening row p: the signed row sum S_p (diagonal included) and
    # max(0, off-diagonal entries of row p).
    M = _flat_entries(t)
    off = np.where(np.eye(len(M), dtype=bool), ZERO, M)
    return M.sum(axis=1), off.max(axis=1)


def is_b0_tensor(t: BiquadraticTensor) -> bool:
    """Row-mean membership test on the rows of the flattening.

    For every row p the signed row sum S_p must be nonnegative, and S_p / (mn)
    must be at least every off-diagonal entry of the row and at least 0, which
    already implies S_p >= 0. This is the paper's two-family test (half sums
    over a[i,j,i2,j2] and a[i,j1,i2,j], diagonal occurrence zeroed), to which
    it reduces under biquadratic symmetry; a tensor without that symmetry
    raises ValueError.
    """
    if not isinstance(t, SymmetricBiquadraticTensor) and not t.has_biquadratic_symmetry():
        raise ValueError("is_b0_tensor needs a tensor with biquadratic symmetry")
    mn = t.m * t.n
    sums, off_max = _b0_rows(t)
    return all(s / mn >= top for s, top in zip(sums, off_max))


@dataclass(frozen=True)
class MTensorReport:
    """Three-valued M-tensor verdict with the evidence behind it.

    verdict 'yes' means alpha >= estimate + margin (heuristic: the estimate
    is a lower bound, so this is confidence, not proof); 'no' means a witness
    pair certifies lambda_max > alpha; 'unknown' otherwise. Non-Z tensors are
    definitionally 'no' with empty evidence.
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


def classify(t: SymmetricBiquadraticTensor, restarts: int = 20, seed: int = 0,
             margin: float = 1e-6) -> ClassReport:
    """Aggregate membership report for the structured classes."""
    zq = is_z_tensor(t)
    if zq:
        t.to_float()  # the verdict below is float: name an entry beyond its range
        alpha, B = z_split(t)
        est = lambda_max_estimate(B, restarts=restarts, seed=seed)
        if float(alpha) >= est + margin:
            verdict = "yes"
        elif est >= float(alpha) + margin:
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

def _random_symmetric_offdiag(m, n, rng, denom, lo, hi):
    """Symmetric tensor with zero diagonal and off-diagonals in [lo, hi]."""
    arr = np.empty((m, n, m, n), dtype=object)
    lo_i, hi_i = int(lo * denom), int(hi * denom)
    for idx in np.ndindex(m, n, m, n):
        arr[idx] = Fraction(int(rng.integers(lo_i, hi_i + 1)), denom)
    np.fill_diagonal(arr.reshape(m * n, m * n), ZERO)
    return symmetrize(BiquadraticTensor(m, n, arr))


def _with_diagonal(t, diag):
    """Copy of t with the flattening's diagonal replaced by the mn values diag."""
    M = np.array(_flat_entries(t))
    np.fill_diagonal(M, diag)
    return SymmetricBiquadraticTensor(t.m, t.n, M.reshape(t.m, t.n, t.m, t.n))


def _gen_dd(m, n, rng, denom=8):
    base = _random_symmetric_offdiag(m, n, rng, denom, -1, 1)
    slack = [Fraction(int(rng.integers(0, denom + 1)), denom) for _ in range(m * n)]
    return _with_diagonal(base, offdiag_row_sums(flatten(base)) + slack)


def _gen_z(m, n, rng, denom=8):
    base = _random_symmetric_offdiag(m, n, rng, denom, -1, 0)
    diag = [Fraction(int(rng.integers(0, 2 * denom + 1)), denom) for _ in range(m * n)]
    return _with_diagonal(base, diag)


def _gen_m(m, n, rng, denom=8):
    arr = np.empty((m, n, m, n), dtype=object)
    for idx in np.ndindex(m, n, m, n):
        arr[idx] = Fraction(int(rng.integers(0, denom + 1)), denom)
    B = symmetrize(BiquadraticTensor(m, n, arr))
    est = lambda_max_estimate(B, restarts=10, seed=int(rng.integers(0, 2**31)))
    # alpha strictly above the estimate + 0.1, as a rational.
    alpha = Fraction(math.floor((est + 0.1) * 256) + 1, 256)
    entries = m_identity(m, n).entries * alpha - B.entries
    return SymmetricBiquadraticTensor(m, n, entries)


def _gen_b0(m, n, rng, denom=8):
    base = _random_symmetric_offdiag(m, n, rng, denom, -1, 1)
    mn = m * n
    # zero diagonal, so the row sums are the off-diagonal parts; a common
    # diagonal d passes row p iff sums[p] + d >= mn * off_max[p]
    sums, off_max = _b0_rows(base)
    need = max([Fraction(0), *(mn * off_max - sums)])
    slack = Fraction(int(rng.integers(0, denom + 1)), denom)
    return _with_diagonal(base, need + slack)


_GENERATORS = {"dd": _gen_dd, "z": _gen_z, "m": _gen_m, "b0": _gen_b0}
_PREDICATES = {
    "dd": is_diagonally_dominated,
    "z": is_z_tensor,
    "m": lambda t: is_z_tensor(t),  # full M-membership is only estimated
    "b0": is_b0_tensor,
}


def gen_tensor(klass: str, m: int, n: int, rng) -> SymmetricBiquadraticTensor:
    """Random member of a structured class (rejection sampling).

    Proposals are biased toward the class, then checked against the defining
    predicate and redrawn on failure. For 'm' the predicate is the Z-shape
    plus the construction alpha*I - B with alpha above the ascent estimate of
    lambda_max(B) + 0.1; exact membership is not decidable here.
    """
    if klass not in _GENERATORS:
        raise ValueError(f"unknown class {klass!r}; expected one of {GENERATOR_CLASSES}")
    gen = _GENERATORS[klass]
    check = _PREDICATES[klass]
    for _ in range(50):
        t = gen(m, n, rng)
        if check(t):
            return t
    raise RuntimeError(f"rejection sampling for class {klass!r} failed 50 draws")
