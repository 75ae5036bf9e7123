"""Exact-rational biquadratic tensors, bilinear forms, and square certificates.

A biquadratic form in x in R^m, y in R^n is

    P(x, y) = sum_{i,k in [m]} sum_{j,l in [n]} a[i,j,k,l] * x_i y_j x_k y_l,

stored here as a dense rank-4 array of ``fractions.Fraction`` entries so that
every identity the library produces (certificate expansions, decompositions,
round trips) can be checked by exact comparison rather than by tolerance.
The one tensor type is the symmetric representative of a form, checked on
construction; coefficient data without the symmetry (tensor files, random
draws) enters through ``symmetrize``. Floating point appears only in the
numerical probes (``sample_min`` and the search code built on
:mod:`biquad.kernels`).

Indices are 0-based internally; all file formats, CLI reports and docstrings
use 1-based indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exactla, kernels

__all__ = [
    "rational",
    "rational_array",
    "SymmetricBiquadraticTensor",
    "BilinearForm",
    "SOSCertificate",
    "MonicParams",
    "symmetrize",
    "evaluate",
    "monic_to_tensor",
    "expand_certificate",
    "tensors_equal",
    "is_x_symmetric",
    "is_y_symmetric",
    "sample_min",
]

ZERO = Fraction(0)
ONE = Fraction(1)


def rational(value) -> Fraction:
    """Coerce an exact value (Fraction, int, or 'p/q' string) to Fraction.

    Floats are rejected: binary floats entering the exact layer silently
    poison certificate verification.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"expected an exact rational value, got {type(value).__name__}: {value!r}")


def rational_array(data, shape=None) -> np.ndarray:
    """Build an object ndarray of Fractions from nested data."""
    arr = np.empty(np.shape(data) if shape is None else shape, dtype=object)
    flat_src = np.asarray(data, dtype=object).reshape(-1)
    if flat_src.size != arr.size:
        raise ValueError(f"expected {arr.size} entries, got {flat_src.size}")
    flat = arr.reshape(-1)
    for idx in range(arr.size):
        flat[idx] = rational(flat_src[idx])
    return arr


def _frozen_object_array(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=object)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class SymmetricBiquadraticTensor:
    """Dense m x n biquadratic tensor with exact rational entries, satisfying
    a[i,j,k,l] = a[k,j,i,l] = a[k,l,i,j].

    ``entries[i, j, k, l]`` holds the coefficient of x_{i+1} y_{j+1} x_{k+1}
    y_{l+1}. This is the unique tensor representative of its biquadratic
    form; the constructor validates the symmetry chain, which implies
    a[i,j,k,l] = a[i,l,k,j]. Instances are immutable; the entry array is
    read-only.
    """

    m: int
    n: int
    entries: np.ndarray

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValueError(f"dimensions must be >= 1, got m={self.m}, n={self.n}")
        shape = (self.m, self.n, self.m, self.n)
        if self.entries.shape != shape:
            raise ValueError(f"entries shape {self.entries.shape} != {shape}")
        a = _frozen_object_array(self.entries)
        if not ((a == a.transpose(2, 1, 0, 3)).all() and (a == a.transpose(2, 3, 0, 1)).all()):
            raise ValueError("entries violate the biquadratic symmetry a[ijkl]=a[kjil]=a[klij]")
        object.__setattr__(self, "entries", a)

    @classmethod
    def zeros(cls, m: int, n: int):
        arr = np.full((m, n, m, n), ZERO, dtype=object)
        return cls(m, n, arr)

    def entry(self, i: int, j: int, k: int, l: int) -> Fraction:
        """1-based entry accessor matching the external index convention."""
        return self.entries[i - 1, j - 1, k - 1, l - 1]

    def to_float(self) -> np.ndarray:
        """Float64 copy of the entries, for the numerical probes; an entry
        beyond the float range raises OverflowError naming it (1-based)."""
        try:
            return self.entries.astype(np.float64)
        except OverflowError:
            top = np.finfo(np.float64).max
            idx = next(idx for idx, v in np.ndenumerate(self.entries) if abs(v) > top)
            raise OverflowError("entry ({},{},{},{}) is beyond the float range".format(
                *(x + 1 for x in idx))) from None

    def is_zero(self) -> bool:
        return bool((self.entries == ZERO).all())


def symmetrize(arr: np.ndarray) -> SymmetricBiquadraticTensor:
    """Symmetric representative of the form with m x n x m x n coefficient
    array ``arr``.

    Each entry becomes the average of its orbit
    {(i,j,k,l), (k,j,i,l), (i,l,k,j), (k,l,i,j)}; degenerate orbits (i=k or
    j=l) are handled by the same average with multiplicity. The output
    evaluates identically to ``arr`` at every (x, y). Entries are coerced
    by ``rational``: ints become Fractions and floats raise TypeError.
    """
    m, n = arr.shape[:2]
    return SymmetricBiquadraticTensor(m, n, _orbit_sum(rational_array(arr)) / 4)


def _orbit_sum(a: np.ndarray) -> np.ndarray:
    """Sum of a rank-4 array over the symmetry orbit of each index: four
    times the symmetric representative of the same form."""
    return a + a.transpose(2, 1, 0, 3) + a.transpose(0, 3, 2, 1) + a.transpose(2, 3, 0, 1)


def evaluate(t: SymmetricBiquadraticTensor, x, y):
    """Evaluate the biquadratic form at vectors x (length m) and y (length n).

    Exact (returns Fraction) when the tensor and both vectors are rational;
    float inputs are allowed and degrade the result to float.
    """
    xs = list(x)
    ys = list(y)
    if len(xs) != t.m:
        raise ValueError(f"len(x)={len(xs)} != m={t.m}")
    if len(ys) != t.n:
        raise ValueError(f"len(y)={len(ys)} != n={t.n}")
    z = [xs[i] * ys[j] for i in range(t.m) for j in range(t.n)]
    flat = t.entries.reshape(t.m * t.n, t.m * t.n)
    return np.dot(z, np.dot(flat, z))


@dataclass(frozen=True)
class MonicParams:
    """Parameters (a, b, c) of a monic symmetric biquadratic form.

    The form has unit diagonal coefficients, coefficient a on the
    sum_{i != k} x_i x_k y_j^2 block, b on sum_{j != l} x_i^2 y_j y_l, and c
    on sum_{i != k, j != l} x_i y_j x_k y_l. Requires m, n >= 2 (the off-block
    sums are empty otherwise).
    """

    m: int
    n: int
    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        if self.m < 2 or self.n < 2:
            raise ValueError(f"monic forms need m, n >= 2, got m={self.m}, n={self.n}")
        object.__setattr__(self, "a", rational(self.a))
        object.__setattr__(self, "b", rational(self.b))
        object.__setattr__(self, "c", rational(self.c))

    @property
    def abc(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c)


def monic_to_tensor(p: MonicParams) -> SymmetricBiquadraticTensor:
    """Unique symmetric tensor of the monic form with parameters (a, b, c).

    Entry placement: a[i,j,i,j] = 1, a[i,j,k,j] = a (i != k),
    a[i,j,i,l] = b (j != l), a[i,j,k,l] = c (i != k and j != l). The
    placement is pinned by the expansion identities, e.g. the x_i x_k y_j^2
    coefficient of the form is a[i,j,k,j] + a[k,j,i,j] = 2a, matching the two
    ordered (i,k) terms of the a-block; the test suite validates it against an
    independent term-by-term evaluator.
    """
    m, n = p.m, p.n
    a, b, c = p.abc
    same_x = np.eye(m, dtype=bool)[:, None, :, None]  # i == k
    same_y = np.eye(n, dtype=bool)[None, :, None, :]  # j == l
    arr = np.where(same_y, np.where(same_x, ONE, a), np.where(same_x, b, c))
    return SymmetricBiquadraticTensor(m, n, arr)


@dataclass(frozen=True, eq=False)
class BilinearForm:
    """Bilinear form f(x, y) = sum_{i,j} W[i,j] x_i y_j with rational W."""

    m: int
    n: int
    W: np.ndarray

    def __post_init__(self):
        if self.W.shape != (self.m, self.n):
            raise ValueError(f"W shape {self.W.shape} != ({self.m}, {self.n})")
        object.__setattr__(self, "W", _frozen_object_array(self.W))

    @classmethod
    def from_entries(cls, m: int, n: int, data):
        return cls(m, n, rational_array(data, (m, n)))

    @classmethod
    def unit(cls, m: int, n: int, i: int, j: int):
        """The form x_i y_j (0-based i, j)."""
        W = np.full((m, n), ZERO, dtype=object)
        W[i, j] = ONE
        return cls(m, n, W)

    def value(self, x, y):
        return np.dot(list(x), np.dot(self.W, list(y)))

    def is_zero(self) -> bool:
        return bool((self.W == ZERO).all())


@dataclass(frozen=True, eq=False)
class SOSCertificate:
    """Weighted sum of squares of bilinear forms: sum_p c_p * f_p(x,y)^2.

    All weights must be nonnegative rationals and all forms must share the
    certificate's (m, n). The expansion (``expand_certificate``) is the
    symmetric tensor this certificate proves nonnegative.
    """

    m: int
    n: int
    terms: tuple

    def __post_init__(self):
        terms = tuple((rational(w), f) for (w, f) in self.terms)
        for w, f in terms:
            if w < 0:
                raise ValueError(f"certificate weight {w} is negative")
            if f.m != self.m or f.n != self.n:
                raise ValueError(f"form dimensions ({f.m},{f.n}) != certificate ({self.m},{self.n})")
        object.__setattr__(self, "terms", terms)


def expand_certificate(cert: SOSCertificate) -> SymmetricBiquadraticTensor:
    """Symmetric tensor of sum_p c_p f_p(x,y)^2, by exact expansion.

    Works in integers: each form's W is scaled to an integer vector u_p (by
    the lcm L_p of its denominators) and its weight to c_p / L_p^2; over the
    common denominator D of those weights, the flattened tensor
    sum_p c_p vec(W_p) vec(W_p)^T is G / D with G = U^T diag(c) U in
    integers. Symmetrizing G in integers gives each entry as
    Fraction(g, 4 D), built once per distinct g. Raises on negative weights
    (also enforced at certificate construction).
    """
    m, n = cert.m, cert.n
    rows, weights = [], []
    for weight, form in cert.terms:
        if weight < 0:
            raise ValueError(f"certificate weight {weight} is negative")
        if weight == 0:
            continue
        u, L = exactla.common_denominator(form.W.reshape(-1))
        rows.append(u)
        weights.append(Fraction(weight.numerator, weight.denominator * L * L))
    c, D = exactla.common_denominator(weights)
    U = np.array(rows, dtype=object).reshape(len(rows), m * n)
    G = (U.T * np.array(c, dtype=object)) @ U
    sym = _orbit_sum(G.reshape(m, n, m, n))
    fractions = {v: Fraction(v, 4 * D) for v in set(sym.reshape(-1).tolist())}
    return SymmetricBiquadraticTensor(m, n, np.frompyfunc(fractions.__getitem__, 1, 1)(sym))


def tensors_equal(s: SymmetricBiquadraticTensor, t: SymmetricBiquadraticTensor) -> bool:
    """Exact entrywise equality of two symmetric tensors of the same shape."""
    if (s.m, s.n) != (t.m, t.n):
        raise ValueError(f"shape mismatch: ({s.m},{s.n}) vs ({t.m},{t.n})")
    return bool((s.entries == t.entries).all())


def _invariant_under_axis_swaps(t: SymmetricBiquadraticTensor, axis_pair: tuple[int, int], size: int) -> bool:
    # Adjacent transpositions generate the full symmetric group, so checking
    # sigma = (s, s+1) for all s suffices for invariance under every sigma.
    a = t.entries
    for s in range(size - 1):
        idx = list(range(size))
        idx[s], idx[s + 1] = idx[s + 1], idx[s]
        b = np.take(np.take(a, idx, axis=axis_pair[0]), idx, axis=axis_pair[1])
        if not bool((a == b).all()):
            return False
    return True


def is_x_symmetric(t: SymmetricBiquadraticTensor) -> bool:
    """True iff the tensor is invariant under permuting the x-variables.

    For a symmetric tensor this is equivalent to the form being invariant
    under all permutations of x (the symmetric tensor of the permuted form is
    the permuted tensor).
    """
    return _invariant_under_axis_swaps(t, (0, 2), t.m)


def is_y_symmetric(t: SymmetricBiquadraticTensor) -> bool:
    """True iff the tensor is invariant under permuting the y-variables."""
    return _invariant_under_axis_swaps(t, (1, 3), t.n)


# Alternating eigenvector refinement of the float probes (``sample_min``
# and ``classes.lambda_max_estimate``): at most REFINE_ITERS iterations per
# start, stopping when the value moves by less than REFINE_TOL, or after
# ``kernels.STALL_ITERS`` once the value is no better than one a start has
# settled at.
REFINE_ITERS = 500
REFINE_TOL = 1e-12


def _refine_best(t: SymmetricBiquadraticTensor, starts: int, seed: int, maximize: bool):
    """(value, x, y) of the best of ``starts`` random unit-sphere pairs after
    ``kernels.refine_batch``: the largest value if ``maximize``, else the
    smallest."""
    a4 = np.ascontiguousarray(t.to_float())
    xs, ys = kernels.random_unit_pairs(seed, starts, t.m, t.n)
    vals, xs, ys = kernels.refine_batch(a4, xs, ys, REFINE_ITERS, REFINE_TOL, maximize)
    best = int(np.argmax(vals) if maximize else np.argmin(vals))
    return float(vals[best]), xs[best].copy(), ys[best].copy()


def sample_min(t: SymmetricBiquadraticTensor, trials: int, seed: int):
    """Numerical lower probe: smallest form value found on unit-sphere pairs.

    Draws ``trials`` random (x, y) pairs on the unit spheres and refines each
    by alternating smallest-eigenvector descent (fix y, replace x by the
    bottom eigenvector of the contracted m x m matrix, then swap roles).
    A start that stalls behind a settled start, still at or above its value
    after ``kernels.STALL_ITERS`` iterations, is dropped there (see
    ``kernels.refine_batch``). Deterministic for a fixed seed. Returns
    (value, x, y) for the best pair.

    This is a falsification probe: a negative value disproves PSD, while a
    nonnegative one proves nothing.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    return _refine_best(t, trials, seed, maximize=False)
