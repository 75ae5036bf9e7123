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

import math
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
MINUS_ONE = Fraction(-1)


def rational(value) -> Fraction:
    """Coerce an exact value (Fraction, int, or rational text) to Fraction.

    The library's one rule for exact values. Text is "p/q", "p" or a plain
    decimal, never an exponent: Fraction("1e10000000") builds 10**10000000.
    Bad text and a zero denominator raise ValueError. Floats raise TypeError:
    binary floats entering the exact layer silently poison certificate
    verification. A Fraction whose parts are not Python ints (numpy
    integers) is rebuilt from int parts, since fixed-width parts overflow
    in the exact layer's products.
    """
    if isinstance(value, Fraction):
        # Fraction's own slots: its numerator and denominator properties
        # cost four times as much, on every entry the exact layer checks
        if type(value._numerator) is int and type(value._denominator) is int:
            return value
        return Fraction(int(value.numerator), int(value.denominator))
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise ValueError(f"exponent notation is not accepted: {value!r}")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"expected an exact rational value, got {type(value).__name__}: {value!r}")


_rational_ufunc = np.frompyfunc(rational, 1, 1)


def rational_array(data) -> np.ndarray:
    """Build a new object ndarray of Fractions from nested data."""
    return _rational_ufunc(np.asarray(data, dtype=object))


@dataclass(frozen=True, eq=False)
class SymmetricBiquadraticTensor:
    """Dense m x n biquadratic tensor with exact rational entries, satisfying
    a[i,j,k,l] = a[k,j,i,l] = a[k,l,i,j].

    ``entries[i, j, k, l]`` holds the coefficient of x_{i+1} y_{j+1} x_{k+1}
    y_{l+1}. This is the unique tensor representative of its biquadratic
    form; the constructor validates the symmetry chain, which implies
    a[i,j,k,l] = a[i,l,k,j]. Entries are coerced by ``rational``: ints
    become Fractions and floats raise TypeError. Instances are immutable;
    the entry array is read-only.
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
        a = rational_array(self.entries)
        a.setflags(write=False)
        entries = a.tolist()  # list equality skips __eq__ for identical objects
        if entries != a.transpose(2, 1, 0, 3).tolist() or entries != a.transpose(2, 3, 0, 1).tolist():
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

    The orbit sum runs in integers as N / Q, Q the product of the four
    denominators: (N, Q) is the same at each member of an orbit, and each
    distinct (N, Q) becomes one Fraction(N, 4 Q).
    """
    a = rational_array(arr)
    num, den = (np.array([getattr(v, part) for v in a.flat], dtype=object).reshape(a.shape)
                for part in ("numerator", "denominator"))
    N, Q = num, den
    for perm in ((2, 1, 0, 3), (0, 3, 2, 1), (2, 3, 0, 1)):
        N, Q = N * den.transpose(perm) + num.transpose(perm) * Q, Q * den.transpose(perm)
    keys = list(zip(N.flat, Q.flat))
    fractions = {key: Fraction(key[0], 4 * key[1]) for key in set(keys)}
    entries = np.array([fractions[key] for key in keys], dtype=object).reshape(a.shape)
    return SymmetricBiquadraticTensor(a.shape[0], a.shape[1], entries)


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
    """Bilinear form f(x, y) = sum_{i,j} W[i,j] x_i y_j with rational W.

    The constructor keeps a read-only object copy of W, coerced by
    ``rational`` as a tensor's entries are (ints become Fractions, strings
    are parsed, floats raise TypeError) unless all are Fractions already, as
    in the hundreds of forms per certificate the exact layer builds.
    """

    m: int
    n: int
    W: np.ndarray

    def __post_init__(self):
        if self.W.shape != (self.m, self.n):
            raise ValueError(f"W shape {self.W.shape} != ({self.m}, {self.n})")
        W = self.W.astype(object)
        if set(map(type, W.flat)) != {Fraction}:
            W = rational_array(W)
        W.setflags(write=False)
        object.__setattr__(self, "W", W)

    @classmethod
    def unit(cls, m: int, n: int, i: int, j: int):
        """The form x_i y_j (0-based i, j)."""
        W = np.full((m, n), ZERO, dtype=object)
        W[i, j] = ONE
        return cls(m, n, W)

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

    Works in Python ints. One pass reads the entries of every form with a
    nonzero weight into a (terms, mn) array U of numerators; only when some
    entry is not an integer is each row scaled to integers (by the lcm L_p
    of its denominators) and its weight to c_p / L_p^2. Over the common
    denominator D of those weights, the flattened tensor
    sum_p c_p vec(W_p) vec(W_p)^T is G / D with G = U^T diag(c) U in
    integers. Symmetrizing G in integers gives each entry as
    Fraction(g, 4 D), built once per distinct g.
    """
    m, n = cert.m, cert.n
    terms = [(weight, form) for weight, form in cert.terms if weight != 0]
    entries = [v for _, form in terms for v in form.W.reshape(-1).tolist()]
    # Fraction's slots, as in rational; numpy-integer parts would overflow below
    nums, dens = [v._numerator for v in entries], [v._denominator for v in entries]
    if {*map(type, nums), *map(type, dens)} != {int}:
        nums, dens = list(map(int, nums)), list(map(int, dens))
    U = np.array(nums, dtype=object).reshape(len(terms), m * n)
    weights = [weight for weight, _ in terms]
    if dens.count(1) < len(dens):
        dens = np.array(dens, dtype=object).reshape(U.shape)
        L = [math.lcm(*row) for row in dens.tolist()]
        U = U * (np.array(L, dtype=object)[:, None] // dens)
        weights = [w if l == 1 else Fraction(w.numerator, w.denominator * l * l)
                   for w, l in zip(weights, L)]
    c, D = exactla.common_denominator(weights)
    G = (U.T * np.array(c, dtype=object)) @ U
    sym = _orbit_sum(G.reshape(m, n, m, n))
    fractions = {v: Fraction(v, 4 * D) for v in set(sym.reshape(-1).tolist())}
    return SymmetricBiquadraticTensor(m, n, np.frompyfunc(fractions.__getitem__, 1, 1)(sym))


def tensors_equal(s: SymmetricBiquadraticTensor, t: SymmetricBiquadraticTensor) -> bool:
    """Exact entrywise equality of two symmetric tensors of the same shape."""
    if (s.m, s.n) != (t.m, t.n):
        raise ValueError(f"shape mismatch: ({s.m},{s.n}) vs ({t.m},{t.n})")
    return s.entries.tolist() == t.entries.tolist()


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


def sample_min(t: SymmetricBiquadraticTensor, trials: int, seed: int):
    """Numerical lower probe: smallest form value found on unit-sphere pairs.

    Draws ``trials`` random (x, y) pairs on the unit spheres and refines each
    by alternating smallest-eigenvector descent (fix y, replace x by the
    bottom eigenvector of the contracted m x m matrix, then swap roles),
    for at most ``kernels.REFINE_ITERS`` iterations or until the value
    moves by less than ``kernels.REFINE_TOL``. A start that stalls behind a
    settled start, still at or above its value after
    ``kernels.STALL_ITERS`` iterations, is dropped there (see
    ``kernels.refine_batch``). Deterministic for a fixed seed. Returns
    (value, x, y) for the best pair.

    This is a falsification probe: a negative value disproves PSD, while a
    nonnegative one proves nothing.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    return kernels.refine_best(t.to_float(), trials, seed, maximize=False)
