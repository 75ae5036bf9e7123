"""Exact-rational biquadratic tensors, bilinear forms, and square certificates.

A biquadratic form in x in R^m, y in R^n is

    P(x, y) = sum_{i,k in [m]} sum_{j,l in [n]} a[i,j,k,l] * x_i y_j x_k y_l,

stored here as the mn rows of its flattening M[(i,j),(k,l)] = a[i,j,k,l],
tuples of ``fractions.Fraction`` entries, so that every identity the library
produces (certificate expansions, decompositions, round trips) can be
checked by exact comparison rather than by tolerance. The one tensor type
is the symmetric representative of a form, checked on construction;
coefficient data without the symmetry (tensor files, random draws) enters
through ``symmetrize``, and ``permutation_invariant`` builds those fixed by
every permutation of x and of y. The exact layer does not import numpy;
the numpy views ``entries`` and ``W`` and ``to_float`` import it when used,
and ``gram``'s exact stage reads ``rows`` alone.
Floating point appears only in the numerical probes (``sample_min`` and the
search in ``kernels``).

Indices are 0-based internally; all file formats, CLI reports and docstrings
use 1-based indices.
"""

from __future__ import annotations

import math
import numbers
import re
import sys
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, product, repeat
from operator import add, floordiv, mul

from . import exactla, kernels

__all__ = [
    "MAX_MN",
    "check_dims",
    "rational",
    "SymmetricBiquadraticTensor",
    "BilinearForm",
    "SOSCertificate",
    "MonicParams",
    "symmetrize",
    "evaluate",
    "permutation_invariant",
    "monic_to_tensor",
    "expand_certificate",
    "tensors_equal",
    "sample_min",
]

ZERO = Fraction(0)
ONE = Fraction(1)
MINUS_ONE = Fraction(-1)


def rational(value) -> Fraction:
    """Coerce an exact value (Fraction, integer, or rational text) to Fraction.

    The library's one rule for exact values. Text is "p/q", "p" or a plain
    decimal, never an exponent: Fraction("1e10000000") builds 10**10000000.
    Bad text, a zero denominator and a number longer than Python reads from
    text raise ValueError. Floats raise TypeError: binary floats entering
    the exact layer silently poison certificate verification. Integers are
    any ``numbers.Integral`` (numpy integers too); a Fraction whose parts are
    not Python ints is rebuilt from int parts, since fixed-width parts
    overflow in the exact layer's products.
    """
    if isinstance(value, Fraction):
        # Fraction's own slots: its numerator and denominator properties
        # cost four times as much, on every entry the exact layer checks
        if type(value._numerator) is int and type(value._denominator) is int:
            return value
        return Fraction(int(value.numerator), int(value.denominator))
    if isinstance(value, numbers.Integral):
        return Fraction(int(value))
    if isinstance(value, str):
        if "e" in value or "E" in value:
            raise ValueError(f"exponent notation is not accepted: {value!r}")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
        except ValueError:
            limit = sys.get_int_max_str_digits()
            digits = max(map(len, re.findall(r"\d+", value.replace("_", ""))), default=0)
            if limit and digits > limit:
                raise ValueError(f"a number in rational text has more than {limit} digits") from None
            raise
    raise TypeError(f"expected an exact rational value, got {type(value).__name__}: {value!r}")


# Largest m*n accepted: the exact layer is sized for (mn) x (mn)
# flattenings with mn <= 64, and a tensor has (mn)^2 rational entries.
MAX_MN = 64


def clip(text: str) -> str:
    """text, cut to 100 characters, for echoing input in an error."""
    return text if len(text) <= 100 else text[:97] + "..."


def check_dims(m: int, n: int) -> None:
    """Reject dimensions below 1 or with m*n above MAX_MN, before any allocation."""
    if m < 1 or n < 1:
        reason = "dimensions must be >= 1"
    elif m * n > MAX_MN:
        reason = f"m*n exceeds the supported maximum {MAX_MN}"
    else:
        return
    raise ValueError(f"{reason}, got m={clip(str(m))}, n={clip(str(n))}")


def _flat(data, shape: tuple, name: str) -> list:
    """The entries of ``data``, a numpy array or nested lists and tuples of
    the given shape, in row-major order."""
    got = getattr(data, "shape", None)
    if got is not None:
        if got != shape:
            raise ValueError(f"{name} shape {got} != {shape}")
        data = data.tolist()
    flat = [data]
    for size in shape:
        if not all(isinstance(x, (list, tuple)) and len(x) == size for x in flat):
            raise ValueError(f"{name} must be nested sequences of shape {shape}")
        flat = list(chain.from_iterable(flat))
    return flat


class _Frozen:
    """Fields set once, in ``__dict__``; assigning or deleting one raises AttributeError."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _Rows(_Frozen):
    """Dimensions m, n and ``rows``, tuples of Fractions, set once."""

    def _set(self, m: int, n: int, flat) -> None:
        width = m * n if isinstance(self, SymmetricBiquadraticTensor) else n  # a form's rows are W's
        self.__dict__.update(m=m, n=n, rows=tuple(zip(*[iter(flat)] * width)))

    @classmethod
    def from_flat(cls, m: int, n: int, values):
        """The value with these row-major entries, taken as they are: for
        the library's builders, whose entries are valid Fractions by
        construction (and the certificate reader, which parsed them).
        Nothing is checked."""
        value = object.__new__(cls)
        value._set(m, n, values)
        return value

    def _array(self, *shape):
        import numpy as np

        a = np.array(self.rows, dtype=object).reshape(shape)
        a.setflags(write=False)
        return a

    def is_zero(self) -> bool:
        return not any(chain.from_iterable(self.rows))


@lru_cache(maxsize=64)
def _symmetries(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    """The swaps i <-> k, j <-> l and (i,j) <-> (k,l) as maps of row-major
    m x n x m x n positions: entry p of the swapped list a is a[perm[p]]."""
    def at(i, j, k, l):
        return ((i * n + j) * m + k) * n + l

    index = list(product(range(m), range(n), range(m), range(n)))
    return (tuple(at(k, j, i, l) for i, j, k, l in index),
            tuple(at(i, l, k, j) for i, j, k, l in index),
            tuple(at(k, l, i, j) for i, j, k, l in index))


@lru_cache(maxsize=64)
def _orbits(m: int, n: int) -> tuple[int, ...]:
    """Row-major orbit number of each position under the permutations of x
    and of y: 0 for a[i,j,i,j], 1 where only i != k, 2 where only j != l, 3
    where both differ."""
    return tuple((i != k) + 2 * (j != l) for i, j, k, l in product(range(m), range(n), range(m), range(n)))


class SymmetricBiquadraticTensor(_Rows):
    """Dense m x n biquadratic tensor with exact rational entries, satisfying
    a[i,j,k,l] = a[k,j,i,l] = a[k,l,i,j].

    ``rows`` holds the flattening: row i*n + j, column k*n + l is the
    coefficient a[i,j,k,l] of x_{i+1} y_{j+1} x_{k+1} y_{l+1}, as mn tuples
    of mn Fractions. This is the unique tensor representative of its
    biquadratic form; the constructor takes the m x n x m x n entries (a
    numpy array or nested sequences) and validates the symmetry chain,
    which implies a[i,j,k,l] = a[i,l,k,j]. Entries are coerced by
    ``rational``: ints become Fractions and floats raise TypeError.
    Instances are immutable; ``entries`` is a read-only m x n x m x n numpy
    object array of the same Fractions, built on first access.
    """

    def __init__(self, m: int, n: int, entries):
        check_dims(m, n)
        flat = list(map(rational, _flat(entries, (m, n, m, n), "entries")))
        x_swap, _, pair_swap = _symmetries(m, n)
        # list equality skips __eq__ for identical objects
        if list(map(flat.__getitem__, x_swap)) != flat or list(map(flat.__getitem__, pair_swap)) != flat:
            raise ValueError("entries violate the biquadratic symmetry a[ijkl]=a[kjil]=a[klij]")
        self._set(m, n, flat)

    @classmethod
    def zeros(cls, m: int, n: int):
        return permutation_invariant(m, n, ZERO, ZERO, ZERO, ZERO)

    @cached_property
    def entries(self):
        return self._array(self.m, self.n, self.m, self.n)

    def entry(self, i: int, j: int, k: int, l: int) -> Fraction:
        """1-based entry accessor matching the external index convention."""
        return self.entries[i - 1, j - 1, k - 1, l - 1]

    def to_float(self):
        """Float64 m x n x m x n numpy array of the entries, for the numerical
        probes; an entry beyond the float range raises OverflowError naming
        it (1-based)."""
        import numpy as np

        m, n = self.m, self.n
        try:  # p / q of the slots is float(Fraction(p, q)), without its properties
            return np.array([v._numerator / v._denominator for v in chain.from_iterable(self.rows)],
                            dtype=np.float64).reshape(m, n, m, n)
        except OverflowError:
            top = sys.float_info.max
            p = next(p for p, v in enumerate(chain.from_iterable(self.rows)) if abs(v) > top)
            (i, j), (k, l) = (divmod(r, n) for r in divmod(p, m * n))
            raise OverflowError(f"entry ({i + 1},{j + 1},{k + 1},{l + 1}) "
                                "is beyond the float range") from None


def symmetrize(arr) -> SymmetricBiquadraticTensor:
    """Symmetric representative of the form with m x n x m x n coefficient
    array ``arr`` (a numpy array or nested sequences).

    Each entry becomes the average of its orbit
    {(i,j,k,l), (k,j,i,l), (i,l,k,j), (k,l,i,j)}; degenerate orbits (i=k or
    j=l) are handled by the same average with multiplicity. The output
    evaluates identically to ``arr`` at every (x, y). Entries are coerced
    by ``rational``: ints become Fractions and floats raise TypeError.

    The orbit sum runs in integers as N / Q, Q the product of the four
    denominators: (N, Q) is the same at each member of an orbit, and each
    distinct (N, Q) becomes one Fraction(N, 4 Q).
    """
    m = len(arr)
    n = len(arr[0]) if m else 0
    check_dims(m, n)
    flat = list(map(rational, _flat(arr, (m, n, m, n), "entries")))
    num, den = [v._numerator for v in flat], [v._denominator for v in flat]
    N, Q = num, den
    for perm in _symmetries(m, n):
        num_p, den_p = list(map(num.__getitem__, perm)), list(map(den.__getitem__, perm))
        N, Q = list(map(add, map(mul, N, den_p), map(mul, num_p, Q))), list(map(mul, Q, den_p))
    keys = list(zip(N, Q))
    fractions = {key: Fraction(key[0], 4 * key[1]) for key in set(keys)}
    return SymmetricBiquadraticTensor.from_flat(m, n, map(fractions.__getitem__, keys))


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
    z = [xi * yj for xi in xs for yj in ys]
    return sum(map(mul, z, [sum(map(mul, row, z)) for row in t.rows]))


class MonicParams(namedtuple("MonicParams", "m n a b c")):
    """Parameters (a, b, c) of a monic symmetric biquadratic form.

    The form has unit diagonal coefficients, coefficient a on the
    sum_{i != k} x_i x_k y_j^2 block, b on sum_{j != l} x_i^2 y_j y_l, and c
    on sum_{i != k, j != l} x_i y_j x_k y_l. Requires m, n >= 2 (the off-block
    sums are empty otherwise); a, b and c are coerced by ``rational``.
    """

    __slots__ = ()

    def __new__(cls, m: int, n: int, a, b, c):
        if m < 2 or n < 2:
            raise ValueError(f"monic forms need m, n >= 2, got m={m}, n={n}")
        return super().__new__(cls, m, n, rational(a), rational(b), rational(c))

    @classmethod
    def _make(cls, iterable):  # namedtuple's, which _replace calls, skips __new__
        return cls(*iterable)

    @property
    def abc(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c)


def permutation_invariant(m: int, n: int, d, a, b, c) -> SymmetricBiquadraticTensor:
    """The m x n tensor fixed by every permutation of x and of y: constant
    on each of the four orbits of S_m x S_n on the indices (Gatermann &
    Parrilo 2004), d on a[i,j,i,j], a where only i != k, b where only
    j != l and c where both differ. The value of an empty orbit (i != k
    with m = 1, j != l with n = 1) is unused.
    """
    check_dims(m, n)
    values = [rational(v) for v in (d, a, b, c)]
    return SymmetricBiquadraticTensor.from_flat(m, n, map(values.__getitem__, _orbits(m, n)))


def monic_to_tensor(p: MonicParams) -> SymmetricBiquadraticTensor:
    """Unique symmetric tensor of the monic form with parameters (a, b, c),
    ``permutation_invariant`` with d = 1. The placement is pinned by the
    expansion identities: the x_i x_k y_j^2 coefficient of the form is
    a[i,j,k,j] + a[k,j,i,j] = 2a, matching the two ordered (i,k) terms of
    the a-block; the tests check it against a term-by-term evaluator.
    """
    return permutation_invariant(p.m, p.n, ONE, *p.abc)


class BilinearForm(_Rows):
    """Bilinear form f(x, y) = sum_{i,j} W[i,j] x_i y_j with rational W.

    ``rows`` holds W as m tuples of n Fractions. The constructor takes W as
    a numpy array or nested sequences, coerced by ``rational`` as a
    tensor's entries are (ints become Fractions, strings are parsed, floats
    raise TypeError, numpy-integer parts become Python ints); the library's
    own builders use ``from_flat``. ``W`` is a read-only m x n numpy object
    array of the same Fractions, built on first access.
    """

    def __init__(self, m: int, n: int, W):
        self._set(m, n, list(map(rational, _flat(W, (m, n), "W"))))

    @cached_property
    def W(self):
        return self._array(self.m, self.n)


class SOSCertificate(_Frozen):
    """Weighted sum of squares of bilinear forms: sum_p c_p * f_p(x,y)^2.

    ``terms`` is a tuple of (weight, form) pairs. All weights must be
    nonnegative rationals and all forms must share the certificate's (m, n).
    The expansion (``expand_certificate``) is the symmetric tensor this
    certificate proves nonnegative.
    """

    def __init__(self, m: int, n: int, terms):
        check_dims(m, n)
        terms = tuple((rational(w), f) for (w, f) in terms)
        for w, f in terms:
            if w < 0:
                raise ValueError(f"certificate weight {w} is negative")
            if f.m != m or f.n != n:
                raise ValueError(f"form dimensions ({f.m},{f.n}) != certificate ({m},{n})")
        self.__dict__.update(m=m, n=n, terms=terms)


def expand_certificate(cert: SOSCertificate) -> SymmetricBiquadraticTensor:
    """Symmetric tensor of sum_p c_p f_p(x,y)^2, by exact expansion.

    Works in Python ints. One pass reads the entries of every form with a
    nonzero weight into rows U_p of numerators, one per form; only when some
    entry is not an integer is each row scaled to integers (by the lcm L_p
    of its denominators) and its weight to c_p / L_p^2. Over the common
    denominator D of those weights, the flattened tensor
    sum_p c_p vec(W_p) vec(W_p)^T is G / D with G = U^T diag(c) U in
    integers, each entry one ``sum(map(mul, ...))`` over two columns of U.
    G is symmetric, so its orbit sum is 2 (G + G with i and k swapped), and
    each entry is Fraction(g, 2 D), built once per distinct g.
    """
    m, n = cert.m, cert.n
    mn = m * n
    terms = [(weight, form) for weight, form in cert.terms if weight != 0]
    entries = list(chain.from_iterable(chain.from_iterable(form.rows for _, form in terms)))
    # Fraction's slots, as in rational; forms hold only Python-int parts
    nums, dens = [v._numerator for v in entries], [v._denominator for v in entries]
    U = list(zip(*[iter(nums)] * mn))
    weights = [weight for weight, _ in terms]
    if dens.count(1) < len(dens):
        dens = list(zip(*[iter(dens)] * mn))
        L = [math.lcm(*row) for row in dens]
        U = [list(map(mul, u, map(floordiv, repeat(l), d))) for u, d, l in zip(U, dens, L)]
        weights = [w if l == 1 else Fraction(w.numerator, w.denominator * l * l)
                   for w, l in zip(weights, L)]
    c, D = exactla.common_denominator(weights)
    cols = list(zip(*U)) if U else [()] * mn
    upper = [[sum(map(mul, wp, col)) for col in cols[p:]]
             for p, wp in enumerate([list(map(mul, c, col)) for col in cols])]
    G = list(chain.from_iterable([upper[q][p - q] for q in range(p)] + row for p, row in enumerate(upper)))
    sym = list(map(add, G, map(G.__getitem__, _symmetries(m, n)[0])))
    fractions = {v: Fraction(v, 2 * D) for v in set(sym)}
    return SymmetricBiquadraticTensor.from_flat(m, n, map(fractions.__getitem__, sym))


def tensors_equal(s: SymmetricBiquadraticTensor, t: SymmetricBiquadraticTensor) -> bool:
    """Exact entrywise equality of two symmetric tensors of the same shape."""
    if (s.m, s.n) != (t.m, t.n):
        raise ValueError(f"shape mismatch: ({s.m},{s.n}) vs ({t.m},{t.n})")
    return s.rows == t.rows


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
