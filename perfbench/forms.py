"""The benchmark's own arithmetic on biquadratic forms.

Nothing here imports biquad. Inputs are built and outputs are judged with
this code, so that every verdict the benchmark expects is known apart from
the program under test.

A form is held as a polynomial: a dict mapping a monomial key
(i, k, j, l) with i <= k and j <= l (0-based) to the Fraction coefficient of
x_i x_k y_j y_l. Zero coefficients are never stored.
"""

from __future__ import annotations

import json
from fractions import Fraction

ZERO = Fraction(0)


def key(i, j, k, l):
    """Monomial key of x_i y_j x_k y_l."""
    return (min(i, k), max(i, k), min(j, l), max(j, l))


def add_term(poly, mono, value):
    v = poly.get(mono, ZERO) + value
    if v:
        poly[mono] = v
    else:
        poly.pop(mono, None)


def poly_from_squares(terms):
    """Expand sum_p c_p (sum_ij W_p[i][j] x_i y_j)^2 literally.

    ``terms`` is a sequence of (weight, W) with W a list of rows.
    """
    poly = {}
    for weight, W in terms:
        nz = [(i, j, w) for i, row in enumerate(W) for j, w in enumerate(row) if w]
        for i1, j1, w1 in nz:
            cw = weight * w1
            for i2, j2, w2 in nz:
                add_term(poly, key(i1, j1, i2, j2), cw * w2)
    return poly


def orbit(i, j, k, l):
    """Index set of the symmetric tensor slots that share one monomial."""
    return {(i, j, k, l), (k, j, i, l), (i, l, k, j), (k, l, i, j)}


def symmetric_entries(m, n, poly):
    """Dense nested list a[i][j][k][l] of the unique symmetric tensor.

    Each monomial coefficient is split evenly over its orbit of slots.
    """
    a = [[[[ZERO] * n for _ in range(m)] for _ in range(n)] for _ in range(m)]
    for (i, k, j, l), c in poly.items():
        slots = orbit(i, j, k, l)
        share = c / len(slots)
        for (p, q, r, s) in slots:
            a[p][q][r][s] = share
    return a


def eval_exact(poly, x, y):
    """Exact value of the form at rational vectors x, y, term by term."""
    total = ZERO
    for (i, k, j, l), c in poly.items():
        total += c * x[i] * x[k] * y[j] * y[l]
    return total


def eval_float(poly, x, y):
    return sum(float(c) * x[i] * x[k] * y[j] * y[l] for (i, k, j, l), c in poly.items())


def to_rational(vec, denom=10**6):
    return [Fraction(float(v)).limit_denominator(denom) for v in vec]


# ---------------------------------------------------------------------------
# input families
# ---------------------------------------------------------------------------

def choi():
    """Choi's 3x3 form (PSD, not a sum of squares of bilinear forms):

    sum_i x_i^2 y_i^2 + x1^2 y2^2 + x2^2 y3^2 + x3^2 y1^2
    - 2 (x1 x2 y1 y2 + x2 x3 y2 y3 + x3 x1 y3 y1).
    """
    poly = {}
    for i in range(3):
        k = (i + 1) % 3
        lo, hi = min(i, k), max(i, k)
        add_term(poly, (i, i, i, i), Fraction(1))
        add_term(poly, (i, i, k, k), Fraction(1))
        add_term(poly, (lo, hi, lo, hi), Fraction(-2))
    return poly


def symmetry(rng, m, n):
    """A random signed permutation of the x and of the y variables."""
    return ([int(v) for v in rng.permutation(m)], [int(v) for v in rng.permutation(n)],
            [int(v) for v in rng.choice((-1, 1), m)], [int(v) for v in rng.choice((-1, 1), n)])


def substitute(poly, sym):
    """P after x_i -> s_i x_{sigma(i)} and y_j -> t_j y_{tau(j)}.

    Signed permutations keep PSD-ness, sums of squares, dominance and the
    numbers in the coefficients, so they change an input without changing
    how hard it is.
    """
    sigma, tau, s, t = sym
    out = {}
    for (i, k, j, l), c in poly.items():
        add_term(out, key(sigma[i], tau[j], sigma[k], tau[l]), c * s[i] * s[k] * t[j] * t[l])
    return out


def rescale(poly, d, e):
    """P(Dx, Ey) for positive diagonal D = diag(d), E = diag(e)."""
    return {(i, k, j, l): c * d[i] * d[k] * e[j] * e[l] for (i, k, j, l), c in poly.items()}


def minus_norms(poly, m, n, eps):
    """P(x, y) - eps |x|^2 |y|^2."""
    out = dict(poly)
    for i in range(m):
        for j in range(n):
            add_term(out, (i, i, j, j), -eps)
    return out


def dominated(m, n, rng, denom=8):
    """A diagonally dominated form: random off-diagonal slots, then each
    diagonal coefficient x_i^2 y_j^2 set to its flattening row's absolute
    off-diagonal sum plus a random slack in [0, 1]."""
    poly = {}
    for i in range(m):
        for k in range(i, m):
            for j in range(n):
                for l in range(j, n):
                    if (i, j) != (k, l):
                        v = Fraction(int(rng.integers(-denom, denom + 1)), denom)
                        add_term(poly, (i, k, j, l), v)
    a = symmetric_entries(m, n, poly)
    for i in range(m):
        for j in range(n):
            row = sum(abs(a[i][j][k][l]) for k in range(m) for l in range(n) if (k, l) != (i, j))
            slack = Fraction(int(rng.integers(0, denom + 1)), denom)
            add_term(poly, (i, i, j, j), row + slack)
    return poly


def tetrahedron(m, n):
    """Vertices (a, b, c) of the PSD region of monic (m, n) forms."""
    im, jn = Fraction(1, m - 1), Fraction(1, n - 1)
    one = Fraction(1)
    return ((one, one, one), (-im, -jn, im * jn), (-im, one, -im), (one, -jn, -jn))


def monic_point(m, n, lam):
    """(a, b, c) with barycentric coordinates lam in the (m, n) tetrahedron."""
    verts = tetrahedron(m, n)
    return tuple(sum(w * v[c] for w, v in zip(lam, verts)) for c in range(3))


def interior_lambda(rng):
    """Strictly positive barycentric coordinates summing to 1."""
    w = [int(rng.integers(1, 10)) for _ in range(4)]
    return [Fraction(x, sum(w)) for x in w]


def exterior_lambda(rng):
    """Barycentric coordinates summing to 1 with exactly one negative entry."""
    w = [int(rng.integers(1, 10)) for _ in range(4)]
    w[int(rng.integers(0, 4))] = -int(rng.integers(1, 3))
    return [Fraction(x, sum(w)) for x in w]


def monic(m, n, a, b, c):
    """sum x_i^2 y_j^2 + a sum_{i!=k} x_i x_k y_j^2 + b sum_{j!=l} x_i^2 y_j y_l
    + c sum_{i!=k, j!=l} x_i y_j x_k y_l."""
    poly = {}
    for i in range(m):
        for k in range(i, m):
            for j in range(n):
                for l in range(j, n):
                    if i == k and j == l:
                        v = Fraction(1)
                    elif i == k:
                        v = 2 * b
                    elif j == l:
                        v = 2 * a
                    else:
                        v = 4 * c
                    add_term(poly, (i, k, j, l), v)
    return poly


def random_squares(m, n, count, rng, span=3):
    """``count`` bilinear forms with integer coefficients in [-span, span]."""
    return [(Fraction(1), [[Fraction(int(rng.integers(-span, span + 1))) for _ in range(n)]
                           for _ in range(m)]) for _ in range(count)]


# ---------------------------------------------------------------------------
# the JSON formats, read and written without the program's own code
# ---------------------------------------------------------------------------

def tensor_json(m, n, poly):
    a = symmetric_entries(m, n, poly)
    entries = [{"i": i + 1, "j": j + 1, "k": k + 1, "l": l + 1, "v": str(a[i][j][k][l])}
               for i in range(m) for j in range(n) for k in range(m) for l in range(n)
               if a[i][j][k][l]]
    return json.dumps({"m": m, "n": n, "entries": entries})


def certificate_terms(doc):
    """(m, n, [(weight, W)]) from a parsed certificate JSON object."""
    terms = [(Fraction(t["weight"]), [[Fraction(v) for v in row] for row in t["W"]])
             for t in doc["terms"]]
    return doc["m"], doc["n"], terms
