"""Property tests: JSON round trips, symmetrization, certificate
re-verification, and the Gram probe against its full solve.

Examples are drawn by hypothesis under the deterministic profile loaded in
``tests/conftest.py``, so every run sees the same bounded set.
"""

import json
from fractions import Fraction as F

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from biquad import jsonio
from biquad.core import (
    BilinearForm,
    MonicParams,
    SOSCertificate,
    SymmetricBiquadraticTensor,
    evaluate,
    expand_certificate,
    monic_to_tensor,
    symmetrize,
    tensors_equal,
)
from biquad.dominance import dd_sos_decompose, flatten, offdiag_row_sums
from biquad.gram import flattening_psd_check, sos_probe
from biquad.monic import monic_sos_decompose, tetrahedron
from conftest import (
    bilinear_form,
    certificate_value,
    certificates_equal,
    coefficient_form_value,
    full_solve_probe,
    with_flat_diagonal,
)

dims = st.integers(1, 3)
rationals = st.fractions(min_value=-4, max_value=4, max_denominator=12)


@st.composite
def coefficients(draw, m=None, n=None):
    """An m x n x m x n coefficient array, without symmetry."""
    m = draw(dims) if m is None else m
    n = draw(dims) if n is None else n
    values = draw(st.lists(rationals, min_size=(m * n) ** 2, max_size=(m * n) ** 2))
    return np.array(values, dtype=object).reshape(m, n, m, n)


def tensors(m=None, n=None):
    return coefficients(m, n).map(symmetrize)


@st.composite
def certificates(draw):
    m, n = draw(dims), draw(dims)
    terms = []
    for _ in range(draw(st.integers(0, 4))):
        weight = draw(st.fractions(min_value=0, max_value=4, max_denominator=12))
        W = draw(st.lists(rationals, min_size=m * n, max_size=m * n))
        terms.append((weight, BilinearForm(m, n, np.array(W, dtype=object).reshape(m, n))))
    return SOSCertificate(m, n, tuple(terms))


@st.composite
def points(draw, length):
    return [draw(rationals) for _ in range(length)]


def through_json(obj_to_dict, obj, from_dict):
    text = jsonio.dumps_canonical(obj_to_dict(obj))
    back = from_dict(json.loads(text))
    assert jsonio.dumps_canonical(obj_to_dict(back)) == text
    return back


@given(tensors())
def test_tensor_json_round_trip(t):
    back = through_json(jsonio.tensor_to_dict, t, jsonio.tensor_from_dict)
    assert (back.m, back.n) == (t.m, t.n)
    assert bool((back.entries == t.entries).all())


@given(certificates())
def test_certificate_json_round_trip(cert):
    back = through_json(jsonio.certificate_to_dict, cert, jsonio.certificate_from_dict)
    assert certificates_equal(back, cert)


@given(st.data())
def test_symmetrize_idempotent_and_preserves_values(data):
    a = data.draw(coefficients())
    s = symmetrize(a)
    assert tensors_equal(symmetrize(s.entries), s)
    x, y = data.draw(points(s.m)), data.draw(points(s.n))
    assert evaluate(s, x, y) == coefficient_form_value(a, x, y)


@given(certificates())
def test_expansion_matches_literal_squares(cert):
    # the expansion's form is the certificate's sum of squares at every point
    t = expand_certificate(cert)
    x = [F(k + 1, 3) for k in range(cert.m)]
    y = [F(2 - k, 5) for k in range(cert.n)]
    assert evaluate(t, x, y) == certificate_value(cert, x, y)


@given(st.data())
def test_dd_certificates_reverify(data):
    t = data.draw(tensors())
    slack = data.draw(st.lists(st.fractions(min_value=0, max_value=2, max_denominator=8),
                               min_size=t.m * t.n, max_size=t.m * t.n))
    dd = with_flat_diagonal(t, [r + s for r, s in zip(offdiag_row_sums(flatten(t)), slack)])
    assert tensors_equal(expand_certificate(dd_sos_decompose(dd)), dd)
    # a dominated flattening is PSD, so the flattening LDL^T certifies it too
    cert = flattening_psd_check(dd)
    assert cert is not None and tensors_equal(expand_certificate(cert), dd)


@given(st.data())
def test_flattening_certificates_reverify(data):
    # squares of rank-one forms (a.x)(b.y) have the PSD flattening
    # sum_p c_p vec(a b^T) vec(a b^T)^T, so the flattening LDL^T certifies them
    m, n = data.draw(dims), data.draw(dims)
    terms = []
    for _ in range(data.draw(st.integers(0, 4))):
        a, b = data.draw(points(m)), data.draw(points(n))
        weight = data.draw(st.fractions(min_value=0, max_value=4, max_denominator=12))
        terms.append((weight, BilinearForm(m, n, np.outer(np.array(a, dtype=object), b))))
    t = expand_certificate(SOSCertificate(m, n, tuple(terms)))
    cert = flattening_psd_check(t)
    assert cert is not None and tensors_equal(expand_certificate(cert), t)
    other = data.draw(tensors(m, n))
    cert = flattening_psd_check(other)
    assert cert is None or tensors_equal(expand_certificate(cert), other)


@given(st.integers(0, 2**32 - 1), st.sampled_from([1, -1]))
def test_numpy_integer_fractions_act_as_python_ints(seed, sign):
    # Fraction keeps numpy integers as its parts, and int64 products of
    # parts up to 1e6 overflow; the exact layer must not see them
    rng = np.random.default_rng(seed)
    m, n = (int(v) for v in rng.integers(2, 4, size=2))
    shape = (m, n, m, n)
    nums, dens = rng.integers(-10**6, 10**6 + 1, shape), rng.integers(1, 10**6 + 1, shape)
    as_numpy = np.array([F(a, b) for a, b in zip(nums.flat, dens.flat)], dtype=object).reshape(shape)
    as_int = np.array([F(int(a), int(b)) for a, b in zip(nums.flat, dens.flat)], dtype=object).reshape(shape)
    assert symmetrize(as_numpy).entries.tolist() == symmetrize(as_int).entries.tolist()
    # a symmetric array from the orbit representatives, with a flattening
    # diagonal of sign * mn * 1e6: diagonally dominant, so positive or
    # negative definite
    for idx in np.ndindex(shape):
        i, j, k, l = idx
        rep = min(idx, (k, j, i, l), (i, l, k, j), (k, l, i, j))
        as_numpy[idx], as_int[idx] = as_numpy[rep], as_int[rep]
        if (i, j) == (k, l):
            as_numpy[idx], as_int[idx] = F(np.int64(sign * m * n * 10**6)), F(sign * m * n * 10**6)
    cert = flattening_psd_check(SymmetricBiquadraticTensor(m, n, as_numpy))
    expected = flattening_psd_check(SymmetricBiquadraticTensor(m, n, as_int))
    assert (cert is None) == (expected is None) == (sign < 0)
    assert cert is None or certificates_equal(cert, expected)


@given(st.integers(2, 4), st.integers(2, 4),
       st.lists(st.integers(0, 9), min_size=4, max_size=4).filter(any))
def test_monic_certificates_reverify(m, n, weights):
    total = sum(weights)
    lam = [F(w, total) for w in weights]
    abc = [sum(l * v[k] for l, v in zip(lam, tetrahedron(m, n))) for k in range(3)]
    p = MonicParams(m, n, *abc)
    cert = monic_sos_decompose(p)
    assert cert is not None
    assert tensors_equal(expand_certificate(cert), monic_to_tensor(p))


@st.composite
def integer_square_sums(draw):
    """A sum of at least mn squares of m x n bilinear forms with integer
    coefficients in [-3, 3], for m, n in {2, 3, 4}."""
    m, n = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    count = draw(st.integers(m * n, m * n + 2))
    values = draw(st.lists(st.integers(-3, 3), min_size=count * m * n, max_size=count * m * n))
    forms = np.array(values).reshape(count, m, n)
    return expand_certificate(SOSCertificate(m, n, tuple(
        (F(1), bilinear_form(m, n, W.tolist())) for W in forms)))


@given(integer_square_sums())
def test_probe_matches_the_full_solve(t):
    # stopping the barrier once rounding is sure changes the Gram point,
    # never the verdict
    res, full = sos_probe(t), full_solve_probe(t)
    assert res.status == full.status
    assert res.iterations <= full.iterations
    for r in (res, full):
        assert (r.certificate is not None) == r.certified
        assert r.certificate is None or tensors_equal(expand_certificate(r.certificate), t)
