"""Tensor representation, symmetrization, evaluation, and certificate
expansion, checked exactly against independent oracles."""

from fractions import Fraction as F

import numpy as np
import pytest

from biquad.core import (
    BilinearForm,
    MonicParams,
    SOSCertificate,
    SymmetricBiquadraticTensor,
    evaluate,
    expand_certificate,
    monic_to_tensor,
    rational,
    sample_min,
    symmetrize,
    tensors_equal,
)
from biquad.classes import m_identity

from conftest import (
    bilinear_form,
    certificate_value,
    coefficient_form_value,
    has_biquadratic_symmetry,
    monic_form_value,
    random_rational_vector,
    random_symmetric_tensor,
)


def test_rational_rejects_floats():
    with pytest.raises(TypeError):
        rational(0.5)
    assert rational("3/4") == F(3, 4)
    assert rational(7) == F(7)


def test_entries_are_read_only():
    t = m_identity(2, 2)
    with pytest.raises(ValueError):
        t.entries[0, 0, 0, 0] = F(2)


def test_fields_cannot_be_assigned():
    t = m_identity(2, 2)
    form = BilinearForm(1, 1, [[1]])
    cert = SOSCertificate(1, 1, ((F(1), form),))
    for value, name in ((t, "m"), (form, "rows"), (cert, "terms")):
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert (t.m, form.rows, cert.terms) == (2, ((F(1),),), ((F(1), form),))


def test_constructor_rejects_float_entries():
    # this tensor used to build, and evaluate returned the float 0.5
    with pytest.raises(TypeError):
        SymmetricBiquadraticTensor(1, 1, np.array([[[[0.5]]]], dtype=object))


@pytest.mark.parametrize("W", [
    np.array([[0.5]], dtype=object),
    np.array([[0.5]]),
    np.array([[np.float32(0.5)]], dtype=object),
])
def test_bilinear_form_rejects_float_entries(W):
    # BilinearForm(1, 1, np.array([[0.5]], dtype=object)) used to build, and
    # a certificate holding it expanded with float arithmetic
    with pytest.raises(TypeError, match="exact rational"):
        BilinearForm(1, 1, W)


def test_bilinear_form_keeps_exact_entries():
    form = BilinearForm(1, 2, np.array([[F(1, 2), 3]], dtype=object))
    assert form.W.tolist() == [[F(1, 2), 3]]
    with pytest.raises(ValueError):
        form.W[0, 0] = F(2)


def test_bilinear_form_coerces_entries_like_the_tensor():
    W = np.array([[F(1, 2), 3, np.int64(-4), " 5/6", True, F(np.int64(2), np.int64(4))]],
                 dtype=object)
    form = BilinearForm(1, 6, W)
    assert form.W.tolist() == [[F(1, 2), 3, -4, F(5, 6), 1, F(1, 2)]]
    assert all(type(v) is F for v in form.W.flat)
    assert all(type(v.numerator) is int for v in form.W.flat)


def test_bilinear_form_of_strings_expands_exactly():
    # a W of strings used to build, and expand_certificate raised AttributeError
    form = BilinearForm(1, 2, np.array([["1/2", "-3"]], dtype=object))
    t = expand_certificate(SOSCertificate(1, 2, ((F(2), form),)))
    # 2 (x1 y1 / 2 - 3 x1 y2)^2 = x1^2 y1^2 / 2 - 6 x1^2 y1 y2 + 18 x1^2 y2^2
    assert t.entries.reshape(-1).tolist() == [F(1, 2), -3, -3, 18]


def test_constructor_turns_ints_into_fractions():
    t = SymmetricBiquadraticTensor(1, 2, np.array([[[[1, 2]], [[2, 3]]]]))
    assert t.entries.reshape(-1).tolist() == [1, 2, 2, 3]
    assert all(type(v) is F for v in t.entries.flat)


def test_symmetric_constructor_rejects_asymmetry():
    arr = SymmetricBiquadraticTensor.zeros(2, 2).entries.copy()
    arr[0, 0, 1, 0] = F(1)  # partner slot (1,0,0,0) left at 0
    with pytest.raises(ValueError):
        SymmetricBiquadraticTensor(2, 2, arr)


class TestSymmetrize:
    def test_projection_idempotent_on_symmetric_input(self, rng):
        t = random_symmetric_tensor(rng, 3, 2)
        assert tensors_equal(symmetrize(t.entries), t)

    def test_single_entry_tensor(self):
        s = symmetrize(np.array([[[[F(5)]]]], dtype=object))
        assert (s.m, s.n) == (1, 1)
        assert s.entries[0, 0, 0, 0] == F(5)

    def test_orbit_average_m2_n1(self):
        # a_1121 = 4 with its orbit partner a_2111 = 0 averages to 2 on both.
        arr = SymmetricBiquadraticTensor.zeros(2, 1).entries.copy()
        arr[0, 0, 1, 0] = F(4)
        s = symmetrize(arr)
        assert s.entry(1, 1, 2, 1) == F(2)
        assert s.entry(2, 1, 1, 1) == F(2)
        assert coefficient_form_value(arr, [1, 2], [1]) == evaluate(s, [1, 2], [1])

    def test_evaluation_preserved_at_random_points(self, rng):
        for m, n in [(2, 2), (3, 2), (2, 4)]:
            arr = np.empty((m, n, m, n), dtype=object)
            for idx in np.ndindex(m, n, m, n):
                arr[idx] = F(int(rng.integers(-10, 11)), 7)
            s = symmetrize(arr)
            for _ in range(20):
                x = random_rational_vector(rng, m)
                y = random_rational_vector(rng, n)
                assert coefficient_form_value(arr, x, y) == evaluate(s, x, y)

    def test_int_entries_give_fractions(self):
        arr = np.zeros((1, 2, 1, 2), dtype=object)
        arr[0, 0, 0, 1] = 1
        s = symmetrize(arr)
        assert s.entries.reshape(-1).tolist() == [0, F(1, 2), F(1, 2), 0]
        assert all(type(v) is F for v in s.entries.flat)

    def test_float_entries_rejected(self):
        arr = np.zeros((1, 2, 1, 2), dtype=object)
        arr[0, 0, 0, 1] = 0.5
        with pytest.raises(TypeError):
            symmetrize(arr)

    def test_output_satisfies_full_symmetry_chain(self, rng):
        arr = np.empty((3, 3, 3, 3), dtype=object)
        for idx in np.ndindex(3, 3, 3, 3):
            arr[idx] = F(int(rng.integers(-5, 6)))
        assert has_biquadratic_symmetry(symmetrize(arr).entries)


class TestEvaluate:
    def test_m_identity_gives_norm_product(self, rng):
        t = m_identity(3, 2)
        for _ in range(10):
            x = random_rational_vector(rng, 3)
            y = random_rational_vector(rng, 2)
            expected = sum(v * v for v in x) * sum(v * v for v in y)
            assert evaluate(t, x, y) == expected

    def test_zero_tensor(self):
        t = SymmetricBiquadraticTensor.zeros(2, 3)
        assert evaluate(t, [1, 2], [3, 4, 5]) == 0

    def test_monic_ones_is_sum_product_square(self):
        t = monic_to_tensor(MonicParams(2, 2, 1, 1, 1))
        assert evaluate(t, [1, 1], [1, 1]) == 16

    def test_dimension_mismatch(self):
        t = m_identity(2, 2)
        with pytest.raises(ValueError):
            evaluate(t, [1, 2, 3], [1, 2])
        with pytest.raises(ValueError):
            evaluate(t, [1, 2], [1])


class TestMonicToTensor:
    def test_zero_params_give_identity(self):
        t = monic_to_tensor(MonicParams(2, 2, 0, 0, 0))
        assert tensors_equal(t, m_identity(2, 2))

    def test_ones_evaluates_as_product_square(self, rng):
        t = monic_to_tensor(MonicParams(2, 2, 1, 1, 1))
        for _ in range(10):
            x = random_rational_vector(rng, 2)
            y = random_rational_vector(rng, 2)
            assert evaluate(t, x, y) == (x[0] + x[1]) ** 2 * (y[0] + y[1]) ** 2

    def test_against_term_by_term_oracle(self, rng):
        p = MonicParams(3, 2, 2, -3, F(1, 2))
        t = monic_to_tensor(p)
        # frozen oracle spot checks
        assert evaluate(t, [F(1), F(2), F(-1)], [F(1), F(1)]) == F(-34)
        assert evaluate(t, [F(1, 2), F(-1, 3), F(1)], [F(2), F(-1, 5)]) == F(7889, 900)
        for _ in range(20):
            x = random_rational_vector(rng, 3)
            y = random_rational_vector(rng, 2)
            assert evaluate(t, x, y) == monic_form_value(3, 2, p.a, p.b, p.c, x, y)

    def test_coefficient_readback(self):
        p = MonicParams(4, 3, F(-1, 3), F(5, 7), F(2))
        t = monic_to_tensor(p)
        assert t.entry(1, 1, 2, 1) == p.a
        assert t.entry(1, 1, 1, 2) == p.b
        assert t.entry(1, 1, 2, 2) == p.c
        assert t.entry(1, 1, 1, 1) == 1

    def test_rejects_small_dimensions(self):
        with pytest.raises(ValueError):
            MonicParams(1, 2, 0, 0, 0)
        with pytest.raises(ValueError):
            MonicParams(2, 1, 0, 0, 0)

    def test_coerces_and_compares_by_value(self):
        p = MonicParams(2, 3, "1/2", np.int64(-1), F(2, 6))
        assert p.abc == (F(1, 2), F(-1), F(1, 3))
        assert all(type(v) is F and type(v.numerator) is int for v in p.abc)
        q = MonicParams(2, 3, F(1, 2), -1, "1/3")
        assert p == q and hash(p) == hash(q)
        assert p != MonicParams(3, 2, F(1, 2), -1, "1/3")
        with pytest.raises(TypeError):
            MonicParams(2, 2, 0.5, 0, 0)
        with pytest.raises(ValueError):
            p._replace(m=1)
        assert p._replace(a="2") == MonicParams(2, 3, 2, -1, F(1, 3))


class TestExpandCertificate:
    def test_single_unit_square(self):
        cert = SOSCertificate(2, 2, ((F(1), BilinearForm(2, 2, [[1, 0], [0, 0]])),))
        t = expand_certificate(cert)
        assert t.entry(1, 1, 1, 1) == 1
        assert sum(1 for v in t.entries.flat if v != 0) == 1

    def test_empty_certificate_is_zero(self):
        t = expand_certificate(SOSCertificate(2, 3, ()))
        assert t.is_zero()

    def test_v2_square_at_2x2(self):
        # ((x1 - x2)(y1 - y2))^2 with weight 1/((m-1)(n-1)) = 1
        W = bilinear_form(2, 2, [[1, -1], [-1, 1]])
        cert = SOSCertificate(2, 2, ((F(1), W),))
        t = expand_certificate(cert)
        assert tensors_equal(t, monic_to_tensor(MonicParams(2, 2, -1, -1, 1)))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            SOSCertificate(2, 2, ((F(-1), BilinearForm(2, 2, [[1, 0], [0, 0]])),))

    @pytest.mark.parametrize("entry,square", [
        (F(np.int64(2**32), np.int64(1)), 2**64),  # the x1^2 y1^2 coefficient read 0
        (F(2**32, np.int64(3)), F(2**64, 9)),  # a numpy-int denominator alone
    ])
    def test_numpy_int_parts_expand_exactly(self, entry, square):
        form = BilinearForm(1, 1, np.array([[entry]], dtype=object))
        t = expand_certificate(SOSCertificate(1, 1, ((F(1), form),)))
        assert t.entries[0, 0, 0, 0] == square

    def test_expansion_matches_literal_squares(self, rng):
        terms = []
        for _ in range(4):
            W = np.empty((3, 2), dtype=object)
            for idx in np.ndindex(3, 2):
                W[idx] = F(int(rng.integers(-4, 5)), 3)
            terms.append((F(int(rng.integers(0, 5)), 2), BilinearForm(3, 2, W)))
        cert = SOSCertificate(3, 2, tuple(terms))
        t = expand_certificate(cert)
        for _ in range(20):
            x = random_rational_vector(rng, 3)
            y = random_rational_vector(rng, 2)
            assert evaluate(t, x, y) == certificate_value(cert, x, y)


class TestTensorsEqual:
    def test_reflexive(self, rng):
        t = random_symmetric_tensor(rng, 2, 3)
        assert tensors_equal(t, t)

    def test_tiny_perturbation_detected(self):
        t = m_identity(2, 2)
        arr = t.entries.copy()
        arr[0, 0, 0, 0] += F(1, 10**9)
        assert not tensors_equal(t, SymmetricBiquadraticTensor(2, 2, arr))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            tensors_equal(m_identity(2, 2), m_identity(2, 3))


class TestSampleMin:
    def test_m_identity_floor(self):
        val, _, _ = sample_min(m_identity(2, 2), 5, seed=11)
        assert val >= 1 - 1e-9

    def test_negative_monic_found(self):
        # condition (iv) at m=n=2: 1 + a + b + c = -2 < 0
        t = monic_to_tensor(MonicParams(2, 2, -1, -1, -1))
        val, x, y = sample_min(t, 10, seed=7)
        assert val < -1e-7
        # the returned pair witnesses the value
        got = evaluate(t, [float(v) for v in x], [float(v) for v in y])
        assert abs(got - val) < 1e-8

    def test_zero_tensor(self):
        val, _, _ = sample_min(SymmetricBiquadraticTensor.zeros(2, 2), 3, seed=0)
        assert abs(val) < 1e-12

    def test_deterministic_per_seed(self):
        t = monic_to_tensor(MonicParams(2, 3, F(1, 2), F(-1, 4), F(1, 8)))
        a = sample_min(t, 6, seed=42)
        b = sample_min(t, 6, seed=42)
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1]) and np.array_equal(a[2], b[2])

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            sample_min(m_identity(2, 2), 0, seed=0)
