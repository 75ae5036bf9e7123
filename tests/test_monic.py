"""Monic classification, tetrahedron geometry, vertex certificates, and the
barycentric decomposition. The eigenvalue formulas are cross-checked against
exact form evaluations at explicit witness vectors."""

from fractions import Fraction as F

import numpy as np
import pytest

from biquad.core import (
    MonicParams,
    SOSCertificate,
    SymmetricBiquadraticTensor,
    evaluate,
    expand_certificate,
    monic_to_tensor,
    sample_min,
    tensors_equal,
)
from biquad import jsonio, monic
from biquad.classes import m_identity
from biquad.monic import (
    barycentric,
    m_eigen_monic,
    membership_equivalence_check,
    merge_proportional,
    monic_sos_decompose,
    psd_conditions,
    symmetric_sos_decompose,
    tetrahedron,
    vertex_sos,
)

from conftest import bilinear_form, certificates_equal, face_barycentric, nonzero_terms, random_rational

ALL_SIZES = [(m, n) for m in range(2, 9) for n in range(2, 9)]


def witness_values(p: MonicParams):
    """The first four critical values computed as exact form evaluations.

    (i)  at x = ones/sqrt(m), y = (1,-1,0,..)/sqrt(2): P(1_m, u_n) / (2m)
    (ii) symmetric in the roles
    (iii) at two sign vectors: P(u_m, u_n) / 4
    (iv) at the normalized ones pair: P(1_m, 1_n) / (mn)
    """
    t = monic_to_tensor(p)
    m, n = p.m, p.n
    ones_m = [F(1)] * m
    ones_n = [F(1)] * n
    u_m = [F(1), F(-1)] + [F(0)] * (m - 2)
    u_n = [F(1), F(-1)] + [F(0)] * (n - 2)
    return (
        evaluate(t, ones_m, u_n) / (2 * m),
        evaluate(t, u_m, ones_n) / (2 * n),
        evaluate(t, u_m, u_n) / 4,
        evaluate(t, ones_m, ones_n) / (m * n),
    )


class TestEigenReport:
    def test_zero_params_all_one(self):
        report = m_eigen_monic(MonicParams(3, 4, 0, 0, 0))
        for lab in ("i", "ii", "iii", "iv"):
            assert report[lab] == 1
        assert report["v"] is None

    def test_ones_at_3x3(self):
        psd, report = psd_conditions(MonicParams(3, 3, 1, 1, 1))
        assert psd
        assert report["i"] == 0
        assert report["ii"] == 0
        assert report["iii"] == 0
        assert report["iv"] == 9

    def test_v2_vertex_4x3(self):
        psd, report = psd_conditions(MonicParams(4, 3, F(-1, 3), F(-1, 2), F(1, 6)))
        assert psd
        assert report["iv"] == 0

    def test_v_applicability_interval(self):
        # a/c = 2 falls outside [1-n, 1) = [-1, 1) at n = 2
        report = m_eigen_monic(MonicParams(2, 2, F(1, 2), F(1, 2), F(1, 4)))
        assert report["v"] is None

    def test_v_applicable_point(self):
        # a/c = 1/2 and b/c = -1 both sit in [1-n, 1) = [-1, 1) at m = n = 2
        report = m_eigen_monic(MonicParams(2, 2, F(-1, 4), F(1, 2), F(-1, 2)))
        assert report["v"] == F(3, 4)

    def test_closed_forms_match_witness_evaluations(self, rng):
        for _ in range(40):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            p = MonicParams(m, n, random_rational(rng), random_rational(rng), random_rational(rng))
            report = m_eigen_monic(p)
            wi, wii, wiii, wiv = witness_values(p)
            assert report["i"] == wi
            assert report["ii"] == wii
            assert report["iii"] == wiii
            assert report["iv"] == wiv

    def test_v1_lies_on_facet_iii(self):
        for m, n in [(2, 2), (3, 4), (5, 2)]:
            report = m_eigen_monic(MonicParams(m, n, 1, 1, 1))
            assert report["iii"] == 0
            assert min(v for v in report.values() if v is not None) == 0


class TestTetrahedron:
    def test_4x3_vertices(self):
        tet = tetrahedron(4, 3)
        assert tet[0] == (1, 1, 1)
        assert tet[1] == (F(-1, 3), F(-1, 2), F(1, 6))
        assert tet[2] == (F(-1, 3), 1, F(-1, 3))
        assert tet[3] == (1, F(-1, 2), F(-1, 2))

    def test_4x4_vertices(self):
        tet = tetrahedron(4, 4)
        assert tet[1] == (F(-1, 3), F(-1, 3), F(1, 9))
        assert tet[2] == (F(-1, 3), 1, F(-1, 3))
        assert tet[3] == (1, F(-1, 3), F(-1, 3))

    def test_2x2_vertices(self):
        tet = tetrahedron(2, 2)
        assert tet == ((1, 1, 1), (-1, -1, 1), (-1, 1, -1), (1, -1, -1))

    def test_each_vertex_ties_exactly_three_conditions(self):
        for m, n in [(2, 2), (3, 2), (4, 3), (5, 5)]:
            tet = tetrahedron(m, n)
            for v in range(1, 5):
                a, b, c = tet[v - 1]
                report = m_eigen_monic(MonicParams(m, n, a, b, c))
                vals = [report[lab] for lab in ("i", "ii", "iii", "iv")]
                assert all(val >= 0 for val in vals)
                assert sum(1 for val in vals if val == 0) == 3

    def test_vertices_inside_unit_box(self):
        # the four inequalities confine (a, b, c) to [-1, 1]^3 for m, n >= 2;
        # checked per dimension pair on the vertices rather than asserted in
        # general
        for m in range(2, 7):
            for n in range(2, 7):
                for vert in tetrahedron(m, n):
                    assert all(-1 <= coord <= 1 for coord in vert)


class TestBarycentric:
    def test_centroid(self):
        tet = tetrahedron(3, 2)
        centroid = tuple(sum(v[k] for v in tet) / 4 for k in range(3))
        lam = barycentric(MonicParams(3, 2, *centroid))
        assert lam == (F(1, 4), F(1, 4), F(1, 4), F(1, 4))

    def test_vertex_is_unit_coordinate(self):
        tet = tetrahedron(4, 3)
        lam = barycentric(MonicParams(4, 3, *tet[2]))
        assert lam == (0, 0, 1, 0)

    def test_origin_at_2x2_is_centroid(self):
        lam = barycentric(MonicParams(2, 2, 0, 0, 0))
        assert lam == (F(1, 4), F(1, 4), F(1, 4), F(1, 4))

    def test_outside_returns_none(self):
        assert barycentric(MonicParams(2, 2, 2, 0, 0)) is None

    def test_reconstructs_point(self, rng):
        for _ in range(20):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            p = MonicParams(m, n, random_rational(rng, lo=-1, hi=1),
                            random_rational(rng, lo=-1, hi=1),
                            random_rational(rng, lo=-1, hi=1))
            lam = barycentric(p)
            if lam is None:
                continue
            tet = tetrahedron(m, n)
            assert sum(lam) == 1
            for k in range(3):
                assert sum(w * tet[v][k] for v, w in enumerate(lam)) == p.abc[k]


def convex_point(rng, m, n, zeros=0):
    """A point of the (m, n) tetrahedron with random integer barycentric
    weights, ``zeros`` of them set to 0 (1: a face, 2: an edge)."""
    tet = tetrahedron(m, n)
    weights = [F(int(rng.integers(1, 10))) for _ in range(4)]
    for v in rng.choice(4, zeros, replace=False):
        weights[v] = F(0)
    s = sum(weights)
    return MonicParams(m, n, *(sum(w * vert[k] for w, vert in zip(weights, tet)) / s
                               for k in range(3)))


class TestClosedFormBarycentric:
    """The solve of [V1..V4; 1 1 1 1] lam = [(a,b,c); 1] against the scaled
    critical values (i)-(iv)."""

    @pytest.mark.parametrize("m,n", ALL_SIZES)
    def test_equals_scaled_critical_values_at_the_four_vertices(self, m, n):
        # both sides are affine in (a, b, c) and the vertices are affinely
        # independent, so agreement here proves the identity for this (m, n)
        for v, vert in enumerate(tetrahedron(m, n)):
            p = MonicParams(m, n, *vert)
            assert barycentric(p) == face_barycentric(p)
            assert barycentric(p) == tuple(F(int(k == v)) for k in range(4))

    @pytest.mark.parametrize("m,n", ALL_SIZES)
    def test_equals_scaled_critical_values_at_random_points(self, m, n):
        rng = np.random.default_rng([m, n])
        points = [convex_point(rng, m, n, zeros=k % 3) for k in range(100)]
        points += [MonicParams(m, n, *(random_rational(rng, lo=-2, hi=2) for _ in range(3)))
                   for _ in range(100)]
        inside = 0
        for p in points:
            lam = barycentric(p)
            assert lam == face_barycentric(p)
            assert lam is None or all(isinstance(w, F) for w in lam)
            inside += lam is not None
        assert 100 <= inside < 200  # the box points are not all inside


class TestMembershipEquivalence:
    def test_small_grid_3x3(self):
        vals = [F(k, 2) for k in range(-4, 5)]  # -2 .. 2 step 1/2
        for a in vals:
            for b in vals:
                for c in vals:
                    assert membership_equivalence_check(MonicParams(3, 3, a, b, c))

    def test_v2_vertex_4x3_agrees(self):
        p = MonicParams(4, 3, F(-1, 3), F(-1, 2), F(1, 6))
        assert membership_equivalence_check(p)
        assert psd_conditions(p)[0]
        assert barycentric(p) is not None

    def test_far_point_agrees_on_false(self):
        p = MonicParams(2, 2, 2, 0, 0)
        assert membership_equivalence_check(p)
        psd, report = psd_conditions(p)
        assert not psd
        assert report["iii"] == -1


class TestMembershipAuditCatchesMutants:
    """The audit compares two derivations, so breaking either one shows."""

    GRID = [MonicParams(3, 4, F(a, 2), F(b, 2), F(c, 2))
            for a in range(-3, 4) for b in range(-3, 4) for c in range(-3, 4)]

    def disagreements(self):
        return sum(not membership_equivalence_check(p) for p in self.GRID)

    def test_unmutated_grid_agrees(self):
        assert self.disagreements() == 0

    def test_wrong_vertex_table(self, monkeypatch):
        real = monic.tetrahedron

        def moved_v4(m, n):
            v1, v2, v3, v4 = real(m, n)
            return v1, v2, v3, (v4[0], v4[1], v4[2] + F(1, 2))

        monkeypatch.setattr(monic, "tetrahedron", moved_v4)
        assert self.disagreements() > 0

    def test_wrong_critical_value(self, monkeypatch):
        real = monic.m_eigen_monic

        def wrong_iii(p):
            report = real(p)
            return {**report, "iii": report["iii"] + F(1, 2)}

        monkeypatch.setattr(monic, "m_eigen_monic", wrong_iii)
        assert self.disagreements() > 0


class TestVertexSOS:
    def test_term_counts(self):
        m, n = 4, 3
        assert len(vertex_sos(1, m, n).terms) == 1
        assert len(vertex_sos(2, m, n).terms) == 18  # C(4,2) * C(3,2)
        assert len(vertex_sos(3, m, n).terms) == 6
        assert len(vertex_sos(4, m, n).terms) == 3

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (4, 3), (3, 4)])
    def test_expansions_match_vertex_parameters(self, m, n):
        tet = tetrahedron(m, n)
        for v in range(1, 5):
            cert = vertex_sos(v, m, n)
            expected = monic_to_tensor(MonicParams(m, n, *tet[v - 1]))
            assert tensors_equal(expand_certificate(cert), expected)

    def test_v1_single_square_2x2(self):
        cert = vertex_sos(1, 2, 2)
        assert len(cert.terms) == 1
        assert tensors_equal(expand_certificate(cert), monic_to_tensor(MonicParams(2, 2, 1, 1, 1)))

    def test_v2_weights(self):
        cert = vertex_sos(2, 4, 3)
        assert all(w == F(1, 6) for w, _ in cert.terms)


class TestMonicSOSDecompose:
    def test_identity_point(self):
        cert = monic_sos_decompose(MonicParams(2, 2, 0, 0, 0))
        assert cert is not None
        assert len(nonzero_terms(cert)) <= 4
        assert tensors_equal(expand_certificate(cert), m_identity(2, 2))

    def test_pure_vertex_is_vertex_certificate(self):
        p = MonicParams(4, 3, 1, F(-1, 2), F(-1, 2))  # V4
        cert = monic_sos_decompose(p)
        ref = vertex_sos(4, 4, 3)
        assert len(cert.terms) == len(ref.terms)
        assert tensors_equal(expand_certificate(cert), expand_certificate(ref))

    def test_interior_point_3x3(self):
        p = MonicParams(3, 3, F(1, 2), F(1, 2), F(1, 2))
        cert = monic_sos_decompose(p)
        assert cert is not None
        assert tensors_equal(expand_certificate(cert), monic_to_tensor(p))

    def test_outside_returns_none(self):
        assert monic_sos_decompose(MonicParams(2, 2, 2, 0, 0)) is None

    def test_random_inside_points_roundtrip(self, rng):
        for _ in range(10):
            m = int(rng.integers(2, 5))
            n = int(rng.integers(2, 5))
            tet = tetrahedron(m, n)
            weights = [F(int(rng.integers(0, 10))) for _ in range(4)]
            if sum(weights) == 0:
                weights[0] = F(1)
            s = sum(weights)
            lam = [w / s for w in weights]
            abc = tuple(sum(lam[v] * tet[v][k] for v in range(4)) for k in range(3))
            p = MonicParams(m, n, *abc)
            cert = monic_sos_decompose(p)
            assert cert is not None
            assert all(w >= 0 for w, _ in cert.terms)
            assert tensors_equal(expand_certificate(cert), monic_to_tensor(p))


class TestDecomposeNeedsNoMerge:
    @pytest.mark.parametrize("m,n", [(m, n) for m in range(2, 6) for n in range(2, 6)])
    def test_merge_is_identity(self, m, n):
        rng = np.random.default_rng([m, n, 7])
        points = [MonicParams(m, n, *vert) for vert in tetrahedron(m, n)]
        points += [convex_point(rng, m, n, zeros=z) for z in (0, 0, 0, 1, 1, 1, 1, 2, 2)]
        for p in points:
            cert = monic_sos_decompose(p)
            assert certificates_equal(merge_proportional(cert), cert)
            text = jsonio.certificate_text(cert)
            assert jsonio.certificate_text(merge_proportional(cert)) == text


class TestMergeProportional:
    def test_merges_scaled_forms(self):
        W1 = bilinear_form(2, 2, [[1, 0], [0, 1]])
        W2 = bilinear_form(2, 2, [[2, 0], [0, 2]])
        cert = SOSCertificate(2, 2, ((F(1), W1), (F(1), W2)))
        merged = merge_proportional(cert)
        assert len(merged.terms) == 1
        assert merged.terms[0][0] == 5  # 1 * 1^2 + 1 * 2^2
        assert tensors_equal(expand_certificate(merged), expand_certificate(cert))

    def test_distinct_forms_untouched(self):
        cert = vertex_sos(2, 3, 3)
        merged = merge_proportional(cert)
        assert len(merged.terms) == len(cert.terms)


class TestSymmetricSOSDecompose:
    def test_zero_tensor_empty_certificate(self):
        t = SymmetricBiquadraticTensor.zeros(2, 2)
        cert = symmetric_sos_decompose(t)
        assert cert is not None
        assert len(cert.terms) == 0

    def test_scaled_identity(self):
        # (0,0,0) sits at the barycenter, so the certificate is the four
        # sign-vector squares at weight 1/4 each; scaling by 3 scales the
        # weights to 3/4.
        t = SymmetricBiquadraticTensor(2, 2, m_identity(2, 2).entries * F(3))
        cert = symmetric_sos_decompose(t)
        assert cert is not None
        assert len(nonzero_terms(cert)) == 4
        assert all(w == F(3, 4) for w, _ in nonzero_terms(cert))
        assert tensors_equal(expand_certificate(cert), t)

    def test_negative_diagonal_returns_none(self):
        t = SymmetricBiquadraticTensor(2, 2, m_identity(2, 2).entries * F(-1))
        assert symmetric_sos_decompose(t) is None

    def test_scaled_non_psd_monic_returns_none(self):
        p = MonicParams(2, 3, F(2), F(0), F(0))
        assert not psd_conditions(p)[0]
        t = SymmetricBiquadraticTensor(2, 3, monic_to_tensor(p).entries * F(7, 2))
        assert symmetric_sos_decompose(t) is None

    def test_non_symmetric_form_rejected(self):
        arr = m_identity(2, 2).entries.copy()
        arr[0, 0, 0, 0] = F(2)  # unequal diagonal breaks x-permutation symmetry
        with pytest.raises(ValueError):
            symmetric_sos_decompose(SymmetricBiquadraticTensor(2, 2, arr))

    def test_scaling_invariance(self):
        p = MonicParams(3, 2, F(-1, 4), F(1, 3), F(1, 12))
        base = monic_to_tensor(p)
        d = F(5, 3)
        scaled = SymmetricBiquadraticTensor(3, 2, base.entries * d)
        cert_base = symmetric_sos_decompose(base)
        cert_scaled = symmetric_sos_decompose(scaled)
        assert (cert_base is None) == (cert_scaled is None)
        if cert_base is not None:
            ws_base = [w for w, _ in cert_base.terms]
            ws_scaled = [w for w, _ in cert_scaled.terms]
            assert ws_scaled == [d * w for w in ws_base]
            assert tensors_equal(expand_certificate(cert_scaled), scaled)


class TestClassifierSamplerConsistency:
    def test_non_psd_points_have_negative_samples(self, rng):
        found = 0
        while found < 6:
            p = MonicParams(int(rng.integers(2, 4)), int(rng.integers(2, 4)),
                            random_rational(rng, denom=10, lo=-2, hi=2),
                            random_rational(rng, denom=10, lo=-2, hi=2),
                            random_rational(rng, denom=10, lo=-2, hi=2))
            psd, _ = psd_conditions(p)
            if psd:
                continue
            found += 1
            val, _, _ = sample_min(monic_to_tensor(p), 24, seed=found)
            assert val < -1e-7

    def test_psd_points_have_no_negative_samples(self, rng):
        for k in range(6):
            m = int(rng.integers(2, 4))
            n = int(rng.integers(2, 4))
            tet = tetrahedron(m, n)
            weights = [F(int(rng.integers(0, 8))) for _ in range(4)]
            if sum(weights) == 0:
                weights[2] = F(1)
            s = sum(weights)
            abc = tuple(sum(w / s * tet[v][k2] for v, w in enumerate(weights))
                        for k2 in range(3))
            val, _, _ = sample_min(monic_to_tensor(MonicParams(m, n, *abc)), 12, seed=k)
            assert val >= -1e-9
