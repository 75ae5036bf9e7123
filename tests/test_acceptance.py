"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here and nowhere else: exact (zero-tolerance)
comparisons for everything rational, -1e-7 / -1e-9 for the float probes.
"""

import csv
import json
import time
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest

from biquad import exactla
from biquad.classes import gen_tensor, m_identity
from biquad.cli import main
from biquad.core import (
    MonicParams,
    evaluate,
    expand_certificate,
    monic_to_tensor,
    sample_min,
    tensors_equal,
)
from biquad.dominance import dd_sos_decompose, row_bound
from biquad.gram import choi_form, sos_probe
from biquad.monic import (
    barycentric,
    m_eigen_monic,
    merge_proportional,
    monic_sos_decompose,
    psd_conditions,
    tetrahedron,
    vertex_sos,
)

from conftest import nonzero_terms

GRID_VALUES = [F(-2) + F(k, 5) for k in range(21)]
DIM_PAIRS = [(m, n) for m in (2, 3, 4) for n in (2, 3, 4)]

_state: dict = {}


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


@pytest.fixture(scope="module")
def dd_corpus():
    """500 random diagonally dominated tensors, m, n in 1..5."""
    corpus = []
    for trial in range(500):
        rng = np.random.default_rng([101, trial])
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        corpus.append(gen_tensor("dd", m, n, rng))
    return corpus


def test_c01_dd_roundtrip(dd_corpus):
    t0 = time.perf_counter()
    good = 0
    for t in dd_corpus:
        cert = dd_sos_decompose(t)
        assert all(w >= 0 for w, _ in cert.terms)
        if tensors_equal(expand_certificate(cert), t):
            good += 1
    elapsed = time.perf_counter() - t0
    ok = good == 500 and elapsed < 30.0
    report("01 dd-roundtrip", ok, f"{good}/500 exact round trips in {elapsed:.1f}s, 0 tolerance")
    assert good == 500
    assert elapsed < 30.0


def test_c02_row_sum_equivalence(dd_corpus):
    checked = 0
    for t in dd_corpus:
        M = t.rows
        for i in range(1, t.m + 1):
            for j in range(1, t.n + 1):
                p = (i - 1) * t.n + (j - 1)
                off = sum(abs(M[p][q]) for q in range(t.m * t.n) if q != p)
                assert row_bound(t, i, j) == off
                checked += 1
    report("02 row-sum-equivalence", True, f"{checked} rows across 500 tensors, exact")


def test_c03_vertex_tables():
    t43 = tetrahedron(4, 3)
    t44 = tetrahedron(4, 4)
    expected_43 = (
        (1, 1, 1),
        (F(-1, 3), F(-1, 2), F(1, 6)),
        (F(-1, 3), 1, F(-1, 3)),
        (1, F(-1, 2), F(-1, 2)),
    )
    expected_44 = (
        (1, 1, 1),
        (F(-1, 3), F(-1, 3), F(1, 9)),
        (F(-1, 3), 1, F(-1, 3)),
        (1, F(-1, 3), F(-1, 3)),
    )
    ok = t43 == expected_43 and t44 == expected_44
    report("03 vertex-tables", ok, "tetrahedron(4,3) and tetrahedron(4,4) exact")
    assert t43 == expected_43
    assert t44 == expected_44


def test_c04_classifier_equivalence_grid():
    t0 = time.perf_counter()
    points = 0
    psd_33 = []
    for m, n in DIM_PAIRS:
        for a in GRID_VALUES:
            for b in GRID_VALUES:
                for c in GRID_VALUES:
                    p = MonicParams(m, n, a, b, c)
                    psd, rep = psd_conditions(p)
                    inside = barycentric(p) is not None
                    eig_ok = min(v for v in rep.values() if v is not None) >= 0
                    assert psd == inside == eig_ok, f"disagreement at {(m, n, a, b, c)}"
                    first_four = all(rep[lab] >= 0 for lab in ("i", "ii", "iii", "iv"))
                    if first_four and rep["v"] is not None:
                        assert rep["v"] >= 0, f"(v) not redundant at {(m, n, a, b, c)}"
                    if psd and m == 3 and n == 3:
                        psd_33.append(p)
                    points += 1
    elapsed = time.perf_counter() - t0
    _state["psd_33"] = psd_33
    ok = elapsed < 300.0
    report("04 classifier-grid", ok,
           f"{points} points over {len(DIM_PAIRS)} dim pairs agree; "
           f"(i)-(iv) imply (v); {elapsed:.1f}s")
    assert points == 21 ** 3 * 9
    assert elapsed < 300.0


def test_c05_constructive_sos():
    from math import comb

    roundtrips = 0
    for m, n in DIM_PAIRS:
        tet = tetrahedron(m, n)
        # pure vertices reproduce the closed-form certificates and counts
        expected_counts = (1, comb(m, 2) * comb(n, 2), comb(m, 2), comb(n, 2))
        for v in range(1, 5):
            cert = monic_sos_decompose(MonicParams(m, n, *tet[v - 1]))
            ref = vertex_sos(v, m, n)
            assert len(nonzero_terms(cert)) == expected_counts[v - 1]
            assert tensors_equal(expand_certificate(cert), expand_certificate(ref))
        # 200 random interior points per dimension pair
        rng = np.random.default_rng([202, m, n])
        for _ in range(200):
            weights = [F(int(w)) for w in rng.integers(0, 20, size=4)]
            if sum(weights) == 0:
                weights[0] = F(1)
            s = sum(weights)
            abc = tuple(sum(w / s * tet[v][k] for v, w in enumerate(weights))
                        for k in range(3))
            p = MonicParams(m, n, *abc)
            cert = monic_sos_decompose(p)
            assert cert is not None
            assert tensors_equal(expand_certificate(cert), monic_to_tensor(p))
            roundtrips += 1
    report("05 constructive-sos", True,
           f"{roundtrips} interior round trips exact; vertex term counts "
           f"(1, C(m,2)C(n,2), C(m,2), C(n,2)) reproduced")


def _random_monic(rng):
    m = int(rng.integers(2, 5))
    n = int(rng.integers(2, 5))
    abc = [F(int(rng.integers(-20, 21)), 10) for _ in range(3)]
    return MonicParams(m, n, *abc)


def test_c06_falsification_consistency():
    rng = np.random.default_rng(303)
    violated = []
    while len(violated) < 200:
        p = _random_monic(rng)
        rep = m_eigen_monic(p)
        if any(rep[lab] < 0 for lab in ("i", "ii", "iii", "iv")):
            violated.append(p)
    worst = 0.0
    for k, p in enumerate(violated):
        val, _, _ = sample_min(monic_to_tensor(p), 24, seed=k)
        worst = min(worst, val)
        assert val < -1e-7, f"no witness below -1e-7 for {p}"

    psd_points = []
    while len(psd_points) < 200:
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 5))
        tet = tetrahedron(m, n)
        weights = [F(int(w)) for w in rng.integers(0, 20, size=4)]
        if sum(weights) == 0:
            weights[1] = F(1)
        s = sum(weights)
        abc = tuple(sum(w / s * tet[v][i] for v, w in enumerate(weights))
                    for i in range(3))
        psd_points.append(MonicParams(m, n, *abc))
    floor = 0.0
    for k, p in enumerate(psd_points):
        val, _, _ = sample_min(monic_to_tensor(p), 12, seed=k)
        floor = min(floor, val)
        assert val >= -1e-9, f"PSD point sampled below -1e-9: {p}"
    report("06 falsification-consistency", True,
           f"200 violated points all < -1e-7 (deepest {worst:.3e}); "
           f"200 PSD points all >= -1e-9 (floor {floor:.3e})")


def test_c07_structured_classes_sample_psd():
    dims = [(2, 2), (2, 3), (3, 2), (3, 3)]
    floor = 0.0
    for klass in ("dd", "m", "b0"):
        for trial in range(100):
            rng = np.random.default_rng([404, hash(klass) % 2**31, trial])
            m, n = dims[trial % len(dims)]
            t = gen_tensor(klass, m, n, rng)
            val, _, _ = sample_min(t, 8, seed=trial)
            floor = min(floor, val)
            assert val >= -1e-9, f"{klass} member sampled below -1e-9 (trial {trial})"
    report("07 structured-classes-psd", True,
           f"100 each of dd/m/b0 sampled >= -1e-9 (floor {floor:.3e})")


def test_c08_choi_fixture():
    t = choi_form()
    res = exactla.ldlt_psd(t.rows)
    assert not res.ok
    assert res.failure == "negative_pivot"
    assert res.value < 0

    val, _, _ = sample_min(t, 10_000, seed=808)
    assert val >= -1e-9

    probe = sos_probe(t, max_iter=3000, tol=1e-9)
    assert probe.status == "infeasible_suspected"
    report("08 choi-fixture", True,
           f"negative pivot {res.value} (exact); sample_min {val:.3e} over 1e4 samples; "
           f"probe reports {probe.status} (reported, not proof)")


def test_c09_conjecture_sweeps(capsys, tmp_path):
    suspicions = 0
    summaries = []
    for klass in ("m_tensor", "b0"):
        for size in (2, 3):
            csv_path = tmp_path / f"sweep_{klass}_{size}.csv"
            code = main(["sweep", "--class", klass, "-m", str(size), "-n", str(size),
                         "--trials", "200", "--seed", "909", "--max-iter", "1500", "--tol", "1e-8",
                         "-o", str(csv_path)])
            assert code == 0
            with open(csv_path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert [row["trial"] for row in rows] == [str(k) for k in range(200)]
            counts = dict(Counter(row["status"] for row in rows))
            assert json.loads(capsys.readouterr().out)["counts"] == counts
            if klass == "m_tensor":
                suspicions += counts.get("infeasible_suspected", 0)
            summaries.append(f"{klass}@{size}x{size}:{counts}")
    fixtures = sorted(p.name for p in tmp_path.glob("*.json"))
    report("09 conjecture-sweeps", True,
           f"4 sweeps x 200 trials completed; m_tensor infeasible_suspected = "
           f"{suspicions} (expected 0, reported); saved fixtures: {fixtures or 'none'}; "
           + "; ".join(summaries))


def test_c10_sos_rank_observation():
    psd_points = _state.get("psd_33")
    if psd_points is None:  # criterion 4 did not run first; rebuild the list
        psd_points = [
            MonicParams(3, 3, a, b, c)
            for a in GRID_VALUES for b in GRID_VALUES for c in GRID_VALUES
            if psd_conditions(MonicParams(3, 3, a, b, c))[0]
        ]
    max_terms = 0
    argmax = None
    for p in psd_points:
        cert = monic_sos_decompose(p)
        assert cert is not None
        merged = merge_proportional(cert)
        count = len(nonzero_terms(merged))
        if count > max_terms:
            max_terms, argmax = count, p
    bound_holds = max_terms <= 5
    report("10 sos-rank-observation", True,
           f"{len(psd_points)} PSD grid points at 3x3; max merged term count = {max_terms} "
           f"at (a,b,c)=({argmax.a},{argmax.b},{argmax.c}); "
           f"five-square bound {'holds' if bound_holds else 'NOT met by this construction'} "
           f"on this corpus (recorded, not asserted)")
    assert max_terms >= 1
