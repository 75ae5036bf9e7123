"""Tensors invariant under every permutation of x and of y: the builder
``core.permutation_invariant`` and the hypothesis check of
``monic.symmetric_sos_decompose``, against the definition."""

import itertools
import json
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from biquad.classes import m_identity
from biquad.core import (
    MonicParams,
    SymmetricBiquadraticTensor,
    evaluate,
    expand_certificate,
    monic_to_tensor,
    permutation_invariant,
    symmetrize,
    tensors_equal,
)
from biquad.monic import symmetric_sos_decompose

from conftest import fixed_by_every_permutation, random_coefficients

CORPUS = Path(__file__).parent / "data" / "symmetric_sos_corpus.json"
NOT_SYMMETRIC = "tensor is not x- and y-permutation symmetric"
DIMS = list(itertools.product((1, 2, 3), repeat=2))


def orbit_tensor(m, n, d, a, b, c) -> SymmetricBiquadraticTensor:
    """d on a[i,j,i,j], a where only i != k, b where only j != l, c where
    both differ, placed entry by entry."""
    arr = np.empty((m, n, m, n), dtype=object)
    for i, j, k, l in itertools.product(range(m), range(n), range(m), range(n)):
        arr[i, j, k, l] = (d if j == l else b) if i == k else (a if j == l else c)
    return SymmetricBiquadraticTensor(m, n, arr)


def passes_check(t) -> bool:
    try:
        symmetric_sos_decompose(t)
    except ValueError as exc:
        return str(exc) != NOT_SYMMETRIC
    return True


def group_average(t, x_perms=True, y_perms=True) -> SymmetricBiquadraticTensor:
    """Mean of t over the permutations of x (if x_perms) and of y (if y_perms)."""
    xs = list(itertools.permutations(range(t.m))) if x_perms else [tuple(range(t.m))]
    ys = list(itertools.permutations(range(t.n))) if y_perms else [tuple(range(t.n))]
    total = sum(t.entries[np.ix_(s, p, s, p)] for s in xs for p in ys)
    return SymmetricBiquadraticTensor(t.m, t.n, total / (len(xs) * len(ys)))


def with_orbit_shifted(t, idx, by) -> SymmetricBiquadraticTensor:
    """t plus ``by`` on the biquadratic symmetry orbit of the index idx."""
    i, j, k, l = idx
    arr = t.entries.copy()
    for at in {(i, j, k, l), (k, j, i, l), (i, l, k, j), (k, l, i, j)}:
        arr[at] += by
    return SymmetricBiquadraticTensor(t.m, t.n, arr)


class TestBuilder:
    @pytest.mark.parametrize("m, n", DIMS)
    def test_places_each_orbit_value(self, m, n):
        dabc = (F(5, 2), F(-1, 3), F(2, 7), F(1, 11))
        assert tensors_equal(permutation_invariant(m, n, *dabc), orbit_tensor(m, n, *dabc))

    @pytest.mark.parametrize("m, n", DIMS)
    def test_is_fixed_by_every_permutation(self, m, n):
        t = permutation_invariant(m, n, F(3), F(-1, 2), F(1, 3), F(1, 5))
        assert fixed_by_every_permutation(t.entries)

    def test_empty_orbits_ignore_their_values(self):
        assert tensors_equal(permutation_invariant(1, 3, 2, 7, 5, 9), permutation_invariant(1, 3, 2, 0, 5, 0))
        assert tensors_equal(permutation_invariant(3, 1, 2, 7, 5, 9), permutation_invariant(3, 1, 2, 7, 0, 0))

    def test_named_tensors_are_instances(self):
        p = MonicParams(3, 4, F(1, 2), F(-1, 3), F(1, 6))
        assert tensors_equal(monic_to_tensor(p), orbit_tensor(3, 4, 1, *p.abc))
        assert tensors_equal(m_identity(2, 3), orbit_tensor(2, 3, 1, 0, 0, 0))
        assert tensors_equal(SymmetricBiquadraticTensor.zeros(3, 2), orbit_tensor(3, 2, 0, 0, 0, 0))

    def test_entries_are_exact(self):
        t = permutation_invariant(2, 2, 1, "1/2", F(-1, 3), 2**70)
        assert {type(v) for v in t.entries.flat} == {F}
        assert t.entries[1, 1, 0, 0] == 2**70


class TestCheckAgainstDefinition:
    """symmetric_sos_decompose accepts a tensor iff every pair of
    permutations fixes it."""

    @pytest.mark.parametrize("m, n", DIMS)
    def test_check_iff_invariant(self, m, n):
        rng = np.random.default_rng(100 * m + n)
        seen = {True: 0, False: 0}
        for _ in range(4):
            t = symmetrize(random_coefficients(rng, m, n, denom=4))
            full = group_average(t)
            idx = tuple(int(rng.integers(0, size)) for size in (m, n, m, n))
            cases = [t, full, group_average(t, y_perms=False), group_average(t, x_perms=False),
                     with_orbit_shifted(full, idx, F(1, 3)),
                     SymmetricBiquadraticTensor(m, n, full.entries * F(-2))]
            for case in cases:
                invariant = fixed_by_every_permutation(case.entries)
                assert passes_check(case) == invariant, case.entries
                seen[invariant] += 1
        assert seen[True] and (seen[False] or (m, n) == (1, 1))


class TestParentCorpus:
    def test_outcomes_match_the_recorded_ones(self):
        """Zero, scaled identity, random invariant and one-orbit-perturbed
        tensors over every (m, n) in {1, 2, 3}^2, with the outcome (None,
        ValueError, or the certificate's terms) that the earlier check by
        adjacent transpositions plus a monic re-check gave; the 119
        invariant 1 x n and m x 1 tensors with d > 0, once ValueError, hold
        the outcome of the closed-form certificate for those shapes."""
        records = json.loads(CORPUS.read_text())
        assert len(records) == 387
        mismatches = []
        for r in records:
            t = orbit_tensor(r["m"], r["n"], *map(F, r["dabc"]))
            if r["perturb"] is not None:
                t = with_orbit_shifted(t, r["perturb"]["at"], F(r["perturb"]["by"]))
            try:
                cert = symmetric_sos_decompose(t)
            except ValueError:
                got = "ValueError"
            else:
                got = None if cert is None else [
                    [str(w), [str(v) for v in f.W.reshape(-1)]] for w, f in cert.terms]
            if got != r["outcome"]:
                mismatches.append((r, got))
        assert not mismatches


class TestOneByN:
    """m = 1 or n = 1: the form is x_1^2 q(y) (or its mirror), certified in
    closed form when PSD; None comes with a vector where the form is negative."""

    def test_one_by_one(self):
        cert = symmetric_sos_decompose(permutation_invariant(1, 1, F(3, 2), 0, 0, 0))
        assert [(w, f.W.tolist()) for w, f in cert.terms] == [(F(3, 2), [[1]])]

    @pytest.mark.parametrize("m, n", [(1, 2), (1, 3), (1, 5), (2, 1), (4, 1)])
    def test_certificate_or_negative_value(self, m, n):
        rng = np.random.default_rng(10 * m + n)
        size = max(m, n)
        ones, apart = [F(1)] * size, [F(1), F(-1)] + [F(0)] * (size - 2)
        outcomes = set()
        for _ in range(40):
            d = F(int(rng.integers(1, 9)), 4)
            off = F(int(rng.integers(-12, 13)), 8) * d
            t = permutation_invariant(m, n, d, off, off, 0)
            cert = symmetric_sos_decompose(t)
            if cert is None:
                # q's two eigenvectors: all ones, and e_1 - e_2
                values = [evaluate(t, v, [F(1)]) if n == 1 else evaluate(t, [F(1)], v) for v in (ones, apart)]
                assert min(values) < 0
            else:
                assert all(w > 0 for w, _ in cert.terms)
                assert tensors_equal(expand_certificate(cert), t)
            outcomes.add(cert is None)
        assert outcomes == {True, False}
