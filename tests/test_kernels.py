"""The stacked refinement kernel against a per-start reference, and the affine projection."""

from fractions import Fraction

import numpy as np
import pytest

from biquad import kernels
from biquad.core import MonicParams, monic_to_tensor
from biquad.gram import choi_form


def random_symmetric_a4(rng, m, n):
    a = rng.standard_normal((m, n, m, n))
    a = a + a.transpose(2, 1, 0, 3)
    a = a + a.transpose(2, 3, 0, 1)
    a = a + a.transpose(0, 3, 2, 1)
    return np.ascontiguousarray(a)


def unit_starts(rng, trials, m, n):
    xs = rng.standard_normal((trials, m))
    ys = rng.standard_normal((trials, n))
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)
    ys /= np.linalg.norm(ys, axis=1, keepdims=True)
    return xs, ys


def refine_trace(a4, x, y, max_iter, tol, maximize):
    """One start alone, with no drop rule: the (value, x, y) after each
    iteration run, and the 1-based iteration at which the value moved by
    less than ``tol`` (None if it never did within ``max_iter``)."""
    pick = -1 if maximize else 0
    prev = -np.inf if maximize else np.inf
    trace = []
    for it in range(1, max_iter + 1):
        Q = np.einsum("ijkl,j,l->ik", a4, y, y)
        _, V = np.linalg.eigh(0.5 * (Q + Q.T))
        x = V[:, pick]
        R = np.einsum("ijkl,i,k->jl", a4, x, x)
        w, V = np.linalg.eigh(0.5 * (R + R.T))
        y = V[:, pick]
        settled, prev = abs(w[pick] - prev) < tol, w[pick]
        trace.append((prev, x, y))
        if settled:
            return trace, it
    return trace, None


def replay_ends(traces, settle, max_iter, maximize, stall_iters):
    """The 1-based iteration at which each start leaves the batch, replayed
    from the single-start records with the kernel's order within iteration
    k: first every start still in the batch that settles at k does so, and
    the best settled value takes in their values; then, if k >=
    ``stall_iters``, every start still in the batch whose value at k is no
    better than that best is dropped. A start dropped before its own
    settling iteration never counts as settled. Returns (ends, dropped)."""
    better = (lambda a, b: a > b) if maximize else (lambda a, b: a < b)
    ends = [None] * len(traces)
    dropped = set()
    best = None
    for k in range(1, max_iter + 1):
        alive = [t for t, e in enumerate(ends) if e is None]
        for t in alive:
            if settle[t] == k:
                ends[t] = k
                value = traces[t][k - 1][0]
                best = value if best is None or better(value, best) else best
        if k >= stall_iters and best is not None:
            for t in alive:
                if ends[t] is None and not better(traces[t][k - 1][0], best):
                    ends[t] = k
                    dropped.add(t)
    return [len(tr) if e is None else e for tr, e in zip(traces, ends)], dropped


def refine_reference(a4, xs, ys, max_iter, tol, maximize, stall_iters=kernels.STALL_ITERS):
    """Per-start loops replayed under the drop rule: (values, xs, ys, dropped)."""
    runs = [refine_trace(a4, x, y, max_iter, tol, maximize) for x, y in zip(xs, ys)]
    traces = [tr for tr, _ in runs]
    ends, dropped = replay_ends(traces, [s for _, s in runs], max_iter, maximize, stall_iters)
    picked = [tr[e - 1] for tr, e in zip(traces, ends)]
    return tuple(np.array([p[k] for p in picked], dtype=np.float64) for k in range(3)) + (dropped,)


class TestRandomUnitPairs:
    @pytest.mark.parametrize("m,n", [(1, 1), (2, 3), (8, 8)])
    def test_same_bits_as_the_inline_draw(self, m, n):
        xs, ys = kernels.random_unit_pairs(17, 9, m, n)
        want_x, want_y = unit_starts(np.random.default_rng(17), 9, m, n)
        assert np.array_equal(xs, want_x) and np.array_equal(ys, want_y)
        assert np.allclose(np.linalg.norm(xs, axis=1), 1) and np.allclose(np.linalg.norm(ys, axis=1), 1)


class TestRefineMatchesPerStartLoop:
    @pytest.mark.parametrize("maximize", [False, True])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bit_identical(self, m, n, maximize):
        rng = np.random.default_rng(100 * m + 10 * n + maximize)
        a4 = random_symmetric_a4(rng, m, n)
        xs, ys = unit_starts(rng, 12, m, n)
        got = kernels.refine_batch(a4, xs, ys, 200, 1e-12, maximize)
        want = refine_reference(a4, xs, ys, 200, 1e-12, maximize)[:3]
        assert np.array_equal(got[1], want[1])
        assert np.array_equal(got[2], want[2])
        if (m, n) == (2, 1):
            # R is 1x1 here and np.einsum sums its four products in a
            # different order for one start than for a stack of three or
            # more, so the value may move in its last bits.
            assert np.allclose(got[0], want[0], rtol=8 * np.finfo(float).eps, atol=0.0)
        else:
            assert np.array_equal(got[0], want[0])

    @pytest.mark.parametrize("maximize", [False, True])
    def test_some_starts_hit_the_cap(self, maximize):
        # a cap of 6 iterations leaves some starts still moving while others
        # have settled; a settled start must keep its value and pair
        rng = np.random.default_rng(1)
        a4 = random_symmetric_a4(rng, 3, 3)
        xs, ys = unit_starts(rng, 40, 3, 3)
        tol = 1e-4
        got = kernels.refine_batch(a4, xs, ys, 6, tol, maximize)
        want = refine_reference(a4, xs, ys, 6, tol, maximize)[:3]
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
        iters = [len(refine_trace(a4, x, y, 6, tol, maximize)[0]) for x, y in zip(xs, ys)]
        assert min(iters) < 6 and max(iters) == 6

    def test_choi_drops_stalled_starts_and_keeps_the_best(self):
        # On Choi's form many starts creep towards its degenerate zeros for
        # all 500 iterations while others settle early; the rule drops the
        # creeping ones, and the best start is the one the full 500-iteration
        # loop with no drop returns.
        a4 = choi_form().to_float()
        xs, ys = kernels.random_unit_pairs(808, 64, 3, 3)
        got = kernels.refine_batch(a4, xs, ys, 500, 1e-12, False)
        want = refine_reference(a4, xs, ys, 500, 1e-12, False)
        for a, b in zip(got, want[:3]):
            assert np.array_equal(a, b)
        assert want[3]
        full = refine_reference(a4, xs, ys, 500, 1e-12, False, stall_iters=np.inf)
        assert not full[3]
        best, full_best = np.argmin(got[0]), np.argmin(full[0])
        assert np.array_equal([got[0][best], *got[1][best], *got[2][best]],
                              [full[0][full_best], *full[1][full_best], *full[2][full_best]])

    @pytest.mark.parametrize("maximize, bound", [(False, np.inf), (True, -np.inf)])
    def test_zero_iterations_return_inputs(self, maximize, bound):
        rng = np.random.default_rng(3)
        a4 = random_symmetric_a4(rng, 3, 2)
        xs, ys = unit_starts(rng, 5, 3, 2)
        vals, X, Y = kernels.refine_batch(a4, xs, ys, 0, 1e-12, maximize)
        assert np.all(vals == bound)
        assert np.array_equal(X, xs) and np.array_equal(Y, ys)
        assert X is not xs and Y is not ys


class TestRefine:
    def test_descent_reaches_known_minimum(self):
        # the monic form with a = b = c = -1 at m = n = 2 has minimum -2 on
        # the unit spheres (the all-ones critical pair)
        a4 = monic_to_tensor(MonicParams(2, 2, -1, -1, -1)).to_float()
        xs, ys = unit_starts(np.random.default_rng(0), 8, 2, 2)
        vals, _, _ = kernels.refine_batch(a4, xs, ys, 300, 1e-12, False)
        assert vals.min() < -2 + 1e-7

    def test_ascent_reaches_known_maximum(self):
        a4 = monic_to_tensor(MonicParams(2, 2, 1, 1, 1)).to_float()
        xs, ys = unit_starts(np.random.default_rng(1), 8, 2, 2)
        # condition (iv): value mn = 4 at the ones pair
        vals, _, _ = kernels.refine_batch(a4, xs, ys, 300, 1e-12, True)
        assert vals.max() > 4 - 1e-7

    def test_refined_pairs_stay_unit(self):
        a4 = monic_to_tensor(MonicParams(3, 2, 0, 0, 0)).to_float()
        xs, ys = unit_starts(np.random.default_rng(2), 4, 3, 2)
        _, X, Y = kernels.refine_batch(a4, xs, ys, 100, 1e-12, False)
        assert np.abs(np.linalg.norm(X, axis=1) - 1).max() < 1e-9
        assert np.abs(np.linalg.norm(Y, axis=1) - 1).max() < 1e-9


class TestProjectAffine:
    def test_projection_zeroes_residual(self, rng):
        m, n = 2, 2
        a4 = random_symmetric_a4(rng, m, n)
        G = rng.standard_normal((4, 4))
        G = 0.5 * (G + G.T)
        P = kernels.project_affine(G, a4)
        assert kernels.affine_residual(P, a4) < 1e-12

    def test_fraction_and_float_agree(self, rng):
        # one formula serves both dtypes: on dyadic inputs every step is exact
        # in float64 too, so the two results coincide entry for entry
        m, n = 2, 3
        a4 = random_symmetric_a4(rng, m, n).round(0) / 4
        G = rng.integers(-8, 9, size=(6, 6)) / 8
        exact = kernels.project_affine(
            np.vectorize(Fraction, otypes=[object])(G), np.vectorize(Fraction, otypes=[object])(a4))
        assert all(isinstance(v, Fraction) for v in exact.flat)
        assert np.array_equal(exact.astype(np.float64), kernels.project_affine(G, a4))
