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
    # the kernel's product for one start, so that the bits agree
    m, n = a4.shape[0], a4.shape[1]
    Ay = a4.transpose(1, 3, 0, 2).reshape(n * n, m * m)
    Ax = a4.transpose(0, 2, 1, 3).reshape(m * m, n * n)
    prev = -np.inf if maximize else np.inf
    trace = []
    for it in range(1, max_iter + 1):
        Q = (np.outer(y, y).reshape(1, -1) @ Ay).reshape(m, m)
        _, V = np.linalg.eigh(0.5 * (Q + Q.T))
        x = V[:, pick]
        R = (np.outer(x, x).reshape(1, -1) @ Ax).reshape(n, n)
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

    @pytest.mark.parametrize("maximize", [False, True])
    def test_tie_with_the_best_settled_value_drops(self, monkeypatch, maximize):
        # Scripted values on a 1x1 form, negated when maximising: start 0
        # reads 5 and settles at iteration 2; start 1 descends 24, 23, ...
        # and reads exactly 5 at iteration STALL_ITERS, so the tie drops it
        # there. Were ties kept, it would run on to 0.
        sign = -1.0 if maximize else 1.0
        stall = kernels.STALL_ITERS

        def value(start, k):
            return sign * (5.0 if start == 0 else max(5.0 + stall - k, 0.0))

        calls = []

        def scripted_eigh(a):
            # two calls per iteration; start 0 leaves the batch first
            calls.append(a.shape[0])
            k = (len(calls) + 1) // 2
            w = [[value(start, k)] for start in range(2 - a.shape[0], 2)]
            return np.array(w), np.ones((a.shape[0], 1, 1))

        monkeypatch.setattr(np.linalg, "eigh", scripted_eigh)
        vals, _, _ = kernels.refine_batch(np.ones((1, 1, 1, 1)), np.ones((2, 1)), np.ones((2, 1)),
                                          100, 1e-12, maximize)
        assert vals.tolist() == [sign * 5.0, sign * 5.0]
        assert len(calls) == 2 * stall

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


class TestContraction:
    @pytest.mark.parametrize("m", range(1, 9))
    def test_matches_the_einsum_definition(self, monkeypatch, m):
        # the matrices of one iteration's two half-steps, read at the eigh
        # calls, against Q_y[i,k] = sum_jl a[i,j,k,l] y_j y_l and
        # R_x[j,l] = sum_ik a[i,j,k,l] x_i x_k, to a few ulps of the sum of
        # the terms' magnitudes
        seen = []
        real_eigh = np.linalg.eigh

        def recording_eigh(a):
            seen.append(a)
            return real_eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        for n in range(1, 9):
            rng = np.random.default_rng(10 * m + n)
            a4 = random_symmetric_a4(rng, m, n)
            xs, ys = unit_starts(rng, 5, m, n)
            seen.clear()
            kernels.refine_batch(a4, xs, ys, 1, 1e-12, False)
            x = real_eigh(seen[0])[1][:, :, 0]
            for got, u, spec in [(seen[0], ys, "ijkl,tj,tl->tik"), (seen[1], x, "ijkl,ti,tk->tjl")]:
                want = np.einsum(spec, a4, u, u)
                scale = np.einsum(spec, np.abs(a4), np.abs(u), np.abs(u))
                assert np.all(np.abs(got - 0.5 * (want + want.transpose(0, 2, 1)))
                              <= 8 * np.finfo(float).eps * scale), (m, n)


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
