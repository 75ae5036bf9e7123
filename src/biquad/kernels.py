"""Array kernels behind the numerical probes.

Two hot spots live here, both float64 only: the alternating
smallest/largest-eigenvector refinement used by ``sample_min`` and the
M-eigenvalue ascent, and the Newton system of the log-barrier Gram search in
``gram.sos_probe``. The refinement reshapes the tensor once per call into an
n^2 x m^2 and an m^2 x n^2 matrix, so each of its half-steps is one matrix
product per start followed by a batched ``eigh``. Beside them sit the
affine Gram projection and residual, which the library no longer calls
(``gram._round_at`` rounds the barrier's free parameters, whose points lie
in the family, and the probe reports the barrier's own s and bound); they
are kept only because the benchmark's tracer names them.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["random_unit_pairs", "refine_batch", "refine_best", "gram_directions",
           "barrier_newton_system"]

# The refinement policy of the float probes (``core.sample_min`` and
# ``classes.lambda_max_estimate``), applied by ``refine_best``: at most
# REFINE_ITERS iterations per start, a start settling when its value moves by
# less than REFINE_TOL, and dropped after STALL_ITERS iterations once its
# value is no better than the best value a start has settled at.
REFINE_ITERS = 500
REFINE_TOL = 1e-12
STALL_ITERS = 20


def random_unit_pairs(seed, count, m, n):
    """``count`` random starts (xs, ys) on the unit spheres of R^m and R^n:
    standard normal xs, then ys, from ``default_rng(seed)``, rows normalised."""
    rng = np.random.default_rng(seed)
    xs, ys = rng.standard_normal((count, m)), rng.standard_normal((count, n))
    return xs / np.linalg.norm(xs, axis=1, keepdims=True), ys / np.linalg.norm(ys, axis=1, keepdims=True)


def refine_batch(a4, xs, ys, max_iter, tol, maximize):
    """Refine each start (xs[t], ys[t]) by alternating eigenvector iteration.

    Fixing y makes the form a quadratic x^T Q_y x on the unit sphere, whose
    extremum over x is the extreme eigenvector of Q_y; alternating the roles
    is monotone in the form value. The tensor is reshaped once per call into
    the matrices Ay[(j,l), (i,k)] = Ax[(i,k), (j,l)] = a[i,j,k,l], so Q_y is
    the flattened y y^T times Ay and R_x the flattened x x^T times Ax. The
    starts still moving advance together, one stacked product and one
    batched ``eigh`` per half-step. Each start has its own (1 x n^2) @ Ay
    product, so its arithmetic, and its result to the last bit, do not
    depend on which other starts are still active. A start leaves that
    active set, with its current value and pair, in the first iteration k
    where either
      * its value moves by less than ``tol`` (it *settles*), or
      * k >= ``STALL_ITERS`` and its value is no better (>= when minimising,
        <= when maximising) than the best value any start has settled at in
        iterations 1..k, this one included (it is *dropped*).
    A dropped start is already beaten by a settled one, so dropping it
    changes the best returned value only where it would later have
    overtaken that settled start. Returns (values, xs, ys) after refinement;
    with ``max_iter = 0`` the values are +inf (minimising) or -inf
    (maximising) and the pairs come back unchanged.
    """
    pick = -1 if maximize else 0
    m, n = a4.shape[0], a4.shape[1]
    Ay = a4.transpose(1, 3, 0, 2).reshape(n * n, m * m)
    Ax = a4.transpose(0, 2, 1, 3).reshape(m * m, n * n)
    out_x = np.array(xs, dtype=np.float64)
    out_y = np.array(ys, dtype=np.float64)
    vals = np.full(out_x.shape[0], -np.inf if maximize else np.inf)
    active = np.arange(out_x.shape[0])
    x, y, prev = out_x, out_y, vals
    best = -np.inf if maximize else np.inf  # best settled value so far
    for it in range(max_iter):
        if active.size == 0:
            break
        # (T, 1, n^2) @ Ay, not (T, n^2) @ Ay: the flat product's rows can
        # differ in the last bits from a one-start product of the same row.
        # Q is not always exactly symmetric, hence the symmetrisation.
        Q = ((y[:, :, None] * y[:, None, :]).reshape(-1, 1, n * n) @ Ay).reshape(-1, m, m)
        _, V = np.linalg.eigh(0.5 * (Q + Q.transpose(0, 2, 1)))
        x = V[:, :, pick]
        R = ((x[:, :, None] * x[:, None, :]).reshape(-1, 1, m * m) @ Ax).reshape(-1, n, n)
        w, V = np.linalg.eigh(0.5 * (R + R.transpose(0, 2, 1)))
        y = V[:, :, pick]
        settled = np.abs(w[:, pick] - prev) < tol
        prev = w[:, pick]
        if settled.any():
            best = max(best, prev[settled].max()) if maximize else min(best, prev[settled].min())
        if it + 1 >= STALL_ITERS:
            settled |= (prev <= best) if maximize else (prev >= best)
        if settled.any():
            done = active[settled]
            out_x[done], out_y[done], vals[done] = x[settled], y[settled], prev[settled]
            keep = ~settled
            active, x, y, prev = active[keep], x[keep], y[keep], prev[keep]
    out_x[active], out_y[active], vals[active] = x, y, prev
    return vals, out_x, out_y


def refine_best(a4, starts, seed, maximize):
    """(value, x, y) of the best of ``starts`` random unit-sphere pairs
    (``random_unit_pairs(seed, ...)``) after ``refine_batch`` with
    REFINE_ITERS and REFINE_TOL, on the float64 tensor ``a4``: the largest
    value if ``maximize``, else the smallest."""
    xs, ys = random_unit_pairs(seed, starts, a4.shape[0], a4.shape[1])
    vals, xs, ys = refine_batch(a4, xs, ys, REFINE_ITERS, REFINE_TOL, maximize)
    best = int(np.argmax(vals) if maximize else np.argmin(vals))
    return float(vals[best]), xs[best].copy(), ys[best].copy()


@lru_cache(maxsize=64)
def gram_directions(m, n):
    """Flat index arrays (p, q, r, u) of the K = C(m,2) C(n,2) free directions
    of the Gram affine family, one per i < k and j < l.

    Direction N_k adds 1 at the matrix positions (p, q) = ((i,j), (k,l)) and
    (q, p), and subtracts 1 at (r, u) = ((i,l), (k,j)) and (u, r), so every
    constraint G[(i,j),(k,l)] + G[(i,l),(k,j)] = 2 a[i,j,k,l] keeps its sum.
    The 4K positions are distinct. Built once per shape and shared by every
    caller, so the arrays are read-only.
    """
    i, k = np.triu_indices(m, 1)
    j, l = np.triu_indices(n, 1)
    i, k = np.repeat(i, j.size), np.repeat(k, j.size)
    j, l = np.tile(j, m * (m - 1) // 2), np.tile(l, m * (m - 1) // 2)
    dirs = i * n + j, k * n + l, i * n + l, k * n + j
    for a in dirs:
        a.setflags(write=False)
    return dirs


def barrier_newton_system(W, dirs):
    """Gradient and Hessian of -log det M in the variables (t, s), where
    M = G(t) - s I, G(t) = G0 + sum_k t_k N_k and W = M^-1 (symmetric).

    With A_k = N_k and A_s = -I, the gradient is -tr(W A_k) and the Hessian
    tr(W A_k W A_l). Each N_k has four nonzeros, so tr(W N_k W N_l) is a sum
    of products of entries of W gathered once at the 4K direction indices,
    with no (K, mn, mn) stack: N_k = S(p,q) - S(r,u) in the symmetric pairs
    S(a,b) = e_a e_b^T + e_b e_a^T, and tr(W S(a,b) W S(c,d)) =
    2 (W[a,d] W[b,c] + W[a,c] W[b,d]). Returns (g, H) of sizes K+1 and
    (K+1, K+1), s last.
    """
    p, q, r, u = dirs
    K = p.size
    idx = np.concatenate(dirs)
    # B[a, x, k, b, y, l] = W at member x of pair a of direction k and member
    # y of pair b of direction l, the pairs being (p, q) and (r, u)
    B = W.take(idx, 0).take(idx, 1).reshape(2, 2, K, 2, 2, K)
    pair = B[:, 0, :, :, 1] * B[:, 1, :, :, 0] + B[:, 0, :, :, 0] * B[:, 1, :, :, 1]
    signed = pair[0] - pair[1]
    W2 = W @ W
    H = np.empty((K + 1, K + 1))
    H[:K, :K] = 2.0 * (signed[:, 0] - signed[:, 1])
    H[:K, K] = H[K, :K] = -2.0 * (W2[p, q] - W2[r, u])
    H[K, K] = np.trace(W2)
    g = np.empty(K + 1)
    g[:K] = -2.0 * (W[p, q] - W[r, u])
    g[K] = np.trace(W)
    return g, H


def project_affine(G: np.ndarray, a4: np.ndarray) -> np.ndarray:
    """Orthogonal projection of G onto the Gram affine family.

    The family is {G symmetric : G[(i,j),(k,l)] + G[(i,l),(k,j)] = 2 a[i,j,k,l]},
    the constraints induced by the monomial identity
    (x_i y_j)(x_k y_l) = (x_i y_l)(x_k y_j). Entries whose two constraint
    positions coincide (j = l, or i = k under matrix symmetry) get pinned to
    a[i,j,k,l]; genuine pairs are shifted by half the violation each, which
    in tensor layout collapses to (G4 - G4.swap(j,l))/2 + a4 after
    symmetrising G. Works for float64 and for Fraction object arrays. No
    library code calls it: it is kept only because the benchmark's tracer
    (``perfbench/tracer.py``, ``LAYERS``) names it.
    """
    m, n = a4.shape[0], a4.shape[1]
    G4 = ((G + G.T) / 2).reshape(m, n, m, n)
    P4 = (G4 - G4.transpose(0, 3, 2, 1)) / 2 + a4
    return P4.reshape(m * n, m * n)


def affine_residual(G: np.ndarray, a4: np.ndarray) -> float:
    """max over (i,j,k,l) of |G[(i,j),(k,l)] + G[(i,l),(k,j)] - 2 a[i,j,k,l]|."""
    m, n = a4.shape[0], a4.shape[1]
    G4 = G.reshape(m, n, m, n)
    return float(np.abs(G4 + G4.transpose(0, 3, 2, 1) - 2.0 * a4).max())
