"""Gram-matrix search for square certificates beyond the dominated case.

A tensor is a sum of squares of bilinear forms iff some PSD matrix G
represents its form as z^T G z under the pairing z[(i,j)] = x_i y_j. The
admissible G form an affine family (the monomial identity
(x_i y_j)(x_k y_l) = (x_i y_l)(x_k y_j) pairs matrix positions), and the
canonical member is the flattening itself. This module provides:

* ``flattening_psd_check``: exact LDL^T of the canonical point. Sufficient,
  not necessary, for the existence of a certificate.
* ``sos_probe``: a log-barrier Newton method that maximises the smallest
  eigenvalue over the affine family, followed by rationalization and exact
  re-verification of the interior point it ends at. A duality bound below
  zero is reported as *suspected* infeasibility, never as proof.
* ``conjecture_sweep``: probes of random members of the structured classes,
  yielded one trial at a time (``biquad sweep`` writes them as CSV rows).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import classes, exactla, kernels
from .core import (
    BilinearForm,
    SOSCertificate,
    SymmetricBiquadraticTensor,
    expand_certificate,
    symmetrize,
    tensors_equal,
)

__all__ = [
    "GramPoint",
    "SOSProbeResult",
    "flattening_psd_check",
    "sos_probe",
    "conjecture_sweep",
    "choi_form",
]

RATIONALIZE_DENOMINATORS = (10, 100, 1000, 10_000, 100_000, 1_000_000)


@dataclass
class GramPoint:
    """The two feasibility residuals of a Gram candidate G.

    residual_affine: max constraint violation |G[(i,j),(k,l)] + G[(i,l),(k,j)]
    - 2 a[i,j,k,l]|. residual_psd: the most negative eigenvalue, clipped at 0.
    """

    residual_affine: float
    residual_psd: float


@dataclass
class SOSProbeResult:
    status: str
    certificate: SOSCertificate | None
    iterations: int
    residuals: GramPoint
    trace: list = field(default_factory=list)

    @property
    def certified(self) -> bool:
        """True when an exact, re-verified certificate is attached."""
        return self.status in ("sos_certified", "flattening_psd") and self.certificate is not None


def _gram_certificate(G: np.ndarray, t: SymmetricBiquadraticTensor,
                      scale: int = 1) -> SOSCertificate | None:
    """Exact certificate from the rational Gram point G / ``scale`` of ``t``,
    when it is PSD.

    Runs pivoted rational LDL^T on G; each pivot (all are positive) divided
    by ``scale`` is the weight of one bilinear form, its factor column.
    Factor columns do not change under a positive scaling, so an integer
    multiple of the Gram point is factored in its place: ``_round_at``
    passes q G(t~) with scale q. The certificate is expanded and compared
    with ``t`` exactly before it is returned. Returns None when G is not PSD.
    """
    res = exactla.ldlt_psd(G)
    if not res.ok:
        return None
    m, n = t.m, t.n
    cert = SOSCertificate(m, n, tuple(
        (term.pivot / scale, BilinearForm.from_flat(m, n, term.vector)) for term in res.terms))
    if not tensors_equal(expand_certificate(cert), t):  # pragma: no cover - defensive
        raise AssertionError("Gram certificate failed exact round-trip")
    return cert


def flattening_psd_check(t: SymmetricBiquadraticTensor) -> SOSCertificate | None:
    """Exact certificate from the canonical flattening, when it is PSD.

    The certificate expands back to ``t`` exactly. Returns None when the
    flattening is not PSD, which decides nothing about ``t`` itself.
    """
    # an array, not the rows: perfbench's tracer reads the order of every
    # ldlt_psd input from its shape
    return _gram_certificate(np.array(t.rows, dtype=object), t)


def gram_project_psd(G: np.ndarray) -> np.ndarray:
    """Project a symmetric float matrix onto the PSD cone (eigenvalue clip).
    Unused by the library; kept because the benchmark's tracer names it."""
    Gs = 0.5 * (G + G.T)
    try:
        w, V = np.linalg.eigh(Gs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh on finite input
        raise RuntimeError(f"eigendecomposition failed on:\n{Gs!r}") from exc
    out = (V * np.clip(w, 0.0, None)) @ V.T
    return 0.5 * (out + out.T)


def _nearest_ratio(v: float, denom: int) -> tuple[int, int]:
    """(p, q) of ``Fraction(v).limit_denominator(denom)``, in plain ints.

    The closest p/q to v with 0 < q <= denom is a convergent or
    semiconvergent of the continued fraction of v's exact ratio: walk the
    convergents until the next denominator would exceed ``denom``, then
    take the convergent p1/q1 or the last semiconvergent, whichever is
    closer, and the convergent on a tie (Fraction's rule).
    """
    num, den = v.as_integer_ratio()
    if den <= denom:
        return num, den
    n, d = num, den
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a = n // d
        q2 = q0 + a * q1
        if q2 > denom:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (denom - q0) // q1
    # the semiconvergent is 1 / (q1 (q0 + k q1)) from p1/q1 on the other side
    # of v, and p1/q1 is d / (q1 den) from v
    if 2 * d * (q0 + k * q1) <= den:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


def _round_at(shift: np.ndarray, dirs, t: SymmetricBiquadraticTensor,
              denom: int) -> SOSCertificate | None:
    """Round the barrier's free parameters at one denominator and verify.

    Continued-fraction rounding of each ``shift[k]`` to denominator
    <= ``denom`` (``_nearest_ratio``) gives t~, and G(t~) = F + sum_k
    t~_k N_k lies in the affine family, so it expands to ``t`` with no
    projection. With t~ and the entries of ``t`` over one denominator q,
    ``_gram_at`` builds q G(t~) in integers for the rational LDL^T, so no
    inexact certificate can escape.
    """
    mn = t.m * t.n
    rounded = [_nearest_ratio(v, denom) for v in shift.tolist()]
    entries = chain.from_iterable(t.rows)
    nums, q = exactla.pairs_over_lcm(rounded + [(a.numerator, a.denominator) for a in entries])
    K = len(rounded)
    F = np.array(nums[K:], dtype=object).reshape(mn, mn)
    return _gram_certificate(_gram_at(F, np.array(nums[:K], dtype=object), dirs), t, q)


def _rationalize(shift: np.ndarray, dirs, t: SymmetricBiquadraticTensor) -> SOSCertificate | None:
    """``_round_at`` at each denominator of the escalating ladder in turn."""
    for denom in RATIONALIZE_DENOMINATORS:
        cert = _round_at(shift, dirs, t, denom)
        if cert is not None:
            return cert
    return None


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")


BARRIER_GROWTH = 5.0        # tau grows by this factor per outer step
NEWTON_DECREMENT_STOP = 1e-8  # inner loop ends at lambda^2 / 2 <= this


def _gram_at(F: np.ndarray, t: np.ndarray, dirs) -> np.ndarray:
    """G(t) = F + sum_k t_k N_k, added at the 4K distinct flat positions, on
    float64 arrays (the barrier) or integer object arrays (``_round_at``)."""
    p, q, r, u = dirs
    mn = F.shape[0]
    G = F.copy()
    flat = G.reshape(-1)
    flat[p * mn + q] += t
    flat[q * mn + p] += t
    flat[r * mn + u] -= t
    flat[u * mn + r] -= t
    return G


def _inverse_if_pd(M: np.ndarray) -> np.ndarray | None:
    """M^-1 through Cholesky, or None when M is not numerically PD."""
    try:
        Li = np.linalg.inv(np.linalg.cholesky(M))
    except np.linalg.LinAlgError:
        return None
    return Li.T @ Li


def _barrier_max_min_eig(F: np.ndarray, dirs, max_iter: int, tol: float, stop_at: float = math.inf):
    """Maximise s subject to G(t) - s I PSD by a damped-Newton log-barrier
    method (Boyd & Vandenberghe, section 11.3).

    For each tau it minimises -tau s - log det(G(t) - s I) from the previous
    centre, taking damped steps 1/(1 + lambda) (lambda the Newton decrement),
    until lambda^2/2 <= NEWTON_DECREMENT_STOP; then tau grows by
    BARRIER_GROWTH. It starts at t = 0, s = lambda_min(F) - 1 and tau = 1.
    It stops at the first accepted Newton step with s >= ``stop_at``;
    failing that, once the duality gap mn/tau is below ``tol``, so the final
    s is within ``tol`` of the optimum s*. ``tol`` is thus the gap target
    only when ``stop_at`` is never reached. It also stops when ``max_iter``
    steps ran out or when float64 can no longer centre: a damped step from
    lambda < 1/2 must give lambda+ <= 2 lambda^2 < lambda (Nesterov), so a
    decrement that fails to fall there is rounding noise.

    Returns (t, s, trace, bound) with one s in ``trace`` per Newton step,
    up to the step that stopped the solve, and bound = s + mn/tau at the
    last centre reached (inf before the first), the duality bound s* <= bound.
    """
    mn = F.shape[0]
    eye = np.eye(mn)
    t = np.zeros(dirs[0].size)
    s = float(np.linalg.eigvalsh(F)[0]) - 1.0
    W = _inverse_if_pd(F - s * eye)
    tau = 1.0
    trace: list[float] = []
    g, H = kernels.barrier_newton_system(W, dirs)
    lam2_prev = bound = math.inf
    while True:
        # H does not depend on tau; only the s entry of the gradient does
        grad = g.copy()
        grad[-1] -= tau
        try:
            step = np.linalg.solve(H, -grad)
        except np.linalg.LinAlgError:  # pragma: no cover - H is PD in exact arithmetic
            break
        lam2 = float(-grad @ step)
        if lam2 / 2 <= NEWTON_DECREMENT_STOP:
            bound = s + mn / tau
            if mn / tau < tol:
                break
            tau *= BARRIER_GROWTH
            lam2_prev = math.inf
            continue
        stalled = lam2_prev < 0.25 and not lam2 < lam2_prev
        if stalled or not math.isfinite(lam2) or len(trace) == max_iter:
            break
        lam2_prev = lam2
        # the damped step stays inside the Dikin ellipsoid, so M stays PD
        # unless rounding has eaten the margin
        h = 1.0 / (1.0 + math.sqrt(lam2))
        t_new, s_new = t + h * step[:-1], s + h * float(step[-1])
        W_new = _inverse_if_pd(_gram_at(F, t_new, dirs) - s_new * eye)
        if W_new is None:
            break
        t, s, W = t_new, s_new, W_new
        trace.append(s)
        if s >= stop_at:
            break
        g, H = kernels.barrier_newton_system(W, dirs)
    return t, s, trace, bound


def sos_probe(t: SymmetricBiquadraticTensor, max_iter: int = 5000, tol: float = 1e-9) -> SOSProbeResult:
    """Decide-or-probe whether ``t`` admits a square certificate.

    Tries the exact canonical flattening first (status ``flattening_psd``).
    Otherwise it maximises s = lambda_min(G) over the affine Gram family,
    G(t) = F + sum_k t_k N_k with F the flattening, by a log-barrier method
    from t = 0. ``iterations`` counts its Newton steps (at most
    ``max_iter``) and ``trace`` holds s after each one.

    The solve stops at the first Newton step with s >= mn / D0, D0 the first
    rationalization denominator: rounding each shift t_k at D0 moves it by at
    most 1/(2 D0), direction N_k moves 4 distinct positions by that much, and
    a row of G holds at most (m-1)(n-1) of them, so by Weyl's inequality the
    rounded point keeps lambda_min >= s - (m-1)(n-1)/(2 D0) > 0 and the
    ladder's first rung certifies it. Any final point with s >= -tol
    is rounded up the ladder from D0, the only attempt at a certificate.
    ``trace`` and ``iterations`` end at the step that stopped the solve.

    ``tol`` must be finite and > 0. When the early stop is not reached, it
    is the barrier's duality-gap target and the primal threshold. Outcomes,
    with s the final value:

    * s >= -tol and rationalization verifies -> ``sos_certified``
    * s >= -tol but no exact certificate recovered -> ``feasible_numerical``
    * s < -tol and the duality bound s + mn / tau falls below -tol ->
      ``infeasible_suspected``: evidence of an empty spectrahedron, not
      proof, since the bound, taken at a float64 centre, can undershoot
      s* near 0
    * otherwise -> ``inconclusive``: ``max_iter`` ran out, or float64 could
      not close the gap, first

    With m = 1 or n = 1 the family has no free direction (K = 0): it is the
    flattening alone, which the exact LDL^T has refused, so no barrier runs
    and the result is ``infeasible_suspected`` with no iterations.
    """
    _check_tol(tol)
    cert = flattening_psd_check(t)
    if cert is not None:
        # exact all the way: no float conversion, so any rational entry works
        return SOSProbeResult("flattening_psd", cert, 0, GramPoint(0.0, 0.0))

    mn = t.m * t.n
    a4 = t.to_float()
    F = a4.reshape(mn, mn)
    dirs = kernels.gram_directions(t.m, t.n)
    if dirs[0].size == 0:
        return SOSProbeResult("infeasible_suspected", None, 0,
                              GramPoint(0.0, max(0.0, -float(np.linalg.eigvalsh(F)[0]))))
    stop_at = mn / RATIONALIZE_DENOMINATORS[0]
    shift, s, trace, bound = _barrier_max_min_eig(F, dirs, max_iter, tol, stop_at)
    G = _gram_at(F, shift, dirs)
    point = GramPoint(kernels.affine_residual(G, a4), max(0.0, -float(np.linalg.eigvalsh(G)[0])))
    it = len(trace)
    if s < -tol:
        status = "infeasible_suspected" if bound < -tol else "inconclusive"
        return SOSProbeResult(status, None, it, point, trace)
    cert = _rationalize(shift, dirs, t)
    status = "feasible_numerical" if cert is None else "sos_certified"
    return SOSProbeResult(status, cert, it, point, trace)


SWEEP_CLASSES = {"m_tensor": "m", "b0": "b0"}


def conjecture_sweep(klass: str, trials: int, seed: int, m: int, n: int, max_iter: int = 2000,
                     tol: float = 1e-8) -> Iterator[tuple[SymmetricBiquadraticTensor, SOSProbeResult]]:
    """Each of ``trials`` random members of a structured class with its probe result.

    ``klass`` is ``m_tensor`` or ``b0``. Trial k draws its tensor from
    ``default_rng([seed, k])``. The arguments are checked when this is
    called; the pairs are yielded lazily, one trial at a time, so a caller
    that keeps none of them holds one trial's tensor and certificate at most.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    _check_tol(tol)
    if klass not in SWEEP_CLASSES:
        raise ValueError(f"unknown sweep class {klass!r}; expected one of {tuple(SWEEP_CLASSES)}")
    gen_class = SWEEP_CLASSES[klass]
    tensors = (classes.gen_tensor(gen_class, m, n, np.random.default_rng([seed, trial]))
               for trial in range(trials))
    return ((t, sos_probe(t, max_iter=max_iter, tol=tol)) for t in tensors)


def choi_form() -> SymmetricBiquadraticTensor:
    """The classical 3 x 3 nonnegative biquadratic form with no bilinear
    square representation (Choi, 1975), as its symmetric tensor:

        sum_i x_i^2 y_i^2 + x1^2 y2^2 + x2^2 y3^2 + x3^2 y1^2
        - 2 (x1 x2 y1 y2 + x2 x3 y2 y3 + x3 x1 y3 y1).

    Used as the negative fixture: its flattening is not PSD (exact negative
    pivot) even though sampling finds no negative value.
    """
    data = np.zeros((3, 3, 3, 3), dtype=int)
    for i in range(3):
        k = (i + 1) % 3
        data[i, i, i, i] = data[i, k, i, k] = 1  # x_i^2 y_i^2, x_i^2 y_k^2
        data[i, i, k, k] = -2  # x_i y_i x_k y_k
    return symmetrize(data)
