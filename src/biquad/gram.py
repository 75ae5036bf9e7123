"""Gram-matrix search for square certificates beyond the dominated case.

A tensor is a sum of squares of bilinear forms iff some PSD matrix G
represents its form as z^T G z under the pairing z[(i,j)] = x_i y_j. The
admissible G form an affine family (the monomial identity
(x_i y_j)(x_k y_l) = (x_i y_l)(x_k y_j) pairs matrix positions), and the
canonical member is the flattening itself. This module provides:

* ``flattening_psd_check``: exact LDL^T of the canonical point. Sufficient,
  not necessary, for the existence of a certificate.
* ``sos_probe``: Dykstra alternating projections between the affine family
  and the PSD cone, followed by rationalization and exact re-verification of
  any numeric solution. Divergence is reported as *suspected* infeasibility,
  never as proof.
* ``conjecture_sweep``: batch probes over random members of the structured
  classes, tabulated to CSV.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import exactla, jsonio, kernels
from .classes import gen_tensor
from .core import (
    BilinearForm,
    SOSCertificate,
    SymmetricBiquadraticTensor,
    expand_certificate,
    rational_array,
    tensors_equal,
)
from .dominance import flatten

__all__ = [
    "PROBE_STATUSES",
    "GramPoint",
    "SOSProbeResult",
    "SweepRow",
    "flattening_psd_check",
    "gram_project_affine",
    "gram_project_psd",
    "sos_probe",
    "conjecture_sweep",
    "write_sweep_csv",
    "choi_form",
]

PROBE_STATUSES = (
    "sos_certified",
    "flattening_psd",
    "feasible_numerical",
    "infeasible_suspected",
    "inconclusive",
)

RATIONALIZE_DENOMINATORS = (10, 100, 1000, 10_000, 100_000, 1_000_000)


@dataclass
class GramPoint:
    """A Gram candidate with its two feasibility residuals. G is float, or the
    exact rational flattening when that is PSD.

    residual_affine: max constraint violation |G[(i,j),(k,l)] + G[(i,l),(k,j)]
    - 2 a[i,j,k,l]|. residual_psd: the most negative eigenvalue, clipped at 0.
    """

    G: np.ndarray
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


def _gram_certificate(G: np.ndarray, t: SymmetricBiquadraticTensor) -> SOSCertificate | None:
    """Exact certificate from a rational Gram point G of ``t``, when G is PSD.

    Runs pivoted rational LDL^T on G; each pivot (all are positive) yields
    one bilinear form per factor column with the pivot as weight. The
    certificate is expanded and compared with ``t`` exactly before it is
    returned. Returns None when G is not PSD.
    """
    res = exactla.ldlt_psd(G)
    if not res.ok:
        return None
    m, n = t.m, t.n
    cert = SOSCertificate(m, n, tuple(
        (term.pivot, BilinearForm(m, n, np.array(term.vector, dtype=object).reshape(m, n)))
        for term in res.terms))
    if not tensors_equal(expand_certificate(cert), t):  # pragma: no cover - defensive
        raise AssertionError("Gram certificate failed exact round-trip")
    return cert


def flattening_psd_check(t: SymmetricBiquadraticTensor) -> SOSCertificate | None:
    """Exact certificate from the canonical flattening, when it is PSD.

    The certificate expands back to ``t`` exactly. Returns None when the
    flattening is not PSD, which decides nothing about ``t`` itself.
    """
    return _gram_certificate(flatten(t).M, t)


def gram_project_affine(G: np.ndarray, t: SymmetricBiquadraticTensor) -> np.ndarray:
    """Project a symmetric float matrix onto the affine Gram family of t."""
    return kernels.project_affine(np.asarray(G, dtype=np.float64), t.to_float())


def gram_project_psd(G: np.ndarray) -> np.ndarray:
    """Project a symmetric float matrix onto the PSD cone (eigenvalue clip)."""
    Gs = 0.5 * (G + G.T)
    try:
        w, V = np.linalg.eigh(Gs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh on finite input
        raise RuntimeError(f"eigendecomposition failed on:\n{Gs!r}") from exc
    out = (V * np.clip(w, 0.0, None)) @ V.T
    return 0.5 * (out + out.T)


def _psd_residual(G: np.ndarray) -> float:
    w = np.linalg.eigvalsh(0.5 * (G + G.T))
    return float(max(0.0, -w[0]))


def _rationalize(G: np.ndarray, t: SymmetricBiquadraticTensor) -> SOSCertificate | None:
    """Round a numeric Gram point to rationals and verify exactly.

    Continued-fraction rounding at an escalating denominator ladder; every
    candidate is re-projected onto the affine family exactly, which makes its
    expansion equal ``t``, and passed through rational LDL^T, so no inexact
    certificate can escape.
    """
    mn = t.m * t.n
    upper = np.triu_indices(mn)
    for denom in RATIONALIZE_DENOMINATORS:
        rat = np.empty((mn, mn), dtype=object)
        rat[upper] = [Fraction(float(v)).limit_denominator(denom) for v in G[upper]]
        rat.T[upper] = rat[upper]  # symmetric, from the upper triangle
        cert = _gram_certificate(kernels.project_affine(rat, t.entries), t)
        if cert is not None:
            return cert
    return None


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")


def sos_probe(t: SymmetricBiquadraticTensor, max_iter: int = 5000, tol: float = 1e-9) -> SOSProbeResult:
    """Decide-or-probe whether ``t`` admits a square certificate.

    Tries the exact canonical flattening first (status ``flattening_psd``).
    Otherwise runs Dykstra's alternating projections between the affine Gram
    family and the PSD cone from the flattening, recording the combined
    residual each iteration; ``tol`` must be finite and > 0. Outcomes:

    * combined residual < tol and rationalization verifies -> ``sos_certified``
    * residual < tol but no exact certificate recovered -> ``feasible_numerical``
    * residual stalls above tol over a max_iter/10 window -> ``infeasible_suspected``
      (evidence of an empty intersection, not proof)
    * otherwise -> ``inconclusive``
    """
    _check_tol(tol)
    mn = t.m * t.n
    cert = flattening_psd_check(t)
    if cert is not None:
        # exact all the way: no float conversion, so any rational entry works
        return SOSProbeResult("flattening_psd", cert, 0, GramPoint(t.entries.reshape(mn, mn), 0.0, 0.0))

    a4 = t.to_float()
    X = a4.reshape(mn, mn)
    p = np.zeros_like(X)
    q = np.zeros_like(X)
    trace: list[float] = []
    window = max(10, max_iter // 10)
    status = "inconclusive"
    Y = X
    it = 0
    for it in range(1, max_iter + 1):
        Y = kernels.project_affine(X + p, a4)
        p = X + p - Y
        X = gram_project_psd(Y + q)
        q = Y + q - X
        r_aff = kernels.affine_residual(X, a4)
        r_psd = _psd_residual(Y)
        combined = max(r_aff, r_psd)
        trace.append(combined)
        if combined < tol:
            status = "converged"
            break
        if it % window == 0 and it >= 2 * window:
            recent = min(trace[-window:])
            before = min(trace[-2 * window:-window])
            if recent > tol and recent >= 0.999 * before:
                status = "infeasible_suspected"
                break

    point = GramPoint(X, kernels.affine_residual(X, a4), _psd_residual(Y))
    if status == "converged":
        cert = _rationalize(X, t)
        if cert is not None:
            return SOSProbeResult("sos_certified", cert, it, point, trace)
        return SOSProbeResult("feasible_numerical", None, it, point, trace)
    if status == "infeasible_suspected":
        return SOSProbeResult("infeasible_suspected", None, it, point, trace)
    return SOSProbeResult("inconclusive", None, it, point, trace)


@dataclass(frozen=True)
class SweepRow:
    trial: int
    seed: int
    status: str
    iterations: int
    residual_affine: float
    residual_psd: float


SWEEP_CLASSES = {"m_tensor": "m", "b0": "b0"}


def conjecture_sweep(klass: str, trials: int, seed: int, m: int, n: int,
                     max_iter: int = 2000, tol: float = 1e-8,
                     fixture_dir=None) -> list[SweepRow]:
    """Probe ``trials`` random members of a structured class.

    ``klass`` is ``m_tensor`` or ``b0``. Deterministic per seed. When
    ``fixture_dir`` is given, any tensor whose probe reports
    ``infeasible_suspected`` is saved there as a JSON fixture for inspection
    (such a tensor would be evidence against the class being closed under
    square certificates). Arguments are checked before the first trial.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    _check_tol(tol)
    if klass not in SWEEP_CLASSES:
        raise ValueError(f"unknown sweep class {klass!r}; expected one of {tuple(SWEEP_CLASSES)}")
    gen_class = SWEEP_CLASSES[klass]
    rows = []
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        t = gen_tensor(gen_class, m, n, rng)
        res = sos_probe(t, max_iter=max_iter, tol=tol)
        rows.append(SweepRow(trial, seed, res.status, res.iterations,
                             res.residuals.residual_affine, res.residuals.residual_psd))
        if res.status == "infeasible_suspected" and fixture_dir is not None:
            path = Path(fixture_dir) / f"{klass}_m{m}_n{n}_seed{seed}_trial{trial}.json"
            jsonio.save_tensor(t, path)
    return rows


def write_sweep_csv(rows, fh) -> None:
    writer = csv.writer(fh)
    writer.writerow(["trial", "seed", "status", "iterations", "residual_affine", "residual_psd"])
    for r in rows:
        writer.writerow([r.trial, r.seed, r.status, r.iterations,
                         f"{r.residual_affine:.3e}", f"{r.residual_psd:.3e}"])


def sweep_counts(rows) -> dict:
    counts: dict[str, int] = {}
    for r in rows:
        counts[r.status] = counts.get(r.status, 0) + 1
    return counts


_CHOI_NONZERO = {
    # diagonal block: x_i^2 y_i^2 and the cyclic x_i^2 y_{i+1}^2
    (1, 1, 1, 1): "1", (2, 2, 2, 2): "1", (3, 3, 3, 3): "1",
    (1, 2, 1, 2): "1", (2, 3, 2, 3): "1", (3, 1, 3, 1): "1",
    # -2 x_i x_{i+1} y_i y_{i+1}, spread over the symmetry orbit of four slots
    (1, 1, 2, 2): "-1/2", (1, 2, 2, 1): "-1/2", (2, 1, 1, 2): "-1/2", (2, 2, 1, 1): "-1/2",
    (2, 2, 3, 3): "-1/2", (2, 3, 3, 2): "-1/2", (3, 2, 2, 3): "-1/2", (3, 3, 2, 2): "-1/2",
    (1, 1, 3, 3): "-1/2", (1, 3, 3, 1): "-1/2", (3, 1, 1, 3): "-1/2", (3, 3, 1, 1): "-1/2",
}


def choi_form() -> SymmetricBiquadraticTensor:
    """The classical 3 x 3 nonnegative biquadratic form with no bilinear
    square representation (Choi, 1975), as its symmetric tensor:

        sum_i x_i^2 y_i^2 + x1^2 y2^2 + x2^2 y3^2 + x3^2 y1^2
        - 2 (x1 x2 y1 y2 + x2 x3 y2 y3 + x3 x1 y3 y1).

    Used as the negative fixture: its flattening is not PSD (exact negative
    pivot) even though sampling finds no negative value.
    """
    data = np.full((3, 3, 3, 3), Fraction(0), dtype=object)
    for (i, j, k, l), v in _CHOI_NONZERO.items():
        data[i - 1, j - 1, k - 1, l - 1] = Fraction(v)
    return SymmetricBiquadraticTensor(3, 3, rational_array(data))
