"""Command-line interface.

Exit codes distinguish mathematically negative answers from operational
failures so pipelines can branch on verdicts:

    0  success / affirmative (PSD, dominated, verified, report produced)
    1  negative verdict (not PSD, not dominated, verification failed,
       suspected infeasibility, audit found disagreements)
    2  usage or I/O error (bad flags, malformed JSON, a bad rational such as
       "1/0" or "1e3", an unreadable or unwritable path, dimension mismatch)

All reports are single JSON documents on stdout with sorted keys; identical
argv and seed give byte-identical output. Flags and files take rationals as
``core.rational`` reads them: "p/q", "p" or a plain decimal, no exponent.
The float modules (``classes``, ``gram``, ``kernels``), which the package
registers lazily, load on first use by classify, gen, probe or sweep: the
exact commands run without numpy.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

from . import classes, dominance, gram, jsonio, monic
from .core import (
    MonicParams,
    check_dims,
    clip,
    evaluate,
    expand_certificate,
    rational,
    tensors_equal,
)

# gen's and sweep's --class choices; classes.GENERATOR_CLASSES and
# gram.SWEEP_CLASSES, which the tests pin them to, would load numpy.
GEN_CLASSES = ("dd", "z", "m", "b0")
SWEEP_CLASSES = ("m_tensor", "b0")

# argparse takes a token that starts with '-' as an option's value only if
# its negative-number matcher matches it; this one matches when each
# comma-separated part is a rational, as "-1/3", "-1_000" or "-1,2/3".
class _NegativeRational:
    @staticmethod
    def match(token: str) -> bool:
        try:
            for part in token.split(","):
                rational(part)
        except ValueError:
            return False
        return True


# audit-grid runs the exact classifier once per point, about 0.3 ms each
# (30 s at the cap on a 2-vCPU VM); larger grids are refused before the loop.
MAX_GRID_POINTS = 100_000

# probe and sweep run up to --max-iter Newton steps of the log-barrier Gram
# solve per tensor whose flattening is not PSD, and sweep does so for
# --trials tensors; larger counts, counts below 1 and sweeps whose sweep_work
# exceeds MAX_SWEEP_WORK are refused before any work.
MAX_ITER = 100_000
MAX_TRIALS = 10_000
MAX_SWEEP_WORK = 10**10
SWEEP_EXACT_ITERS = 2_500


def sweep_work(trials: int, m: int, n: int, max_iter: int) -> int:
    """Estimated sweep cost, trials * (mn)^3 * (max_iter + SWEEP_EXACT_ITERS).

    A trial's exact path (generation, LDL^T, expansion) costs up to about
    SWEEP_EXACT_ITERS units of (mn)^3 at m*n = 64; the largest sweeps it
    accepts take 4-19 s on a 2-vCPU VM. The max_iter term charges (mn)^3 per
    step, less than a Newton step's K^3 + (mn)^3 (K = C(m,2) C(n,2)), but the
    barrier ends by itself after 30-220 steps, and the structured classes
    rarely reach it: their flattening is almost always PSD."""
    return trials * (m * n) ** 3 * (max_iter + SWEEP_EXACT_ITERS)


class _Parser(argparse.ArgumentParser):
    # add_subparsers builds subparsers of the parent's class, so every
    # subcommand gets the widened matcher too.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NegativeRational


def _check_count(flag: str, value: int, cap: int) -> None:
    if not 1 <= value <= cap:
        raise ValueError(f"{flag} must be between 1 and {cap}, got {clip(str(value))}")


def _emit(args, payload: dict) -> None:
    if not getattr(args, "quiet", False):
        sys.stdout.write(jsonio.dumps_canonical(payload))


def _write_or_emit(args, text: str) -> None:
    """Write a file's text to -o, or else to stdout."""
    if args.output:
        Path(args.output).write_text(text)
        _emit(args, {"written": str(args.output)})
    elif not args.quiet:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommand handlers (each returns the exit code)
# ---------------------------------------------------------------------------

def _violation_records(violations, n: int) -> list[dict]:
    """1-based (i, j) records of dominance_violations' (p, diagonal, bound)."""
    return [{"i": p // n + 1, "j": p % n + 1, "diagonal": jsonio.rational_to_str(diag),
             "bound": jsonio.rational_to_str(bound)} for p, diag, bound in violations]


def _cmd_check_dd(args) -> int:
    t = jsonio.load_tensor(args.tensor)
    violations = _violation_records(dominance.dominance_violations(t.rows), t.n)
    ok = not violations
    _emit(args, {"diagonally_dominated": ok, "violations": violations})
    return 0 if ok else 1


def _cmd_decompose_dd(args) -> int:
    t = jsonio.load_tensor(args.tensor)
    try:
        cert = dominance.dd_sos_decompose(t)
    except dominance.NotDiagonallyDominantError as exc:
        _emit(args, {"error": "not diagonally dominated",
                     "violations": _violation_records(exc.violations, t.n)})
        return 1
    _write_or_emit(args, jsonio.certificate_text(cert))
    return 0


def _monic_report(p: MonicParams) -> dict:
    psd, report = monic.psd_conditions(p)
    lam = monic.barycentric(p)
    return {
        "m": p.m,
        "n": p.n,
        "a": jsonio.rational_to_str(p.a),
        "b": jsonio.rational_to_str(p.b),
        "c": jsonio.rational_to_str(p.c),
        "psd": psd,
        "conditions": {lab: (v >= 0 if v is not None else None) for lab, v in report.items()},
        "eigenvalues": {lab: (jsonio.rational_to_str(v) if v is not None else None)
                        for lab, v in report.items()},
        "barycentric": [jsonio.rational_to_str(w) for w in lam] if lam is not None else None,
    }


def _cmd_classify_monic(args) -> int:
    p = MonicParams(args.m, args.n, args.a, args.b, args.c)
    report = _monic_report(p)
    _emit(args, report)
    return 0 if report["psd"] else 1


def _cmd_decompose_monic(args) -> int:
    p = MonicParams(args.m, args.n, args.a, args.b, args.c)
    cert = monic.monic_sos_decompose(p)
    if cert is None:
        _emit(args, {"error": "form is not PSD", "psd": False})
        return 1
    _write_or_emit(args, jsonio.certificate_text(cert))
    return 0


def _cmd_vertices(args) -> int:
    payload = {"m": args.m, "n": args.n}
    for idx, vert in enumerate(monic.tetrahedron(args.m, args.n), start=1):
        payload[f"V{idx}"] = [jsonio.rational_to_str(c) for c in vert]
    _emit(args, payload)
    return 0


def _cmd_audit_grid(args) -> int:
    step = args.step
    span = args.range
    if step <= 0 or span <= 0:
        raise ValueError("--step and --range must be positive rationals")
    count = int(2 * span / step)
    points = (count + 1) ** 3
    if points > MAX_GRID_POINTS:
        raise ValueError(f"grid of {points} points exceeds the maximum {MAX_GRID_POINTS}")
    values = [-span + k * step for k in range(count + 1)]
    disagreements = []
    for a in values:
        for b in values:
            for c in values:
                p = MonicParams(args.m, args.n, a, b, c)
                if not monic.membership_equivalence_check(p):
                    disagreements.append(list(map(jsonio.rational_to_str, (a, b, c))))
    _emit(args, {
        "m": args.m, "n": args.n, "points": points,
        "step": jsonio.rational_to_str(step), "range": jsonio.rational_to_str(span),
        "disagreements": disagreements, "agree": not disagreements,
    })
    return 0 if not disagreements else 1


def _cmd_classify(args) -> int:
    t = jsonio.load_tensor(args.tensor)
    rep = classes.classify(t, seed=args.seed)
    mt = rep.m_tensor
    _emit(args, {
        "is_z": rep.is_z,
        "is_b0": rep.is_b0,
        "is_dd": rep.is_dd,
        "m_tensor": {
            "alpha": jsonio.rational_to_str(mt.alpha) if mt.alpha is not None else None,
            "lambda_max_estimate": mt.lambda_max_estimate,
            "verdict": mt.verdict,
        },
    })
    return 0


def _cmd_gen(args) -> int:
    import numpy as np

    rng = np.random.default_rng(args.seed)
    t = classes.gen_tensor(args.klass, args.m, args.n, rng)
    _write_or_emit(args, jsonio.dumps_canonical(jsonio.tensor_to_dict(t)))
    return 0


def _cmd_probe(args) -> int:
    _check_count("--max-iter", args.max_iter, MAX_ITER)
    t = jsonio.load_tensor(args.tensor)
    res = gram.sos_probe(t, max_iter=args.max_iter, tol=args.tol)
    payload = {
        "status": res.status,
        "certified": res.certified,
        "iterations": res.iterations,
        "residual_affine": res.residuals.residual_affine,
        "residual_psd": res.residuals.residual_psd,
        "certificate": (jsonio.certificate_to_dict(res.certificate)
                        if res.certificate is not None else None),
    }
    if args.trace:
        payload["trace"] = res.trace
    _emit(args, payload)
    return 1 if res.status == "infeasible_suspected" else 0


def _cmd_sweep(args) -> int:
    import csv

    _check_count("--trials", args.trials, MAX_TRIALS)
    _check_count("--max-iter", args.max_iter, MAX_ITER)
    if (work := sweep_work(args.trials, args.m, args.n, args.max_iter)) > MAX_SWEEP_WORK:
        raise ValueError(f"sweep estimate trials*(m*n)^3*(max_iter+{SWEEP_EXACT_ITERS}) = {work} "
                         f"exceeds the maximum {MAX_SWEEP_WORK}; use fewer --trials or --max-iter")
    fixture_dir = Path(args.output).resolve().parent if args.output else None
    counts = Counter()
    # Open -o first, so an unwritable path fails before the sweep runs, and
    # write each row as its trial ends, so a stopped sweep keeps the rows
    # of the trials it finished.
    with open(args.output, "w", newline="") if args.output else nullcontext(sys.stdout) as fh:
        trials = gram.conjecture_sweep(args.klass, args.trials, args.seed, args.m, args.n,
                                       max_iter=args.max_iter, tol=args.tol)
        writer = csv.writer(fh)
        writer.writerow(["trial", "seed", "status", "iterations", "residual_affine", "residual_psd"])
        fh.flush()
        for trial, (t, r) in enumerate(trials):
            writer.writerow([trial, args.seed, r.status, r.iterations,
                             f"{r.residuals.residual_affine:.3e}", f"{r.residuals.residual_psd:.3e}"])
            fh.flush()
            counts[r.status] += 1
            if r.status == "infeasible_suspected" and fixture_dir is not None:
                name = f"{args.klass}_m{args.m}_n{args.n}_seed{args.seed}_trial{trial}.json"
                jsonio.save_tensor(t, fixture_dir / name)
    if args.output:
        _emit(args, {"trials": args.trials, "counts": counts, "csv": str(args.output)})
    return 0


def _cmd_verify(args) -> int:
    cert = jsonio.load_certificate(args.certificate)
    t = jsonio.load_tensor(args.tensor)
    expanded = expand_certificate(cert)
    if (expanded.m, expanded.n) != (t.m, t.n):
        raise ValueError(f"certificate is ({expanded.m},{expanded.n}) but tensor is ({t.m},{t.n})")
    ok = tensors_equal(expanded, t)
    _emit(args, {"match": ok})
    return 0 if ok else 1


def _parse_vector(text: str, length: int, name: str) -> list[Fraction]:
    parts = text.split(",")
    if not all(s.strip() for s in parts):
        raise ValueError(f"{name} has an empty field: {clip(repr(text))}")
    if len(parts) != length:
        raise ValueError(f"{name} needs {length} comma-separated rationals, got {len(parts)}")
    return [_rational(s) for s in parts]


def _cmd_eval(args) -> int:
    t = jsonio.load_tensor(args.tensor)
    x = _parse_vector(args.x, t.m, "-x")
    y = _parse_vector(args.y, t.n, "-y")
    _emit(args, {"value": jsonio.rational_to_str(evaluate(t, x, y))})
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _rational(text: str, short: str = "") -> Fraction:
    """``core.rational``; a refusal says ``short`` or the reason, or past 100 characters
    of repr the value, its length and the reason (which may quote it), clipped."""
    try:
        return rational(text)
    except ValueError as exc:
        if len(repr(text)) > 100:
            short = (f"invalid rational value: {clip(repr(text))} ({len(text)} characters): "
                     f"{clip(str(exc))}")
        raise ValueError(short or str(exc)) from None


def _rational_flag(text: str) -> Fraction:
    """``_rational`` for argparse, which would echo a refused value whole and drop the reason."""
    try:
        return _rational(text, f"invalid rational value: {text!r}")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _integer_flag(text: str) -> int:
    """``int`` for argparse, which would echo a refused value whole; past 100 characters
    of repr it is clipped (int's own reason only quotes it or names the digit limit)."""
    try:
        return int(text)
    except ValueError:
        length = f" ({len(text)} characters)" if len(repr(text)) > 100 else ""
        raise argparse.ArgumentTypeError(f"invalid int value: {clip(repr(text))}{length}") from None


def _add_dims(p: argparse.ArgumentParser) -> None:
    p.add_argument("-m", type=_integer_flag, required=True, help="x dimension")
    p.add_argument("-n", type=_integer_flag, required=True, help="y dimension")


def _add_abc(p: argparse.ArgumentParser) -> None:
    p.add_argument("-a", type=_rational_flag, required=True, help="coefficient a (rational)")
    p.add_argument("-b", type=_rational_flag, required=True, help="coefficient b (rational)")
    p.add_argument("-c", type=_rational_flag, required=True, help="coefficient c (rational)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="biquad",
                     description="Exact certificates for structured biquadratic tensors")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--quiet", action="store_true", help="suppress the JSON report")
        return p

    p = add("check-dd", _cmd_check_dd, "test diagonal dominance of a tensor file")
    p.add_argument("tensor")

    p = add("decompose-dd", _cmd_decompose_dd, "square certificate via diagonal dominance")
    p.add_argument("tensor")
    p.add_argument("-o", "--output", help="write the certificate JSON here")

    p = add("classify-monic", _cmd_classify_monic, "PSD classification of a monic symmetric form")
    _add_dims(p)
    _add_abc(p)

    p = add("decompose-monic", _cmd_decompose_monic, "square certificate of a PSD monic form")
    _add_dims(p)
    _add_abc(p)
    p.add_argument("-o", "--output", help="write the certificate JSON here")

    p = add("vertices", _cmd_vertices, "vertices of the monic PSD tetrahedron")
    _add_dims(p)

    p = add("audit-grid", _cmd_audit_grid, "audit classifier/tetrahedron agreement on a grid")
    _add_dims(p)
    p.add_argument("--step", type=_rational_flag, default=Fraction(1, 5))
    p.add_argument("--range", type=_rational_flag, default=Fraction(2))

    p = add("classify", _cmd_classify, "structured-class membership report")
    p.add_argument("tensor")
    p.add_argument("--seed", type=_integer_flag, default=0, help="RNG seed (default 0)")

    p = add("gen", _cmd_gen, "generate a random member of a structured class")
    p.add_argument("--class", dest="klass", required=True, choices=GEN_CLASSES)
    _add_dims(p)
    p.add_argument("--seed", type=_integer_flag, default=0, help="RNG seed (default 0)")
    p.add_argument("-o", "--output", help="write the tensor JSON here")

    p = add("probe", _cmd_probe, "log-barrier Gram search for a certificate")
    p.add_argument("tensor")
    p.add_argument("--max-iter", type=_integer_flag, default=5000)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--trace", action="store_true",
                   help="include s, the barrier's lower bound on lambda_min(G), per Newton step")

    p = add("sweep", _cmd_sweep, "probe a batch of random class members, emit CSV")
    p.add_argument("--class", dest="klass", required=True, choices=SWEEP_CLASSES)
    _add_dims(p)
    p.add_argument("--trials", type=_integer_flag, required=True)
    p.add_argument("--seed", type=_integer_flag, default=0, help="RNG seed (default 0)")
    p.add_argument("--max-iter", type=_integer_flag, default=2000)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("-o", "--output", help="write the CSV here (infeasible fixtures go beside it)")

    p = add("verify", _cmd_verify, "re-check a certificate file against a tensor file")
    p.add_argument("certificate")
    p.add_argument("tensor")

    p = add("eval", _cmd_eval, "evaluate a tensor's form at rational vectors")
    p.add_argument("tensor")
    p.add_argument("-x", required=True, help="comma-separated rationals, length m")
    p.add_argument("-y", required=True, help="comma-separated rationals, length n")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; preserve both.
        return int(exc.code or 0)
    try:
        if "m" in args:  # every command with -m has -n too
            check_dims(args.m, args.n)
        return args.handler(args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return 2
    except (OSError, ValueError, TypeError, IndexError, KeyError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def app() -> None:
    sys.exit(main())


if __name__ == "__main__":
    app()
