"""One workload in its own single-threaded process.

    python3 -m perfbench.worker --workload W --seed N --seconds S --trace 0|1
                                [--setup-only]

Sets up (imports and one untimed warm-up operation), prints
``READY <CLOCK_MONOTONIC seconds>``, and unless ``--setup-only`` builds its
inputs and runs:

* ``--trace 0``: whole rounds until S seconds have passed; prints the
  end-to-end figures.
* ``--trace 1``: a fixed number of rounds, once untraced and once traced;
  prints the per-layer figures and the tracing overhead. The round count
  depends only on the workload and S, so every count repeats exactly for a
  given seed.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from .tracer import CLI_COMMANDS, LAYERS, STATUSES, Tracer
from .workloads import ROOT, WORKLOADS

# Rounds per second of --seconds in a traced run: each of its two passes
# takes about half of --seconds on a 2-CPU x86 VM at the commit that
# introduced the benchmark.
TRACE_ROUNDS_PER_S = {"falsify": 0.1, "certify": 0.28, "probe": 0.16, "cli": 0.24}

COUNTERS = (
    ("kernels.refine_batch.starts", "count"),
    ("exactla.ldlt_psd.order", "count"),
    ("core.expand_certificate.terms", "count"),
    ("gram.dykstra_iters", "count"),
    ("jsonio.bytes", "bytes"),
    ("cli.import_ms", "ms"),
)


def per_layer_names():
    """Every per-layer metric a traced run prints, with its unit."""
    out = []
    for layer in dict.fromkeys(LAYERS.values()):
        out += [(f"{layer}.calls", "count"), (f"{layer}.ms", "ms"), (f"{layer}.self_ms", "ms")]
    out += list(COUNTERS)
    out += [(f"gram.status.{s}", "count") for s in STATUSES]
    out += [("gram.certified", "count"), ("gram.rationalize_yield", "ratio"),
            ("gram.rationalize_base", "count")]
    for c in CLI_COMMANDS:
        out += [(f"cli.command.{c}.ms", "ms"), (f"cli.command.{c}.self_ms", "ms")]
    out.append(("trace.overhead_pct", "%"))
    return out


def layer_values(tracer, untraced_s, traced_s):
    table = tracer.aggregate()
    counts = tracer.counts
    values = {}
    for layer in dict.fromkeys(list(LAYERS.values()) + [f"cli.command.{c}" for c in CLI_COMMANDS]):
        calls, total, own = table.get(layer, (0, 0.0, 0.0))
        values[f"{layer}.calls"] = calls
        values[f"{layer}.ms"] = total * 1000
        values[f"{layer}.self_ms"] = own * 1000
    for name, _ in COUNTERS:
        values[name] = counts[name]
    for s in STATUSES:
        values[f"gram.status.{s}"] = counts[f"gram.status.{s}"]
    values["gram.certified"] = counts["gram.status.sos_certified"] + counts["gram.status.flattening_psd"]
    base = counts["gram.status.sos_certified"] + counts["gram.status.feasible_numerical"]
    values["gram.rationalize_base"] = base
    values["gram.rationalize_yield"] = counts["gram.status.sos_certified"] / base if base else 0.0
    values["trace.overhead_pct"] = 100 * (traced_s / untraced_s - 1)
    return values


def summary(outcomes):
    failed = [o for o in outcomes if o.error or o.problems]
    return {
        "correct": not any(o.problems for o in outcomes),
        "attempted": len(outcomes),
        "failed": len(failed),
        "errors": sorted({o.error or o.problems[0] for o in failed})[:5],
    }


def peak_rss_mb(workload):
    # The CLI workload's figure is the largest biquad process it started.
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def timed_run(wl, name, seconds):
    outcomes = []
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        outcomes += wl.round(r)
        r += 1
    times = [o.seconds for o in outcomes]
    result = summary(outcomes)
    result["metrics"] = {
        "items_per_s": (len(times) / sum(times), "1/s"),
        "item_p50_ms": (statistics.median(times) * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb(name), "MB"),
    }
    result["detail"] = {"rounds": r, "items": len(times)}
    if hasattr(wl, "tally"):
        result["detail"]["status"] = dict(sorted(wl.tally.items()))
    return result


def traced_run(wl, name, seconds, tracer):
    """Each round runs untraced and traced, in alternating order, so that
    slow drift of the machine falls on both sides of the overhead figure."""
    rounds = max(1, round(TRACE_ROUNDS_PER_S[name] * seconds))
    untraced, traced = [], []
    for r in range(rounds):
        tracer.item = r
        if r % 2 == 0:
            untraced += wl.round(r)
        with wl.traced():
            traced += wl.round(r)
        if r % 2 == 1:
            untraced += wl.round(r)
    result = summary(untraced + traced)
    values = layer_values(tracer, sum(o.seconds for o in untraced),
                          sum(o.seconds for o in traced))
    result["metrics"] = {n: (values[n], unit) for n, unit in per_layer_names()}
    result["detail"] = {"rounds": rounds}
    return result, tracer.spans


def biquad_origin_ok():
    spec = importlib.util.find_spec("biquad")
    src = (ROOT / "src").resolve()
    return spec is not None and spec.origin is not None and src in Path(spec.origin).resolve().parents


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    if not biquad_origin_ok():
        print(f"error: biquad must be imported from {ROOT / 'src'}", file=sys.stderr)
        return 2
    work_dir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    tracer = Tracer()
    try:
        wl = WORKLOADS[args.workload](args.seed, work_dir, tracer)
        wl.warm_up()
        print(f"READY {time.clock_gettime(time.CLOCK_MONOTONIC)!r}", flush=True)
        if args.setup_only:
            return 0
        wl.prepare()
        if args.trace:
            result, spans = traced_run(wl, args.workload, args.seconds, tracer)
            results = ROOT / ".bench_work" / "results"
            results.mkdir(exist_ok=True)
            stem = f"{args.workload}-seed{args.seed}"
            with open(results / f"{stem}-spans.jsonl", "w") as fh:
                for span in spans:
                    fh.write(json.dumps(span) + "\n")
        else:
            result = timed_run(wl, args.workload, args.seconds)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
