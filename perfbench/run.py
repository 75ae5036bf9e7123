"""biquad benchmark: one workload per call, result as the last stdout line.

    python3 perfbench/run.py --workload falsify|certify|probe|cli|all \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports biquad from ``src/`` there.
Each call starts the workload in its own single-threaded process (see
worker.py). With ``--trace 0`` it first starts SETUP_REPEATS more processes
that only set up, and reports the median set-up time of all of them. The
last stdout line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; a copy with more detail goes to
``.bench_work/results/``. ``--workload all`` runs the four in turn and
prints one such line each, with a ``workload`` key added. Exits 2 when the
checkout holds no biquad sources.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("falsify", "certify", "probe", "cli")
SETUP_REPEATS = 4
DEADLINE_S = 170  # every run must end within 180 s


def spawn(cmd, env, deadline):
    """Run one worker; return (set-up seconds, its last stdout line).

    The worker gets its own process group, so that on timeout the CLI
    processes it started are stopped with it.
    """
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=env, cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"error: the {cmd[4]} worker did not finish within {DEADLINE_S} s")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise SystemExit(f"error: worker exited with code {proc.returncode}")
    lines = out.splitlines()
    ready = next(float(line.split()[1]) for line in lines if line.startswith("READY "))
    return ready - start, lines[-1]


def run_workload(workload, seed, seconds, trace):
    """Run one workload; return its result object."""
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    setups = []
    if not trace:
        setups = [spawn(cmd + ["--setup-only"], env, deadline)[0] for _ in range(SETUP_REPEATS)]
    setup, line = spawn(cmd, env, deadline)
    result = json.loads(line)
    metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in result["metrics"].items()}
    if not trace:
        metrics = {"setup_s": {"value": statistics.median(setups + [setup]), "unit": "s"},
                   **metrics}
    out = {k: result[k] for k in ("correct", "attempted", "failed")}
    out["metrics"] = metrics
    results = ROOT / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    (results / f"{stem}.json").write_text(json.dumps(
        {**out, "errors": result["errors"], "detail": result["detail"],
         "setups_s": setups + [setup]}, indent=1) + "\n")
    print(json.dumps({"workload": workload, "errors": result["errors"], **result["detail"]}),
          file=sys.stderr)
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "biquad" / "__init__.py").is_file():
        print(f"error: no biquad sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
        return 0
    for workload in WORKLOADS:
        out = run_workload(workload, args.seed, args.seconds, args.trace)
        print(json.dumps({"workload": workload, **out}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
