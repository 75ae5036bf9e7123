"""The benchmark's contract with the library: ``perfbench.selftest`` checks
that every traced layer still exists under its name and that
``BENCHMARK.json`` lists exactly the traced metrics, so deleting or renaming
a traced function fails here rather than only when the benchmark runs."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "-m", "perfbench.selftest"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
