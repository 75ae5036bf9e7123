"""What a CLI process loads: the exact commands run without numpy, the float
modules are registered lazily for perfbench's tracer, and oversized input
is refused as it is read."""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

import biquad
from biquad import classes, gram, jsonio
from biquad.cli import build_parser
from biquad.core import MonicParams, monic_to_tensor
from biquad.dominance import dd_sos_decompose

ROOT = Path(biquad.__file__).resolve().parents[2]
SRC = str(ROOT / "src")

# runs the CLI as `python -m biquad.cli` does and reports at exit whether
# numpy was ever imported (a module, once imported, stays in sys.modules)
DRIVER = """
import atexit, runpy, sys
atexit.register(lambda: print("numpy loaded:", "numpy" in sys.modules, file=sys.stderr))
sys.argv = ["biquad", *sys.argv[1:]]
runpy.run_module("biquad.cli", run_name="__main__")
"""


def python(*argv, timeout=120):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                          cwd=ROOT, timeout=timeout)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("startup")
    t = monic_to_tensor(MonicParams(2, 3, F(1, 5), F(-1, 4), F(1, 10)))
    jsonio.save_tensor(t, d / "t.json")
    jsonio.save_certificate(dd_sos_decompose(t), d / "c.json")
    return d


EXACT_COMMANDS = {
    "check-dd": (["t.json"], 0),
    "decompose-dd": (["t.json", "-o", "out.json"], 0),
    "verify": (["c.json", "t.json"], 0),
    "classify-monic": (["-m", "2", "-n", "2", "-a", "2", "-b", "0", "-c", "0"], 1),
    "decompose-monic": (["-m", "3", "-n", "2", "-a", "1/2", "-b", "1/3", "-c", "1/5"], 0),
    "eval": (["t.json", "-x", "1,-1/2", "-y", "1,2,3"], 0),
    "vertices": (["-m", "2", "-n", "3"], 0),
    "audit-grid": (["-m", "2", "-n", "2", "--step", "1", "--range", "1"], 0),
}


@pytest.mark.parametrize("command", EXACT_COMMANDS)
def test_exact_commands_run_without_numpy(files, command):
    args, code = EXACT_COMMANDS[command]
    proc = python("-c", DRIVER, command, *(str(files / a) if a.endswith(".json") else a for a in args))
    assert proc.returncode == code, proc.stderr
    assert proc.stderr == "numpy loaded: False\n"


def test_probe_of_a_psd_flattening_runs_without_numpy(files):
    # the exact LDL^T of t.json's flattening certifies it
    proc = python("-c", DRIVER, "probe", str(files / "t.json"))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "flattening_psd"
    assert proc.stderr == "numpy loaded: False\n"


def test_probe_without_free_directions_runs_without_numpy(tmp_path):
    # with n = 1 the exact LDL^T's refusal of diag(1, -1) proves the form not SOS
    entries = [{"i": i, "j": 1, "k": i, "l": 1, "v": v} for i, v in ((1, "1"), (2, "-1"))]
    (tmp_path / "t.json").write_text(json.dumps({"m": 2, "n": 1, "entries": entries}))
    proc = python("-c", DRIVER, "probe", str(tmp_path / "t.json"))
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["status"] == "not_sos"
    assert proc.stderr == "numpy loaded: False\n"


def test_a_float_command_loads_numpy(tmp_path):
    # Choi's flattening is not PSD, so probe runs the float barrier
    jsonio.save_tensor(gram.choi_form(), tmp_path / "choi.json")
    proc = python("-c", DRIVER, "probe", str(tmp_path / "choi.json"))
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["status"] == "infeasible_suspected"
    assert proc.stderr == "numpy loaded: True\n"


def test_probe_leaves_the_generators_unloaded(files):
    # gram reads classes only to generate a sweep's tensors
    proc = python("-c", """
import sys
from biquad.cli import main
main(["probe", "--quiet", sys.argv[1]])
print(type(sys.modules["biquad.gram"]).__name__, type(sys.modules["biquad.classes"]).__name__)
""", str(files / "t.json"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "module _LazyModule\n"


def test_cli_import_registers_every_traced_module_lazily():
    # perfbench's tracer looks up sys.modules["biquad.<m>"] for each module
    # of LAYERS right after `import biquad.cli`; the float ones load when read
    proc = python("-c", """
import sys
import biquad.cli
from perfbench.tracer import LAYERS
missing = sorted({m for m, _ in LAYERS} - {n[7:] for n in sys.modules if n.startswith("biquad.")})
before = "numpy" in sys.modules
sys.modules["biquad.kernels"].refine_batch
print(missing, before, "numpy" in sys.modules)
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] False True\n"


@pytest.mark.parametrize("command", ["check-dd", "probe"])
def test_traced_cli_run(files, tmp_path, command):
    # perfbench.cli_traced runs the command as the CLI does, and saves its spans
    spans = tmp_path / "spans.json"
    plain = python("-m", "biquad.cli", command, str(files / "t.json"))
    traced = python("-m", "perfbench.cli_traced", str(spans), "--", command, str(files / "t.json"))
    assert (traced.returncode, traced.stdout, traced.stderr) == (plain.returncode, plain.stdout, "")
    done = json.loads(spans.read_text())
    assert f"cli.command.{command}" in [span[0] for span in done["spans"]]
    assert done["counts"]["cli.import_ms"] > 0


def test_class_choices_are_the_module_constants():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))

    def choices(command):
        return tuple(next(a.choices for a in sub.choices[command]._actions if a.dest == "klass"))

    assert choices("gen") == classes.GENERATOR_CLASSES
    assert choices("sweep") == tuple(gram.SWEEP_CLASSES)


def test_each_float_module_is_registered_once():
    # the package registers them; core and cli import those same modules
    from biquad import cli, core

    for name in ("kernels", "classes", "gram"):
        assert getattr(biquad, name) is sys.modules[f"biquad.{name}"]
    assert core.kernels is biquad.kernels
    assert (cli.classes, cli.gram) == (biquad.classes, biquad.gram)


def test_float_names_load_from_the_package():
    assert biquad.sos_probe is gram.sos_probe and biquad.m_identity is classes.m_identity
    with pytest.raises(AttributeError):
        biquad.no_such_name


# Many distinct long denominators: each number is within the digit limit, but
# their lcm, the common denominator the exact layer would work with, is not.

def test_probe_refuses_a_tensor_of_many_long_denominators(tmp_path):
    # the 136 entries of the upper triangle of a 4 x 4 flattening
    pairs = combinations_with_replacement(range(16), 2)
    entries = [{"i": p // 4 + 1, "j": p % 4 + 1, "k": q // 4 + 1, "l": q % 4 + 1,
                "v": f"{100 if p == q else 1}/{10**299 + 2 * k + 1}"}
               for k, (p, q) in enumerate(pairs)]
    assert len(entries) == 136
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"m": 4, "n": 4, "entries": entries}))
    start = time.perf_counter()
    proc = python("-m", "biquad.cli", "probe", str(path))
    assert time.perf_counter() - start < 2
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("error: the denominators of the tensor entries have an lcm of more "
                           f"than {sys.get_int_max_str_digits()} digits\n")


@pytest.mark.parametrize("long_in", ["weight", "W"])
def test_verify_refuses_a_certificate_of_many_long_denominators(tmp_path, long_in):
    # 800 terms whose weights, or whose forms, have distinct 1000-digit denominators
    def term(t):
        long = f"1/{10**999 + 2 * t + 1}"
        return ({"weight": long, "W": [["1", "0"], ["0", "1"]]} if long_in == "weight"
                else {"weight": "1", "W": [[long, "0"], ["0", "1"]]})

    (tmp_path / "c.json").write_text(json.dumps({"m": 2, "n": 2, "terms": [term(t) for t in range(800)]}))
    jsonio.save_tensor(classes.m_identity(2, 2), tmp_path / "t.json")
    start = time.perf_counter()
    proc = python("-m", "biquad.cli", "verify", str(tmp_path / "c.json"), str(tmp_path / "t.json"))
    assert time.perf_counter() - start < 2
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == ("error: the denominators of the certificate's weights and W entries have "
                           f"an lcm of more than {4 * sys.get_int_max_str_digits()} digits\n")


def test_an_ldlt_certificate_past_the_digit_limit_reads_back():
    # the weights of an 8 x 8 flattening LDL^T have an lcm of about 6,600
    # digits, more than one number's limit but within mn of them (and so
    # have its W entries)
    import numpy as np

    t = classes.gen_tensor("b0", 8, 8, np.random.default_rng(3))
    cert = gram.flattening_psd_check(t)
    lcm = math.lcm(*(w.denominator for w, _ in cert.terms))
    assert lcm >= 10 ** sys.get_int_max_str_digits()
    back = jsonio.certificate_from_dict(json.loads(jsonio.certificate_text(cert)))
    assert [w for w, _ in back.terms] == [w for w, _ in cert.terms]
