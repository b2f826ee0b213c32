"""scipy is loaded at the first adder-layer forward only: runs of the
accelerator cost model alone never import it, and the first import may come
from several co-search pool threads at once. Each check runs in a fresh
interpreter, because this test process has long since imported scipy."""

import os
import subprocess
import sys
from pathlib import Path

import chunknas
from test_cli import flat_genome_str

TESTS = Path(__file__).resolve().parent
SRC = Path(chunknas.__file__).resolve().parent.parent

ACCEL_ONLY = """
import sys

import chunknas, chunknas.cli
from chunknas.cli import main

def check(what):
    if "scipy.spatial" in sys.modules:
        sys.exit(f"scipy.spatial loaded after {what}")

check("import")
out, genome = sys.argv[1:]
for argv in (["oracle-compare"], ["reproduce-tables"],
             ["--output", out, "search-accel", "--genome", genome]):
    if main(argv) != 0:
        sys.exit(f"{argv} failed")
    check(argv[0] if len(argv) == 1 else "search-accel")
"""

THREADED_FIRST_IMPORT = """
import json
import sys
from dataclasses import replace

from chunknas.cosearch import Constraint, SearchParams, cosearch
from chunknas.search_space import LayerType
from test_cosearch import COEFFS, small_budget, tiny_space

space = tiny_space()
space = replace(space, stages=(replace(space.stages[0], type_choices=(LayerType.ADDER,)),
                               *space.stages[1:]))
constraint = Constraint(max_dsp=32, max_lut=12000)
params = SearchParams(population=4, expand_size=2, iterations=1, top_k=2, seed=1)

def run(threads):
    res = cosearch(space, small_budget(), constraint, params, COEFFS, threads=threads)
    return json.dumps([[r.to_dict() for r in res.population], res.log, res.evaluations],
                      sort_keys=True)

if "scipy.spatial" in sys.modules:
    sys.exit("scipy.spatial loaded before the co-search")
interval = sys.getswitchinterval()
sys.setswitchinterval(1e-5)
try:
    threaded = run(4)
finally:
    sys.setswitchinterval(interval)
if "scipy.spatial" not in sys.modules:
    sys.exit("no adder layer ran a forward pass")
if run(1) != threaded:
    sys.exit("threads=4 and threads=1 results differ")
"""


def run_fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if not k.startswith("CHUNKNAS_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(TESTS)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_accelerator_verbs_never_load_scipy(tmp_path):
    proc = run_fresh(ACCEL_ONLY, str(tmp_path / "out"), flat_genome_str(4))
    assert proc.returncode == 0, proc.stderr


def test_first_adder_forward_in_pool_threads():
    proc = run_fresh(THREADED_FIRST_IMPORT)
    assert proc.returncode == 0, proc.stderr
