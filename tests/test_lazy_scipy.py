"""scipy's cityblock kernel is loaded at the first adder-layer forward
only, and nothing else of scipy: runs of the accelerator cost model alone
load no scipy code, a co-search never imports ``scipy.spatial``, and the
first load may come from several co-search pool threads at once. The
subprocess checks run in a fresh interpreter, because this test process has
long since imported scipy."""

import ast
import functools
import importlib.machinery
import importlib.util
import os
import subprocess
import sys
import threading
import time
import types
from concurrent.futures import ThreadPoolExecutor
from importlib.machinery import ModuleSpec
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import chunknas
from chunknas import nn
from chunknas.nn import HybridLayer
from chunknas.search_space import LayerDescriptor, LayerType
from test_cli import flat_genome_str

TESTS = Path(__file__).resolve().parent
SRC = Path(chunknas.__file__).resolve().parent.parent

ACCEL_ONLY = """
import sys

import chunknas, chunknas.cli, chunknas.nn
from chunknas.cli import main

def check(what):
    scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    if scipy:
        sys.exit(f"{scipy} loaded after {what}")
    if chunknas.nn._cityblock is not None:
        sys.exit(f"cityblock kernel loaded after {what}")

check("import")
out, genome, scores = sys.argv[1:]
for argv in (["oracle-compare"], ["reproduce-tables"], ["kendall", scores],
             ["--output", out, "search-accel", "--genome", genome]):
    if main(argv) != 0:
        sys.exit(f"{argv} failed")
    check(" ".join(argv))
"""

THREADED_FIRST_IMPORT = """
import json
import sys
from dataclasses import replace

from chunknas import nn
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
    return json.dumps([[c.to_dict(rank) for rank, c in res.population], res.log, res.evaluations],
                      sort_keys=True)

if nn._cityblock is not None:
    sys.exit("cityblock kernel loaded before the co-search")
interval = sys.getswitchinterval()
sys.setswitchinterval(1e-5)
try:
    threaded = run(4)
finally:
    sys.setswitchinterval(interval)
if nn._cityblock is None:
    sys.exit("no adder layer ran a forward pass")
if run(1) != threaded:
    sys.exit("threads=4 and threads=1 results differ")
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
if scipy:
    sys.exit(f"the co-search imported {scipy}")
"""


def run_fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if not k.startswith("CHUNKNAS_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(TESTS)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_accelerator_verbs_never_load_scipy(tmp_path):
    scores = tmp_path / "scores.csv"
    scores.write_text("zen,acc\n1,2\n3,5\n2,4\n")
    proc = run_fresh(ACCEL_ONLY, str(tmp_path / "out"), flat_genome_str(4), str(scores))
    assert proc.returncode == 0, proc.stderr


def test_first_adder_forward_in_pool_threads():
    proc = run_fresh(THREADED_FIRST_IMPORT)
    assert proc.returncode == 0, proc.stderr


# Row counts below, at and across one adder row block.
BLOCK_ROWS = (1, nn.ADDER_ROW_BLOCK - 1, nn.ADDER_ROW_BLOCK, nn.ADDER_ROW_BLOCK + 1,
              2 * nn.ADDER_ROW_BLOCK + 3)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n_rows", BLOCK_ROWS)
def test_kernel_bit_equal_to_public_cdist(n_rows, dtype):
    kernel = nn._load_cityblock()
    assert not isinstance(kernel, functools.partial), "the fallback was loaded"
    rng = np.random.default_rng(n_rows)
    rows = rng.standard_normal((n_rows, 27)).astype(dtype)
    w = rng.standard_normal((11, 27)).astype(np.float32).astype(np.float64)
    got, ref = kernel(rows, w), cdist(rows, w, metric="cityblock")
    assert got.dtype == ref.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def _no_extension_dir(monkeypatch, tmp_path):
    """scipy found in an empty directory: no extension file to load."""
    find_spec = importlib.util.find_spec
    empty = ModuleSpec("scipy", None, is_package=True)
    empty.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name, *args: empty if name == "scipy" else find_spec(name, *args))


@pytest.mark.parametrize("missing", ["file", "attribute"])
@pytest.mark.parametrize("kernel", [1, 3])
def test_fallback_to_public_cdist_bit_identical(monkeypatch, tmp_path, missing, kernel):
    rng = np.random.default_rng(kernel)
    desc = LayerDescriptor(LayerType.ADDER, 6, 7, kernel, 1, 1, 21, 21)
    layer = HybridLayer(desc, rng.standard_normal((7, 6, kernel, kernel), dtype=np.float32))
    x = rng.standard_normal((3, 21, 21, 6)).astype(np.float32)
    assert 3 * 21 * 21 > nn.ADDER_ROW_BLOCK
    fast = layer.forward(x)
    assert not isinstance(nn._cityblock, functools.partial)

    monkeypatch.setattr(nn, "_cityblock", None)
    if missing == "file":
        _no_extension_dir(monkeypatch, tmp_path)
        assert nn._distance_extension() is None
    else:
        monkeypatch.setattr(nn, "_distance_extension", lambda: types.ModuleType("stub"))
    slow = layer.forward(x)
    assert isinstance(nn._cityblock, functools.partial)
    assert nn._cityblock.func is cdist
    assert slow.dtype == fast.dtype and np.array_equal(slow, fast)


def test_concurrent_first_loads_execute_extension_once(monkeypatch):
    executed = []
    exec_module = importlib.machinery.ExtensionFileLoader.exec_module

    def counting(loader, module):
        if module.__name__ == "scipy.spatial._distance_pybind":
            executed.append(module)
            time.sleep(0.05)  # widen the window a second loader would race into
        return exec_module(loader, module)

    monkeypatch.setattr(importlib.machinery.ExtensionFileLoader, "exec_module", counting)
    monkeypatch.setattr(nn, "_cityblock", None)
    barrier = threading.Barrier(8, timeout=60)

    def first_load():
        barrier.wait()
        return nn._cityblock or nn._load_cityblock()

    with ThreadPoolExecutor(8) as pool:
        kernels = list(pool.map(lambda _: first_load(), range(8)))
    assert len(executed) == 1
    assert all(k is kernels[0] for k in kernels)
    assert not isinstance(kernels[0], functools.partial)


# The fallback for a scipy without the private extension is the one place
# allowed to import the public cdist.
SCIPY_SPATIAL_ALLOWED = {("nn.py", "_public_cityblock")}


def _scipy_spatial_imports(tree: ast.AST):
    """(enclosing function or None, imported name) of every import of
    scipy.spatial or a submodule of it."""
    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        names = []
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        for name in names:
            if name == "scipy.spatial" or name.startswith("scipy.spatial."):
                yield func, name
        for child in ast.iter_child_nodes(node):
            yield from visit(child, func)

    yield from visit(tree, None)


def test_no_module_imports_scipy_spatial():
    sources = sorted((SRC / "chunknas").glob("*.py"))
    assert (SRC / "chunknas" / "nn.py") in sources
    found = {(path.name, func, name)
             for path in sources
             for func, name in _scipy_spatial_imports(ast.parse(path.read_text(), str(path)))}
    assert {(f, fn) for f, fn, _ in found} <= SCIPY_SPATIAL_ALLOWED, found


@pytest.mark.parametrize("source", [
    "import scipy.spatial",
    "import scipy.spatial.distance as d",
    "from scipy.spatial.distance import cdist",
    "from scipy.spatial import distance",
    "from scipy import spatial",
    "def f():\n    from scipy.spatial.distance import cdist",
])
def test_import_guard_sees(source):
    assert list(_scipy_spatial_imports(ast.parse(source)))
