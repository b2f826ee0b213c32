"""The oracle comparison of ``reproduce.compare_workloads``: one dataflow
sweep per chunk serves the full, fine-only and coarse-only searches and the
oracle, with the rows, node counts and errors of four independent searches,
and the bundled suite's rows pinned byte for byte."""

import hashlib
import json
import re

import pytest

from chunknas import cosearch as cs
from chunknas.accel import HardwareBudget, InfeasibleBudget
from chunknas.config import load_run_config
from chunknas.cosearch import GridTooLarge
from chunknas.refdata import bundled_workloads
from chunknas.reproduce import compare_workloads
from chunknas.search_space import LayerDescriptor, LayerType, dump_fields
from oracles import ref_compare_workloads
from test_cosearch import COEFFS

# SHA-256 of the bundled suite's rows under the default coefficients, as
# json.dumps(rows, sort_keys=True); taken from the four independent searches.
BUNDLED_ROWS_SHA256 = "ac2b1340b222eff11b09066ee14f712eded8ace2d52dba5190b411c58b0b81b5"


def _spy(monkeypatch, module, attr: str) -> list[tuple]:
    """Record the positional arguments of every call of ``module.attr``."""
    calls = []
    original = getattr(module, attr)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attr, spy)
    return calls


def _suite(layers, budget: dict, grid=None) -> dict:
    """A one-workload suite file, on the bundled grid unless ``grid``."""
    return {"budget": budget, "grid": grid or bundled_workloads()["grid"],
            "workloads": [{"name": "w", "layers": [dump_fields(l) for l in layers]}]}


def test_bundled_rows_pinned():
    rows = [c.to_dict() for c in
            compare_workloads(bundled_workloads(), load_run_config().coeffs)]
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert digest == BUNDLED_ROWS_SHA256


def test_one_sweep_per_chunk_and_rows_of_independent_searches(monkeypatch):
    suite = bundled_workloads()
    expected = [c.to_dict() for c in ref_compare_workloads(suite, COEFFS)]
    sweeps = _spy(monkeypatch, cs, "evaluate_dataflows")
    for wl, row in zip(suite["workloads"], expected):
        sweeps.clear()
        [comparison] = compare_workloads({**suite, "workloads": [wl]}, COEFFS)
        assert comparison.to_dict() == row
        kinds = [kind for kind, layers, *_ in sweeps if layers]
        assert len(kinds) == len(set(kinds)), wl["name"]
        assert len(sweeps) <= 3


def test_each_chunk_swept_at_the_union_of_its_designs(monkeypatch):
    suite = bundled_workloads()
    one = {**suite, "workloads": suite["workloads"][:1]}
    sweeps = _spy(monkeypatch, cs, "evaluate_dataflows")
    ref_compare_workloads(one, COEFFS)
    union = {}
    for kind, layers, pes, *_ in sweeps:
        union.setdefault(kind, set()).update(pes)
    sweeps.clear()
    compare_workloads(one, COEFFS)
    assert {kind: set(pes) for kind, _, pes, *_ in sweeps} == union


HYBRID = [LayerDescriptor(LayerType.CONV, 8, 16, 3, 2, 1, 16, 16),
          LayerDescriptor(LayerType.SHIFT, 16, 16, 3, 1, 1, 8, 8),
          LayerDescriptor(LayerType.ADDER, 16, 8, 3, 1, 1, 8, 8)]
SHIFT_ONLY = [LayerDescriptor(LayerType.SHIFT, 16, 16, 3, 1, 1, 8, 8)]
BUNDLED_BUDGET = bundled_workloads()["budget"]
TINY_LUT = {"dsp_total": 64, "lut_total": 560, "bram_bits_total": 16 * 36864,
            "dsp_reserve_frac": 0.5, "lut_overhead": 500}
FOUR_BRAMS = {**BUNDLED_BUDGET, "bram_bits_total": 4 * 36864}
HAND_OVER_BUFFER = [LayerDescriptor(LayerType.ADDER, 32, 32, 5, 1, 1, 16, 16)]


@pytest.mark.filterwarnings("ignore::chunknas.cosearch.NoConvLayers")
@pytest.mark.parametrize("layers,budget,grid,node_cap,error,match", [
    (HYBRID, {**BUNDLED_BUDGET, "bram_bits_total": 64}, None, cs.DEFAULT_NODE_CAP,
     InfeasibleBudget, "no tiling fits a 8 B buffer for chunk C"),
    # The full search's buffer error comes before the oracle's node cap.
    (HYBRID, {**BUNDLED_BUDGET, "bram_bits_total": 64}, None, 10,
     InfeasibleBudget, "no tiling fits a 8 B buffer for chunk C"),
    (SHIFT_ONLY, TINY_LUT, None, cs.DEFAULT_NODE_CAP,
     InfeasibleBudget, "cannot host minimal chunks"),
    (SHIFT_ONLY, {**TINY_LUT, "bram_bits_total": 64}, None, cs.DEFAULT_NODE_CAP,
     InfeasibleBudget, "cannot host minimal chunks"),
    (HYBRID, {**BUNDLED_BUDGET, "dsp_reserve_frac": 0.0}, None, cs.DEFAULT_NODE_CAP,
     InfeasibleBudget, "budget admits no conv PE"),
    # The hand tile (1, 16, 16, 8, 8) of the 5x5 adder layer needs 19712 B
    # (9-bit outputs), more than the 18432 B of four block RAMs.
    (HAND_OVER_BUFFER, FOUR_BRAMS, None, cs.DEFAULT_NODE_CAP,
     InfeasibleBudget, "^" + re.escape("hand dataflow tile (1, 16, 16, 8, 8) of chunk A does "
                                       "not fit: tile working set 19712 B exceeds buffer "
                                       "18432 B") + "$"),
    (HYBRID, BUNDLED_BUDGET, {"conv": [8], "shift": [0], "adder": [1]}, cs.DEFAULT_NODE_CAP,
     ValueError, "grid.shift"),
    (HYBRID, BUNDLED_BUDGET, {"conv": [8], "shift": [1]}, cs.DEFAULT_NODE_CAP,
     KeyError, "adder"),
    (HYBRID, BUNDLED_BUDGET, None, 10, GridTooLarge, "exceeds node cap"),
], ids=["buffer", "buffer-before-cap", "lut", "lut-before-buffer", "no-conv-pe",
        "hand-tile", "bad-grid", "grid-without-adder", "node-cap"])
def test_errors_of_independent_searches(layers, budget, grid, node_cap, error, match):
    suite = _suite(layers, budget, grid)
    with pytest.raises(error, match=match) as expected:
        ref_compare_workloads(suite, COEFFS, node_cap)
    with pytest.raises(error) as got:
        compare_workloads(suite, COEFFS, node_cap)
    assert (type(got.value), str(got.value)) == (type(expected.value), str(expected.value))


def test_grid_over_node_cap_is_raised_after_the_searches_and_never_swept(monkeypatch):
    suite = _suite(HYBRID, BUNDLED_BUDGET)
    budget = HardwareBudget.from_dict(BUNDLED_BUDGET)
    sweeps = _spy(monkeypatch, cs, "evaluate_dataflows")
    cs.search_accelerator_layers(HYBRID, budget, COEFFS)
    own = [(kind, tuple(pes)) for kind, _, pes, *_ in sweeps]
    sweeps.clear()
    searches = _spy(monkeypatch, cs, "search_accelerator_layers")
    with pytest.raises(GridTooLarge):
        compare_workloads(suite, COEFFS, node_cap=10)
    assert len(searches) == 3
    assert [(kind, tuple(pes)) for kind, _, pes, *_ in sweeps] == own
