"""Property tests of the accelerator-search core on random small workloads:
every search variant returns a design that fits its budget with a minimal
buffer, or fails with ``InfeasibleBudget``; the full search is feasible
whenever an ablation is, and at least as fast; the exhaustive oracle,
restricted to the PE counts the full search chose, picks the same design;
and the per-chunk dataflow table equals a brute-force sweep over the scalar
cost model at every PE count."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from chunknas.accel import (
    AcceleratorConfig,
    ChunkConfig,
    Dataflow,
    EmptyFeasibleSet,
    HardwareBudget,
    InfeasibleBudget,
    LoopOrder,
    chunk_cycle_totals,
    evaluate_dataflows,
    layer_latency,
    min_gb_size,
)
from chunknas.cosearch import oracle_layers, search_accelerator_layers
from chunknas.search_space import LayerDescriptor, LayerType
from oracles import ref_best_dataflow
from test_cosearch import COEFFS

CHANNELS = (1, 2, 3, 4, 8, 16, 32)


@st.composite
def layer(draw) -> LayerDescriptor:
    kind = draw(st.sampled_from(list(LayerType)))
    cin = draw(st.sampled_from(CHANNELS))
    depthwise = draw(st.booleans())
    cout = cin if depthwise else draw(st.sampled_from(CHANNELS))
    size = draw(st.integers(1, 16))
    return LayerDescriptor(kind, cin, cout, draw(st.sampled_from((1, 3, 5, 7))),
                           draw(st.sampled_from((1, 2))), cin if depthwise else 1,
                           size, size)


workloads = st.lists(layer(), min_size=1, max_size=6)
budgets = st.builds(
    lambda dsp, lut, brams, bw: HardwareBudget(
        dsp_total=dsp, lut_total=lut, bram_bits_total=brams * 36864,
        dram_bandwidth=bw, dsp_reserve_frac=0.5, lut_overhead=500),
    st.integers(1, 64), st.integers(400, 12000), st.integers(1, 16),
    st.sampled_from((1.0, 4.0, 16.0)),
)


@pytest.mark.filterwarnings("ignore::chunknas.cosearch.NoConvLayers")
@given(workloads, budgets)
# A shift-only workload on a budget whose DSP share admits no conv PE: the
# ablations run it on one idle conv PE, so the full search must too.
@example([LayerDescriptor(LayerType.SHIFT, 32, 32, 5, 1, 32, 4, 4)],
         HardwareBudget(dsp_total=1, lut_total=1865, bram_bits_total=4 * 36864,
                        dram_bandwidth=16.0, dsp_reserve_frac=0.5, lut_overhead=500))
def test_every_variant_fits_or_is_infeasible(layers, budget):
    thr = {}
    for coarse_phase in (True, False):
        for fine_phase in (True, False):
            try:
                res = search_accelerator_layers(layers, budget, COEFFS,
                                                coarse_phase, fine_phase)
            except InfeasibleBudget:
                continue
            res.config.assert_fits(budget)
            assert res.config.gb_bytes == max(1, min_gb_size(res.config, layers, budget))
            thr[coarse_phase, fine_phase] = res.report.throughput_gops
    # Fine-only >= coarse-only is not a property: the oracle suite's
    # ``ordering_expected`` flag gates that per workload.
    if thr:
        assert (True, True) in thr
        assert all(thr[True, True] >= t - 1e-9 for t in thr.values())


@pytest.mark.filterwarnings("ignore::chunknas.cosearch.NoConvLayers")
@given(workloads, budgets)
def test_oracle_at_chosen_pe_counts_agrees(layers, budget):
    try:
        full = search_accelerator_layers(layers, budget, COEFFS)
    except InfeasibleBudget:
        return
    c, s, a = (chunk.pe_count for chunk in full.config.chunks())
    oracle = oracle_layers(layers, budget, COEFFS,
                           {"conv": [c], "shift": [s], "adder": [a]})
    assert oracle.config == full.config


@st.composite
def small_layer(draw, kind) -> LayerDescriptor:
    cin = draw(st.sampled_from((1, 2, 3, 4, 8)))
    depthwise = draw(st.booleans())
    cout = cin if depthwise else draw(st.sampled_from((1, 2, 3, 4, 8)))
    size = draw(st.integers(1, 6))
    return LayerDescriptor(kind, cin, cout, draw(st.sampled_from((1, 3))),
                           draw(st.sampled_from((1, 2))), cin if depthwise else 1,
                           size, size)


@st.composite
def chunk_workload(draw) -> tuple[LayerType, list[LayerDescriptor]]:
    """One chunk's layer set with deliberate duplicates."""
    kind = draw(st.sampled_from(list(LayerType)))
    distinct = draw(st.lists(small_layer(kind), min_size=1, max_size=3))
    return kind, draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=5))


@settings(max_examples=40)
@given(chunk_workload(), st.lists(st.integers(1, 64), min_size=1, max_size=3, unique=True),
       st.integers(16, 1 << 13), st.sampled_from((1.0, 4.0, 16.0)))
def test_table_equals_brute_force_sweep(workload, pes, gb, bandwidth):
    kind, layers = workload
    budget = HardwareBudget(dram_bandwidth=bandwidth)
    try:
        expected = {pe: ref_best_dataflow(kind, layers, pe, gb, budget) for pe in pes}
    except EmptyFeasibleSet:
        with pytest.raises(EmptyFeasibleSet):
            evaluate_dataflows(kind, layers, pes, gb, budget)
        return
    table = evaluate_dataflows(kind, layers, pes, gb, budget)
    assert table.evals == expected
    assert table.nodes == sum(ev.nodes for ev in expected.values())


dataflows = st.builds(Dataflow, st.sampled_from(list(LoopOrder)),
                      st.tuples(st.just(1), *[st.integers(1, 9)] * 4))


@given(st.lists(layer(), min_size=1, max_size=3).flatmap(
           lambda distinct: st.lists(st.sampled_from(distinct), min_size=1, max_size=8)),
       st.tuples(*[st.integers(1, 64)] * 3), st.tuples(*[dataflows] * 3))
def test_folded_cycle_totals_equal_scalar_sum(layers, pes, flows):
    budget = HardwareBudget()
    chunks = [ChunkConfig(kind, pe, df) for kind, pe, df in zip(LayerType, pes, flows)]
    cfg = AcceleratorConfig(*chunks, gb_bytes=budget.gb_bytes_max)
    totals = chunk_cycle_totals(layers, cfg, budget)
    for chunk in chunks:
        assert totals[chunk.chunk_kind] == sum(
            layer_latency(l, chunk, cfg.gb_bytes, budget)
            for l in layers if l.op_type is chunk.chunk_kind)
