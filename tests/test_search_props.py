"""Property tests of the accelerator-search core on random small workloads:
every search variant returns a design that fits its budget with a minimal
buffer, or fails with ``InfeasibleBudget``; the full search is feasible
whenever an ablation is, and at least as fast; the exhaustive oracle,
restricted to the PE counts the full search chose, picks the same design;
on the bundled budget and grid the full search reaches 0.95 of the oracle's
throughput on conv-free workloads, and a seeded corpus of mixed workloads
states its tail; the per-chunk dataflow table equals a brute-force sweep
over the term-by-term reference cost (``oracles.ref_layer_cycles``) at
every PE count, also on chunks that mix one wide layer with narrow ones,
as does every element of the grid the sweep picks from
(``oracles.ref_chunk_grid``), and so does the hand-dataflow table; every
design's buffer and report, built from its table rows, equal those
``min_gb_size`` and ``pipeline_perf`` compute from its config and the
reference sums; a config's per-chunk cycles and each layer's
``layer_latency`` equal the reference; and a table swept at a union of PE
counts, restricted to a subset, equals the sweep at the subset."""

import math
import random

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from chunknas import accel
from chunknas.accel import (
    AcceleratorConfig,
    ChunkConfig,
    ChunkEval,
    Dataflow,
    HardwareBudget,
    InfeasibleBudget,
    LoopOrder,
    evaluate_dataflows,
    hand_dataflow_table,
    layer_latency,
    manual_dataflow,
    min_gb_size,
    pipeline_perf,
)
from chunknas.cosearch import oracle_layers, search_accelerator_layers
from chunknas.refdata import bundled_workloads
from chunknas.search_space import LayerDescriptor, LayerType
from oracles import (ref_best_dataflow, ref_chunk_grid, ref_dataflows, ref_layer_cycles,
                     ref_tilings, ref_working_set)
from test_cosearch import COEFFS

CHANNELS = (1, 2, 3, 4, 8, 16, 32)


@st.composite
def layer(draw, kinds=tuple(LayerType)) -> LayerDescriptor:
    kind = draw(st.sampled_from(kinds))
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
            _assert_scalar_design(res, layers, budget)
            thr[coarse_phase, fine_phase] = res.report.throughput_gops
    # Fine-only >= coarse-only is not a property: the oracle suite's
    # ``ordering_expected`` flag gates that per workload.
    if thr:
        assert (True, True) in thr
        assert all(thr[True, True] >= t - 1e-9 for t in thr.values())
    try:
        oracle = oracle_layers(layers, budget, COEFFS, bundled_workloads()["grid"])
    except InfeasibleBudget:
        return
    _assert_scalar_design(oracle, layers, budget)


def _assert_scalar_design(res, layers, budget):
    """The design fits its budget, and its buffer and report, built from
    its table rows, are those ``min_gb_size`` and ``pipeline_perf`` compute
    from the config, and the term-by-term references."""
    cfg = res.config
    cfg.assert_fits(budget)
    ws = max(ref_working_set(l, cfg.chunk_for(l.op_type).dataflow.tiling, budget) for l in layers)
    assert cfg.gb_bytes == max(1, min_gb_size(cfg, layers, budget)) == max(1, math.ceil(ws))
    assert res.report == pipeline_perf(layers, cfg, budget, COEFFS)
    assert _chunk_cycles(res.report, budget) == _ref_chunk_cycles(layers, cfg, budget)


def _chunk_cycles(report, budget) -> list[int]:
    """A report's per-chunk busy cycles, in (conv, shift, adder) order."""
    return [round(t * budget.frequency_hz) for t in report.per_chunk_time_s]


def _ref_chunk_cycles(layers, cfg, budget) -> list[int]:
    """Each chunk's summed ``ref_layer_cycles``, in (conv, shift, adder) order."""
    return [sum(ref_layer_cycles(l, chunk, cfg.gb_bytes, budget)
                for l in layers if l.op_type is kind)
            for kind, chunk in zip(LayerType, cfg.chunks())]


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


def _bundled_ratio(layers) -> float:
    """Full-search over oracle throughput at the bundled suite's budget and
    grid."""
    suite = bundled_workloads()
    budget = HardwareBudget.from_dict(suite["budget"])
    full = search_accelerator_layers(layers, budget, COEFFS)
    oracle = oracle_layers(layers, budget, COEFFS, suite["grid"])
    return full.report.throughput_gops / oracle.report.throughput_gops


@pytest.mark.filterwarnings("ignore::chunknas.cosearch.NoConvLayers")
@given(st.lists(layer(kinds=(LayerType.SHIFT, LayerType.ADDER)), min_size=1, max_size=6))
def test_conv_free_full_search_near_oracle(layers):
    # A conv-free workload's shift and adder chunks share the free LUTs; sized
    # from the idle conv PE instead they got 1-2 PEs, a median 0.09 of the
    # oracle's throughput.
    assert _bundled_ratio(layers) >= 0.95


def _random_layer(rng: random.Random) -> LayerDescriptor:
    """A draw from the distribution of ``layer()``, all three kinds."""
    kind = rng.choice(list(LayerType))
    cin = rng.choice(CHANNELS)
    depthwise = rng.random() < 0.5
    cout = cin if depthwise else rng.choice(CHANNELS)
    size = rng.randint(1, 16)
    return LayerDescriptor(kind, cin, cout, rng.choice((1, 3, 5, 7)), rng.choice((1, 2)),
                           cin if depthwise else 1, size, size)


@pytest.mark.filterwarnings("ignore::chunknas.cosearch.NoConvLayers")
def test_mixed_corpus_tail():
    # Mixed workloads are no 0.95 property: the coarse phase fixes conv at
    # the DSP maximum. Measured over these 4000 workloads: minimum 0.8865
    # (workload 3265), 1 below 0.95, 3 below 0.99; over 10000 of the same
    # draws, 3 fall below 0.95. A lower minimum or a longer tail fails.
    rng = random.Random(0)
    ratios = [_bundled_ratio([_random_layer(rng) for _ in range(rng.randint(1, 6))])
              for _ in range(4000)]
    assert min(ratios) >= 0.886
    assert sum(r < 0.95 for r in ratios) <= 1
    assert sum(r < 0.99 for r in ratios) <= 3


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


def assert_grid_equals_reference(kind, layers, pes, budget):
    # Every element of the grid the picks read, not only the picks: a
    # dropped or doubled layer can leave every argmin where it was.
    total, ws = accel._chunk_grid(kind, layers, pes, budget)
    want_total, want_ws = ref_chunk_grid(kind, layers, pes, budget)
    assert total.dtype == ws.dtype == np.float64
    assert np.array_equal(total, want_total)
    assert np.array_equal(ws, want_ws)


@settings(max_examples=40)
@given(chunk_workload(), st.lists(st.integers(1, 64), min_size=1, max_size=3, unique=True),
       st.integers(16, 1 << 13), st.sampled_from((1.0, 4.0, 16.0)))
def test_table_equals_brute_force_sweep(workload, pes, gb, bandwidth):
    kind, layers = workload
    budget = HardwareBudget(dram_bandwidth=bandwidth)
    assert_grid_equals_reference(kind, layers, pes, budget)
    try:
        expected = {pe: ref_best_dataflow(kind, layers, pe, gb, budget) for pe in pes}
    except InfeasibleBudget:
        with pytest.raises(InfeasibleBudget, match="no tiling fits"):
            evaluate_dataflows(kind, layers, pes, gb, budget)
        return
    table = evaluate_dataflows(kind, layers, pes, gb, budget)
    assert table.evals == expected
    assert table.nodes == len(pes) * 4 * len(ref_tilings(layers))
    assert table.feasible_dataflows == len(pes) * len(ref_dataflows(layers, gb, budget))
    assert table.feasible_dataflows <= table.nodes


def _wide(kind, channels, groups=1):
    return LayerDescriptor(kind, channels, channels, 3, 1, groups, 16, 16)


# One wide layer beside narrow ones: a narrow layer's own ladder grid is a
# sliver of the chunk grid and is widened to it on both halves, as is a
# wide depthwise layer's channel half (one reduction channel against the
# narrow dense layers' few); a wide dense layer, like a one-layer set,
# reads its own grid as it is. Layers of one spatial extent but several
# channel extents form one spatial group widened on the channel half only;
# one channel extent at several output row counts, each at stride 1 and 2,
# forms a group of two layers per count, widened on the spatial half only,
# along the rows but not the columns. The strategies above draw square
# maps of at most 16 rows and at most 32 channels, so they never reach
# ladders of this length and never widen one spatial axis alone.
MIXED_EXTENTS = {
    "wide dense, narrow dense and depthwise": (LayerType.SHIFT, [
        _wide(LayerType.SHIFT, 256),
        LayerDescriptor(LayerType.SHIFT, 4, 2, 1, 1, 1, 1, 1),
        LayerDescriptor(LayerType.SHIFT, 3, 3, 3, 2, 3, 2, 2),
    ], (1, 16)),
    "wide depthwise, narrow dense": (LayerType.ADDER, [
        _wide(LayerType.ADDER, 1792, groups=1792),
        LayerDescriptor(LayerType.ADDER, 4, 4, 1, 1, 1, 1, 1),
        LayerDescriptor(LayerType.ADDER, 1, 3, 3, 2, 1, 3, 3),
    ], (2, 7, 64)),
    # Stride-2 inputs of 15 and 16 rows share one geometry and fold.
    "shared geometries, repeated layers": (LayerType.CONV, [
        _wide(LayerType.CONV, 512, groups=512),
        LayerDescriptor(LayerType.CONV, 2, 1, 3, 2, 1, 15, 15),
        LayerDescriptor(LayerType.CONV, 2, 1, 3, 2, 1, 16, 16),
        LayerDescriptor(LayerType.CONV, 2, 1, 3, 2, 1, 16, 16),
    ], (3, 32)),
    "one layer": (LayerType.CONV, [_wide(LayerType.CONV, 384)], (5,)),
    "one spatial extent, several channel extents": (LayerType.CONV, [
        *(_wide(LayerType.CONV, c) for c in (8, 24, 96, 216)),
        _wide(LayerType.CONV, 64, groups=64),
    ], (4, 48)),
    "one channel extent, several spatial extents": (LayerType.SHIFT, [
        LayerDescriptor(LayerType.SHIFT, 32, 32, 3, stride, 1, rows * stride, 16 * stride)
        for rows in (16, 8, 4, 2) for stride in (1, 2)
    ], (1, 9)),
}


@pytest.mark.parametrize("case", MIXED_EXTENTS)
def test_mixed_extents_table_equals_brute_force_sweep(case):
    kind, layers, pes = MIXED_EXTENTS[case]
    budget, gb = HardwareBudget(dram_bandwidth=16.0), 1 << 15
    assert_grid_equals_reference(kind, layers, pes, budget)
    table = evaluate_dataflows(kind, layers, pes, gb, budget)
    assert table.evals == {pe: ref_best_dataflow(kind, layers, pe, gb, budget) for pe in pes}
    assert table.nodes == len(pes) * 4 * len(ref_tilings(layers))
    assert table.feasible_dataflows == len(pes) * len(ref_dataflows(layers, gb, budget))
    assert 0 < table.feasible_dataflows < table.nodes



@st.composite
def hand_workload(draw) -> tuple[LayerType, list[LayerDescriptor]]:
    """One chunk's layer set with deliberate duplicates, wide enough that
    the hand tile clamps on some layers and not on others."""
    kind = draw(st.sampled_from(list(LayerType)))
    distinct = draw(st.lists(layer(kinds=(kind,)), min_size=1, max_size=3))
    return kind, draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=6))


@given(hand_workload(), st.lists(st.integers(1, 128), min_size=1, max_size=4, unique=True),
       st.sampled_from((1.0, 4.0, 16.0)))
@example((LayerType.ADDER, []), [1, 8], 4.0)
def test_hand_table_equals_scalar_sum(workload, pes, bandwidth):
    # With the search off, a chunk's rows are the hand dataflow's summed
    # reference cycles and its largest tile working set, at every PE count.
    kind, layers = workload
    budget = HardwareBudget(dram_bandwidth=bandwidth)
    gb, df = budget.gb_bytes_max, manual_dataflow(layers)
    table = hand_dataflow_table(kind, layers, pes, gb, budget)
    ws = max((ref_working_set(l, df.tiling, budget) for l in layers), default=0.0)
    assert table.evals == {
        pe: ChunkEval(df, sum(ref_layer_cycles(l, ChunkConfig(kind, pe, df), gb, budget)
                              for l in layers), ws)
        for pe in pes}
    assert table.nodes == table.feasible_dataflows == len(pes)


pe_subsets = st.lists(st.integers(1, 64), min_size=1, max_size=8, unique=True).flatmap(
    lambda union: st.tuples(st.just(union),
                            st.lists(st.sampled_from(union), min_size=1, unique=True)))


@settings(max_examples=40)
@given(chunk_workload(), pe_subsets, st.integers(16, 1 << 13),
       st.sampled_from((1.0, 4.0, 16.0)))
@example((LayerType.SHIFT, []), ([1, 8, 64], [8]), 16, 4.0)
def test_restricted_table_equals_own_sweep(workload, pe_sets, gb, bandwidth):
    # A row never depends on the other PE counts swept with it, so one sweep
    # at the union U serves every design that reads a subset S of U.
    kind, layers = workload
    union, subset = pe_sets
    budget = HardwareBudget(dram_bandwidth=bandwidth)
    try:
        own = evaluate_dataflows(kind, layers, subset, gb, budget)
    except InfeasibleBudget:
        with pytest.raises(InfeasibleBudget, match="no tiling fits"):
            evaluate_dataflows(kind, layers, union, gb, budget)
        return
    table = evaluate_dataflows(kind, layers, union, gb, budget).restrict(subset)
    assert table.evals == own.evals
    assert (table.nodes, table.feasible_dataflows) == (own.nodes, own.feasible_dataflows)


dataflows = st.builds(Dataflow, st.sampled_from(list(LoopOrder)),
                      st.tuples(st.just(1), *[st.integers(1, 9)] * 4))


# Stride-2 inputs of 15 and 16 rows are two descriptors of one geometry.
_TWINS = [LayerDescriptor(kind, 4, 8, 3, 2, 1, n, n)
          for kind in (LayerType.ADDER, LayerType.CONV) for n in (15, 16)]


@given(st.lists(layer(), min_size=1, max_size=3).flatmap(
           lambda distinct: st.lists(st.sampled_from(distinct), min_size=1, max_size=8)),
       st.tuples(*[st.integers(1, 64)] * 3), st.tuples(*[dataflows] * 3))
@example([_TWINS[0], _TWINS[1], _TWINS[0], _TWINS[3], _TWINS[2]], (3, 5, 7),
         (Dataflow(LoopOrder.RS, (1, 3, 5, 7, 9)), Dataflow(LoopOrder.WS, (1, 1, 1, 1, 1)),
          Dataflow(LoopOrder.IS, (1, 9, 3, 5, 7))))
def test_folded_cycle_totals_equal_scalar_sum(layers, pes, flows):
    # Each chunk's busy cycles in the pipeline report, folded by geometry,
    # and each layer's own latency equal the term-by-term reference.
    budget = HardwareBudget()
    chunks = [ChunkConfig(kind, pe, df) for kind, pe, df in zip(LayerType, pes, flows)]
    cfg = AcceleratorConfig(*chunks, gb_bytes=budget.gb_bytes_max)
    report = pipeline_perf(layers, cfg, budget, COEFFS)
    assert _chunk_cycles(report, budget) == _ref_chunk_cycles(layers, cfg, budget)
    for l in layers:
        chunk = cfg.chunk_for(l.op_type)
        assert layer_latency(l, chunk, cfg.gb_bytes, budget) \
            == ref_layer_cycles(l, chunk, cfg.gb_bytes, budget)
