"""The factored cost kernel against the direct formula, and its caches.

``accel._layer_terms`` prices a layer as a channel factor over the
(t_cin, t_cout) tile pairs times a spatial factor over the (t_h, t_w)
pairs. Every term is a multiple of 1/8 below 2**50, so float64 adds the
products exactly in any order and the kernel equals the direct formula
(``oracles.ref_layer_terms``) bit for bit, on a layer's own ladders (the
sweep) and at one clamped tiling (``_dataflow_table``: the hand table,
``layer_latency``, ``pipeline_perf`` and ``min_gb_size``). On 64 stock genomes the largest intermediate is about
2**22, a margin of about 2**28 below that bound. The sweep reads the
own-ladder factors through two caches: each key computes once, the cached
arrays are read-only, and sweeps from a cold cache on a thread pool equal a
serial sweep. What a sweep allocates beyond the caches is bounded by a
stated multiple of the cached bytes it reads."""

import random
import sys
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from chunknas import accel
from chunknas.accel import HardwareBudget, LoopOrder, evaluate_dataflows
from chunknas.cosearch import effective_budget, search_accelerator, split_by_type
from chunknas.config import RunConfig
from chunknas.search_space import (LayerDescriptor, LayerType, expand, largest_genome,
                                   sample_random)
from oracles import _ladder, ref_layer_terms

BITS = st.integers(1, 32)


@st.composite
def layers(draw) -> LayerDescriptor:
    cin = draw(st.integers(1, 300))
    depthwise = draw(st.booleans())
    cout = cin if depthwise else draw(st.integers(1, 300))
    return LayerDescriptor(draw(st.sampled_from(tuple(LayerType))), cin, cout,
                           draw(st.integers(1, 7)), draw(st.integers(1, 2)),
                           cin if depthwise else 1, draw(st.integers(1, 64)),
                           draw(st.integers(1, 64)))


budgets = st.builds(
    HardwareBudget, act_bits=BITS, conv_w_bits=BITS, shift_w_bits=BITS, adder_w_bits=BITS,
    conv_out_bits=BITS, shift_out_bits=BITS, adder_out_bits=BITS,
    dram_bandwidth=st.sampled_from((1.0, 3.0, 8.0, 12.8, 0.7)))


def extents(layer):
    return layer.in_channels // layer.groups, layer.out_channels, layer.out_h, layer.out_w


def geom(layer, budget):
    return accel._geom(layer, *accel._kind_bytes(layer.op_type, budget))


def assert_bit_equal(got, want):
    for g, w in zip(got, want, strict=True):
        g, w = np.asarray(g), np.asarray(w)
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


@settings(max_examples=150, deadline=None)
@given(layers(), budgets)
def test_own_ladders_equal_the_direct_formula(layer, budget):
    g = geom(layer, budget)
    ch, sp = accel._own_channel_factor(g.channel), accel._own_spatial_factor(g.spatial)
    got = accel._layer_terms(ch, sp, budget.dram_bandwidth)
    axes = [np.array(_ladder(e), dtype=np.int64).reshape([-1 if i == a else 1 for i in range(4)])
            for a, e in enumerate(extents(layer))]
    ws, tiles, tile_macs, mem = ref_layer_terms(layer, budget, *axes)
    # The kernel's arrays are (channel pairs, spatial pairs), row-major.
    pairs = axes[0].size * axes[1].size
    assert_bit_equal(got, (ws.reshape(pairs, -1), tiles.reshape(pairs, -1),
                           tile_macs.reshape(pairs, -1), mem.reshape(len(LoopOrder), pairs, -1)))


@settings(max_examples=150, deadline=None)
@given(layers(), budgets, st.tuples(*[st.integers(1, 400)] * 4))
def test_one_clamped_tiling_equals_the_direct_formula(layer, budget, tiling):
    g = geom(layer, budget)
    got = accel._terms_at(g, (1, *tiling), budget.dram_bandwidth)
    clamped = [np.int64(min(t, e)) for t, e in zip(tiling, extents(layer))]
    assert_bit_equal(got, ref_layer_terms(layer, budget, *clamped))


def stock_corpus(n=64):
    cfg = RunConfig()
    rng = random.Random(0)
    budget = effective_budget(cfg.budget, cfg.constraint)
    return [expand(cfg.space, sample_random(cfg.space, rng)) for _ in range(n)], budget


def test_stock_intermediates_far_below_exactness_bound():
    corpus, budget = stock_corpus()
    geoms = {geom(l, budget) for net in corpus for l in net}
    largest = 0.0
    for g in geoms:
        ch, sp = accel._own_channel_factor(g.channel), accel._own_spatial_factor(g.spatial)
        ws, tiles, tile_macs, mem = accel._layer_terms(ch, sp, budget.dram_bandwidth)
        # Every partial sum of a traffic term is at most the term, which is
        # at most its memory cycles times the bandwidth.
        largest = max(largest, mem.max() * budget.dram_bandwidth, ws.max(), ch.rows.max(),
                      sp.rows.max(), tiles.max(), tile_macs.max())
    assert largest < 2.0 ** 50


def stock_chunks(corpus):
    return [(kind, layers) for net in corpus
            for kind, layers in split_by_type(net).items() if layers]


def counting(compute, computed: Counter):
    def counted(g, *tiles):
        computed[g] += 1
        return compute(g, *tiles)
    return counted


def test_each_factor_computes_once_per_key(monkeypatch):
    corpus, budget = stock_corpus()
    computed = {"channel": Counter(), "spatial": Counter()}
    for half, counter in computed.items():
        name = f"_{half}_factor"
        monkeypatch.setattr(accel, name, counting(getattr(accel, name), counter))
    accel._own_channel_factor.cache_clear()
    accel._own_spatial_factor.cache_clear()
    try:
        for kind, layers in stock_chunks(corpus):
            evaluate_dataflows(kind, layers, [1, 64], budget.gb_bytes_max, budget)
    finally:
        accel._own_channel_factor.cache_clear()
        accel._own_spatial_factor.cache_clear()
    geoms = {geom(l, budget) for net in corpus for l in net}
    assert computed["channel"] == Counter({g.channel for g in geoms})
    assert computed["spatial"] == Counter({g.spatial for g in geoms})


def test_cached_factors_are_read_only():
    g = geom(LayerDescriptor(LayerType.CONV, 16, 32, 3, 1, 1, 14, 14), HardwareBudget())
    for factor in (accel._own_channel_factor(g.channel), accel._own_spatial_factor(g.spatial)):
        for array in (factor.counts, factor.work, factor.rows):
            with pytest.raises(ValueError):
                array[0] = 0
    with pytest.raises(ValueError):
        accel._clamped_pairs(4, 2, 3, 3)[0] = 1


def test_cold_cache_thread_sweeps_equal_serial():
    corpus, budget = stock_corpus(16)
    chunks = stock_chunks(corpus)

    def sweep(chunk):
        kind, layers = chunk
        return evaluate_dataflows(kind, layers, [1, 7, 64], budget.gb_bytes_max, budget)

    serial = [sweep(c) for c in chunks]
    accel._own_channel_factor.cache_clear()
    accel._own_spatial_factor.cache_clear()
    accel._clamped_pairs.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            threaded = list(pool.map(sweep, chunks * 2, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial * 2


def test_search_transient_memory_bounded_by_its_factors():
    # With the caches warm, the search of the stock space's largest genome
    # peaked at 4.07 times the bytes of the factors it reads (640 KB against
    # 157 KB); summing layers per spatial group before widening them holds
    # a few group accumulators beside the chunk total.
    cfg = RunConfig()
    budget = effective_budget(cfg.budget, cfg.constraint)
    net = largest_genome(cfg.space)
    search_accelerator(net, cfg.space, budget, cfg.coeffs)
    geoms = {geom(l, budget) for l in expand(cfg.space, net)}
    factors = ([accel._own_channel_factor(c) for c in {g.channel for g in geoms}]
               + [accel._own_spatial_factor(s) for s in {g.spatial for g in geoms}])
    cached = sum(f.counts.nbytes + f.work.nbytes + f.rows.nbytes for f in factors)
    tracemalloc.start()
    try:
        search_accelerator(net, cfg.space, budget, cfg.coeffs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * cached
