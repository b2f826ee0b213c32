import hashlib
import json
import random
import sys
from dataclasses import replace

import numpy as np
import pytest

from chunknas.accel import (
    Dataflow,
    EnergyCoeffs,
    HardwareBudget,
    InfeasibleBudget,
    LoopOrder,
    evaluate_dataflows,
    manual_dataflow,
)
from chunknas.config import RunConfig
from chunknas.cosearch import (
    CandidateEval,
    Constraint,
    EmptyPopulation,
    GridTooLarge,
    NoConvLayers,
    SearchParams,
    coarse_search,
    cosearch,
    derive_seeds,
    effective_budget,
    eq9_pe_init,
    fine_search,
    free_lut_pe_init,
    max_conv_pes,
    oracle_layers,
    search_accelerator,
    search_accelerator_layers,
)
from chunknas.search_space import (
    LayerDescriptor,
    LayerType,
    MacProfile,
    SearchSpace,
    StageGene,
    StageSpec,
    SubNetwork,
    count_macs,
    default_space,
    expand,
    sample_random,
    validate,
)

COEFFS = EnergyCoeffs(5.28e-3, 7.2e-4, 7.2e-4)

# SHA-256 of [config.to_dict(), report.to_dict()] of search_accelerator on
# the first 16 genomes of sample_random(stock space, Random(0)), at the stock
# KV260 budget under the stock constraint, as json.dumps(..., sort_keys=True).
# Taken from the sweep that costed every layer on the whole chunk grid.
CORPUS_DESIGNS_SHA256 = "66947becfd82e1bef84dda83948282d527d79868f7dee9e687561d512cd8059c"


def tiny_space() -> SearchSpace:
    """A fast 7-stage space for search-loop tests."""
    hybrid = (LayerType.CONV, LayerType.SHIFT, LayerType.ADDER)
    mono = (LayerType.CONV,)
    stage = lambda c, t: StageSpec((c,), (1,), (3, 5), t, (1,), stride=1)
    stages = (
        stage(8, hybrid),
        StageSpec((8, 12), (1, 2), (3, 5), hybrid, (1, 2), stride=2),
        stage(12, hybrid),
        stage(16, mono),
        stage(16, hybrid),
        StageSpec((16, 24), (1,), (3,), hybrid, (1,), stride=2),
        stage(24, mono),
    )
    return SearchSpace(stages=stages, first_conv_channels=(8,),
                       mbpool_channels=(32,), input_resolution=16, num_classes=4)


def small_budget() -> HardwareBudget:
    return HardwareBudget(
        dsp_total=64, lut_total=12000, bram_bits_total=16 * 36864,
        dram_bandwidth=4.0, frequency_hz=200e6,
        dsp_reserve_frac=0.5, lut_overhead=500,
    )


def four_bram_budget() -> HardwareBudget:
    return replace(small_budget(), bram_bits_total=4 * 36864)


def _hand_tile_error(kind: LayerType, ws: int) -> str:
    """The error of a hand tile (1, 16, 16, 8, 8) of ``ws`` bytes over
    ``four_bram_budget``'s 18432 B buffer."""
    return (f"hand dataflow tile (1, 16, 16, 8, 8) of chunk {kind.short} does not fit: "
            f"tile working set {ws} B exceeds buffer 18432 B")


TINY_ADDER = LayerDescriptor(LayerType.ADDER, 1, 1, 1, 1, 1, 1, 1)
ADDER_5X5, ADDER_7X7 = (LayerDescriptor(LayerType.ADDER, 32, 32, k, 1, 1, 16, 16)
                        for k in (5, 7))


class TestCoarseSearch:
    def test_max_pe_from_dsp_packing(self):
        assert max_conv_pes(HardwareBudget()) == 1090
        assert max_conv_pes(small_budget()) == 64

    def test_reserved_dsp_fraction(self):
        # 1248 DSPs at the default reservation leave 545 for the conv chunk.
        assert HardwareBudget().usable_dsp == 545

    def test_coarse_uses_max_pe_and_full_buffer(self):
        from chunknas.accel import evaluate_dataflows

        layers = [LayerDescriptor(LayerType.CONV, 8, 8, 3, 1, 1, 8, 8)]
        budget = small_budget()
        res = coarse_search(layers, budget)
        assert list(res.evals) == [64]
        ev = evaluate_dataflows(LayerType.CONV, layers, [64], budget.gb_bytes_max,
                                budget).evals[64]
        assert res.evals[64] == ev

    def test_hand_table_one_node_per_pe(self):
        layers = [LayerDescriptor(LayerType.CONV, 8, 8, 3, 1, 1, 8, 8)]
        res = coarse_search(layers, small_budget(), search=False)
        assert list(res.evals) == [64]
        assert res.nodes == res.feasible_dataflows == 1

    def test_no_conv_layers_degenerates(self):
        from chunknas.cosearch import NoConvLayers

        layers = [LayerDescriptor(LayerType.SHIFT, 8, 8, 3, 1, 1, 8, 8)]
        with pytest.warns(NoConvLayers):
            res = coarse_search(layers, small_budget())
        assert list(res.evals) == [1]
        assert res.evals[1].cycles == 0

    def test_tie_break_prefers_ws(self):
        # With unlimited bandwidth every loop order is compute bound and
        # ties; the canonical preference picks weight stationary.
        budget = HardwareBudget(
            dsp_total=64, lut_total=12000, bram_bits_total=1 << 24,
            dram_bandwidth=1e12, dsp_reserve_frac=0.5, lut_overhead=500,
        )
        layers = [LayerDescriptor(LayerType.CONV, 8, 8, 1, 1, 1, 4, 4)]
        (ev,) = coarse_search(layers, budget).evals.values()
        assert ev.dataflow.loop_order is LoopOrder.WS

    def test_coarse_is_optimal_for_its_chunk(self):
        # Exhaustive oracle over a single-conv-chunk workload agrees.
        layers = [
            LayerDescriptor(LayerType.CONV, 8, 16, 3, 2, 1, 16, 16),
            LayerDescriptor(LayerType.CONV, 16, 8, 1, 1, 1, 8, 8),
        ]
        budget = small_budget()
        full = search_accelerator_layers(layers, budget, COEFFS)
        oracle = oracle_layers(layers, budget, COEFFS,
                               {"conv": [16, 32, 64], "shift": [1], "adder": [1]})
        assert full.report.throughput_gops == oracle.report.throughput_gops


class TestEq9Init:
    def test_reference_ratio_fixture(self):
        # Shift/conv MAC ratio 14.14 : 56.61 at 1090 conv PEs -> 272.
        macs = MacProfile(int(56.61e6), int(14.14e6), int(8.885e6))
        raw_s, raw_a, pe_s, pe_a = eq9_pe_init(macs, 1090)
        assert pe_s == 272
        assert abs(raw_s - pe_s) <= 0.5
        assert abs(raw_a - pe_a) <= 0.5

    def test_all_conv_clamps_to_one(self):
        macs = MacProfile(10_000_000, 0, 0)
        assert eq9_pe_init(macs, 1090)[2:] == (1, 1)

    def test_conv_free_splits_free_luts_by_mac_share(self):
        # 3:1 shift:adder MACs over 11500 free LUTs, 34 and 29 LUTs per PE.
        assert free_lut_pe_init(MacProfile(0, 300, 100), 11500) == (253, 99)
        assert free_lut_pe_init(MacProfile(0, 0, 5), 11500) == (1, 396)
        assert free_lut_pe_init(MacProfile(0, 5, 0), 20) == (1, 1)
        assert free_lut_pe_init(MacProfile(0, 0, 0), 11500) == (1, 1)

    def test_random_genomes_within_rounding(self):
        space = default_space()
        rng = random.Random(0)
        for _ in range(25):
            net = sample_random(space, rng)
            macs = count_macs(expand(space, net))
            raw_s, raw_a, pe_s, pe_a = eq9_pe_init(macs, 1090)
            assert abs(pe_s - max(1, raw_s)) <= 0.5 or pe_s == 1
            assert abs(pe_a - max(1, raw_a)) <= 0.5 or pe_a == 1


class TestFineSearch:
    def _hybrid_layers(self):
        return [
            LayerDescriptor(LayerType.CONV, 8, 16, 3, 2, 1, 16, 16),
            LayerDescriptor(LayerType.SHIFT, 16, 16, 3, 1, 1, 8, 8),
            LayerDescriptor(LayerType.SHIFT, 16, 16, 1, 1, 1, 8, 8),
            LayerDescriptor(LayerType.ADDER, 16, 8, 3, 1, 1, 8, 8),
        ]

    def test_beats_unsearched_init(self):
        from chunknas.accel import pipeline_perf

        layers = self._hybrid_layers()
        budget = small_budget()
        coarse = coarse_search(layers, budget)

        def interval(search):
            cfg = fine_search(layers, budget, coarse, COEFFS, search=search).config
            return pipeline_perf(layers, cfg, budget, COEFFS).latency_s

        assert interval(True) <= interval(False)

    def test_buffer_is_minimal(self):
        from chunknas.accel import min_gb_size

        layers = self._hybrid_layers()
        budget = small_budget()
        res = fine_search(layers, budget, coarse_search(layers, budget), COEFFS)
        assert res.config.gb_bytes == min_gb_size(res.config, layers, budget)

    def test_lut_budget_respected(self):
        from chunknas.accel import resource_usage

        layers = self._hybrid_layers()
        budget = small_budget()
        res = fine_search(layers, budget, coarse_search(layers, budget), COEFFS)
        _, lut, _ = resource_usage(res.config, budget.lut_overhead)
        assert lut <= budget.lut_total

    @pytest.mark.filterwarnings("ignore::chunknas.cosearch.NoConvLayers")
    @pytest.mark.parametrize("case,match", [
        ("hybrid", "budget admits no conv PE"),
        ("shift-only", "cannot host minimal chunks"),
        ("oracle", "no PE combination fits the LUT budget"),
        ("buffer", "chunk C"),
    ], ids=["hybrid", "shift-only", "oracle", "buffer"])
    def test_infeasible_budget_raises(self, case, match):
        # 560 LUTs minus 500 overhead cannot host one PE per chunk (100 LUT):
        # the conv chunk gets no PE, an idle conv PE leaves no room for the
        # shift/adder chunks, and no 64-PE triple of the oracle grid fits.
        # No tiling of a 3x3 conv layer fits the 8 B buffer of 64 bits of
        # block RAM; the co-search turns each into a rejected candidate.
        layers = self._hybrid_layers()
        budget = HardwareBudget(
            dsp_total=64, lut_total=560, bram_bits_total=16 * 36864,
            dsp_reserve_frac=0.5, lut_overhead=500,
        )
        with pytest.raises(InfeasibleBudget, match=match):
            if case == "hybrid":
                search_accelerator_layers(layers, budget, COEFFS)
            elif case == "shift-only":
                shift = [l for l in layers if l.op_type is LayerType.SHIFT]
                search_accelerator_layers(shift, budget, COEFFS)
            elif case == "oracle":
                oracle_layers(layers, budget, COEFFS,
                              {"conv": [64], "shift": [64], "adder": [64]})
            else:
                conv = [LayerDescriptor(LayerType.CONV, 4, 4, 3, 1, 1, 8, 8)]
                search_accelerator_layers(conv, HardwareBudget(bram_bits_total=64), COEFFS)


class TestSearchAccelerator:
    def test_deterministic(self):
        space = tiny_space()
        net = sample_random(space, random.Random(1))
        budget = small_budget()
        a = search_accelerator(net, space, budget, COEFFS)
        b = search_accelerator(net, space, budget, COEFFS)
        assert a[0] == b[0]
        assert a[1].latency_s == b[1].latency_s

    def test_stock_corpus_designs_pinned(self):
        # Stock genomes reach the full 12-step channel ladders, which the
        # property tests' small layers never do.
        cfg = RunConfig()
        budget = effective_budget(cfg.budget, cfg.constraint)
        rng = random.Random(0)
        nets = [sample_random(cfg.space, rng) for _ in range(16)]
        docs = [[c.to_dict(), r.to_dict()] for c, r in
                (search_accelerator(net, cfg.space, budget, cfg.coeffs) for net in nets)]
        digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
        assert digest == CORPUS_DESIGNS_SHA256

    def test_search_runs_no_scalar_cost_code(self, monkeypatch):
        # The tables are the search path's only cost computation: a design's
        # buffer and report come from its chosen rows, so re-pricing its
        # config (``pipeline_perf``, ``min_gb_size``) stays a check of them.
        from chunknas import accel, cosearch as cs, reproduce
        from chunknas.refdata import bundled_workloads

        cfg = RunConfig()
        budget = effective_budget(cfg.budget, cfg.constraint)
        rng = random.Random(0)
        nets = [sample_random(cfg.space, rng) for _ in range(2)]
        suite = bundled_workloads()

        def designs():
            return ([search_accelerator(net, cfg.space, budget, cfg.coeffs) for net in nets],
                    [c.to_dict() for c in reproduce.compare_workloads(suite, cfg.coeffs)])

        expected = designs()

        def scalar(*args, **kwargs):
            raise AssertionError("the search ran the scalar cost model")

        for module in (accel, cs, reproduce):
            for name in ("layer_latency", "pipeline_perf", "min_gb_size"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, scalar)
        assert designs() == expected

    def test_all_conv_genome_degenerate_chunks(self):
        space = tiny_space()
        net = SubNetwork(
            8,
            tuple(StageGene(s.channel_choices[0], s.expansion_choices[0], 3,
                            LayerType.CONV, s.depth_choices[0]) for s in space.stages),
            32,
        )
        cfg, report = search_accelerator(net, space, small_budget(), COEFFS)
        assert cfg.chunk_s.pe_count == 1
        assert cfg.chunk_a.pe_count == 1
        assert report.latency_s == report.per_chunk_time_s[0]

    def test_close_to_oracle_on_small_workload(self):
        layers = [
            LayerDescriptor(LayerType.CONV, 8, 8, 3, 1, 1, 8, 8),
            LayerDescriptor(LayerType.SHIFT, 8, 16, 3, 1, 1, 8, 8),
            LayerDescriptor(LayerType.ADDER, 16, 8, 1, 1, 1, 8, 8),
            LayerDescriptor(LayerType.ADDER, 8, 8, 3, 2, 1, 8, 8),
        ]
        budget = small_budget()
        full = search_accelerator_layers(layers, budget, COEFFS)
        oracle = oracle_layers(
            layers, budget, COEFFS,
            {"conv": [8, 16, 32, 64], "shift": [4, 8, 16, 32, 64],
             "adder": [4, 8, 16, 32, 64]},
        )
        assert full.report.throughput_gops >= 0.95 * oracle.report.throughput_gops

    @pytest.mark.filterwarnings("ignore::chunknas.cosearch.NoConvLayers")
    @pytest.mark.parametrize("kind,phases", [
        (LayerType.CONV, {"coarse_phase": False}),
        (LayerType.ADDER, {"fine_phase": False}),
    ])
    def test_ablation_hand_tile_over_buffer_is_infeasible(self, kind, phases):
        # The hand tile (1, 16, 16, 8, 8) of a 5x5 layer needs about 20 kB
        # (15-bit conv outputs, 9-bit adder outputs), more than the 18432 B
        # of four block RAMs: a typed search failure, not a tile error.
        layers = [LayerDescriptor(kind, 32, 32, 5, 1, 1, 16, 16)]
        ws = {LayerType.CONV: 21248, LayerType.ADDER: 19712}[kind]
        with pytest.raises(InfeasibleBudget) as exc:
            search_accelerator_layers(layers, four_bram_budget(), COEFFS, **phases)
        assert str(exc.value) == _hand_tile_error(kind, ws)

    @pytest.mark.filterwarnings("ignore::chunknas.cosearch.NoConvLayers")
    @pytest.mark.parametrize("layers,ws", [([TINY_ADDER, ADDER_5X5, ADDER_7X7, ADDER_5X5], 19712),
                                           ([ADDER_7X7, TINY_ADDER, ADDER_5X5], 33664)],
                             ids=["5x5-first", "7x7-first"])
    def test_hand_tile_over_buffer_names_the_first_layer(self, layers, ws):
        # The tiny layer fits; of the 5x5 and 7x7 layers, which do not, the
        # error names the first in layer order.
        with pytest.raises(InfeasibleBudget) as exc:
            search_accelerator_layers(layers, four_bram_budget(), COEFFS, fine_phase=False)
        assert str(exc.value) == _hand_tile_error(LayerType.ADDER, ws)


class TestOracle:
    def test_single_point_grid(self):
        layers = [LayerDescriptor(LayerType.CONV, 8, 8, 3, 1, 1, 8, 8)]
        budget = small_budget()
        res = oracle_layers(layers, budget, COEFFS,
                            {"conv": [16], "shift": [1], "adder": [1]})
        assert res.config.chunk_c.pe_count == 16
        from chunknas.accel import evaluate_dataflows

        ev = evaluate_dataflows(LayerType.CONV, layers, [16], budget.gb_bytes_max,
                                budget).evals[16]
        assert res.config.chunk_c.dataflow == ev.dataflow

    def test_no_conv_pe_is_infeasible_as_in_the_search(self):
        # A DSP share of 0 holds no conv PE: a workload with a conv layer is
        # infeasible for the oracle as for the search, not run on one PE the
        # share does not have. A conv-free workload still runs.
        budget = replace(small_budget(), dsp_reserve_frac=0.0)
        grid = {"conv": [8, 16], "shift": [1, 4], "adder": [1, 4]}
        conv = [LayerDescriptor(LayerType.CONV, 8, 8, 3, 1, 1, 8, 8)]
        with pytest.raises(InfeasibleBudget, match="no conv PE"):
            search_accelerator_layers(conv, budget, COEFFS)
        with pytest.raises(InfeasibleBudget, match="no conv PE"):
            oracle_layers(conv, budget, COEFFS, grid)
        shift = [LayerDescriptor(LayerType.SHIFT, 8, 8, 3, 1, 1, 8, 8)]
        with pytest.warns(NoConvLayers):
            full = search_accelerator_layers(shift, budget, COEFFS)
            oracle = oracle_layers(shift, budget, COEFFS, grid)
        assert oracle.config.chunk_c.pe_count == full.config.chunk_c.pe_count == 1

    def test_node_cap(self):
        layers = [LayerDescriptor(LayerType.CONV, 8, 8, 3, 1, 1, 8, 8)]
        with pytest.raises(GridTooLarge):
            oracle_layers(layers, small_budget(), COEFFS,
                          {"conv": [1, 2, 4], "shift": [1, 2], "adder": [1, 2]},
                          node_cap=10)

    def test_objective_equivalence(self):
        # Fixed workload: minimizing the interval and maximizing throughput
        # pick the same winner because total ops are constant.
        layers = [
            LayerDescriptor(LayerType.CONV, 8, 8, 3, 1, 1, 8, 8),
            LayerDescriptor(LayerType.SHIFT, 8, 8, 3, 1, 1, 8, 8),
        ]
        res = oracle_layers(layers, small_budget(), COEFFS,
                            {"conv": [16, 64], "shift": [4, 16], "adder": [1]})
        best_latency = res.report.latency_s
        best_thr = res.report.throughput_gops
        assert best_thr == pytest.approx(
            res.report.ops.total * 1e6 / best_latency / 1e9
        )

    def test_genome_wrapper(self):
        from oracles import exhaustive_oracle  # not at import: oracles loads scipy

        space = tiny_space()
        net = sample_random(space, random.Random(2))
        cfg, report = exhaustive_oracle(
            net, space, small_budget(), COEFFS,
            {"conv": [64], "shift": [8, 32], "adder": [8, 32]},
        )
        report.validate()

    def test_sixty_four_loop_order_combinations(self):
        # Three chunks with one PE choice and one tiling each: the joint
        # space is exactly the 4 x 4 x 4 loop-order combinations, of which
        # the oracle evaluates 4 per chunk plus the one PE triple. The
        # search evaluates 4 for the conv chunk at 64 PEs, 4 at each of the
        # shift and adder chunks' five fine-tuned counts, and 5 x 5 triples.
        layers = [
            LayerDescriptor(LayerType.CONV, 1, 1, 1, 1, 1, 1, 1),
            LayerDescriptor(LayerType.SHIFT, 1, 1, 1, 1, 1, 1, 1),
            LayerDescriptor(LayerType.ADDER, 1, 1, 1, 1, 1, 1, 1),
        ]
        res = oracle_layers(layers, small_budget(), COEFFS,
                            {"conv": [1], "shift": [1], "adder": [1]})
        assert res.joint_space_nodes == 64
        assert res.evaluated_nodes == 4 + 4 + 4 + 1
        full = search_accelerator_layers(layers, small_budget(), COEFFS)
        assert full.evaluated_nodes == 4 + 5 * 4 + 5 * 4 + 5 * 5
        assert full.joint_space_nodes == 0


class TestEffectiveBudget:
    def test_lut_cap_applied(self):
        constraint = Constraint(max_lut=9000)
        eff = effective_budget(small_budget(), constraint)
        assert eff.lut_total == 9000

    def test_dsp_cap_keeps_reservation_consistent(self):
        constraint = Constraint(max_dsp=16)
        eff = effective_budget(small_budget(), constraint)
        assert eff.usable_dsp <= 16


class TestCosearch:
    def _setup(self, **over):
        space = tiny_space()
        budget = small_budget()
        constraint = Constraint(max_dsp=32, max_lut=12000)
        defaults = dict(population=6, expand_size=4, iterations=2, top_k=3, seed=3)
        defaults.update(over)
        params = SearchParams(**defaults)
        return space, budget, constraint, params

    def test_zero_iterations_scores_initial_population(self):
        space, budget, constraint, params = self._setup(iterations=0)
        res = cosearch(space, budget, constraint, params, COEFFS)
        assert len(res.entries) == min(params.top_k, len(res.population))
        assert res.log[-1]["iteration"] == 0

    def test_deterministic(self):
        space, budget, constraint, params = self._setup()
        r1 = cosearch(space, budget, constraint, params, COEFFS)
        r2 = cosearch(space, budget, constraint, params, COEFFS, threads=2)
        assert [c.net for _, c in r1.entries] == [c.net for _, c in r2.entries]
        assert ([(rank, c.nn_degree, c.zen) for rank, c in r1.entries]
                == [(rank, c.nn_degree, c.zen) for rank, c in r2.entries])
        assert r1.log == r2.log
        # Genomes are cached by digest: never more evaluations than candidates.
        assert r1.evaluations <= params.population + params.iterations * params.expand_size

    def test_identical_under_threads(self):
        # Pool threads share the cost model's tiling-ladder cache; a short
        # switch interval makes them interleave inside it.
        cfg = RunConfig()
        params = SearchParams(population=4, expand_size=2, iterations=1, top_k=2, seed=5)

        def run(threads):
            res = cosearch(cfg.space, cfg.budget, cfg.constraint, params, cfg.coeffs,
                           threads=threads)
            return json.dumps([[c.to_dict(rank) for rank, c in res.population], res.log,
                               res.evaluations], sort_keys=True)

        serial = run(1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threaded = run(2)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_reference_loop(self, seed):
        # The pooled loop that ranks each pool and each population once
        # gives what the serial loop over digests gives, which ranks them
        # afresh wherever it needs a rank.
        from oracles import ref_cosearch  # not at import: oracles loads scipy

        space, budget, constraint, params = self._setup(seed=seed)

        def doc(res):
            return json.dumps([[c.to_dict(rank) for rank, c in res.population], res.log,
                               res.evaluations], sort_keys=True)

        expected = doc(ref_cosearch(space, budget, constraint, params, COEFFS))
        for threads in (1, 2):
            assert doc(cosearch(space, budget, constraint, params, COEFFS,
                                threads=threads)) == expected

    def test_tiny_buffer_rejects_every_candidate(self):
        space, _, constraint, params = self._setup()
        budget = replace(small_budget(), bram_bits_total=64)
        with pytest.raises(EmptyPopulation):
            cosearch(space, budget, constraint, params, COEFFS)

    def test_entries_sorted_and_valid(self):
        from oracles import is_valid  # not at import: oracles loads scipy

        space, budget, constraint, params = self._setup()
        res = cosearch(space, budget, constraint, params, COEFFS)
        ranks = [rank for rank, _ in res.entries]
        assert ranks == sorted(ranks)
        for _, c in res.entries:
            assert is_valid(space, c.net)
            c.report.validate()
            assert constraint.rejects(c.report) is None

    def test_population_rank_bound(self):
        space, budget, constraint, params = self._setup()
        res = cosearch(space, budget, constraint, params, COEFFS)
        n = len(res.population)
        for rank, _ in res.population:
            assert 0 <= rank <= 2 * (n - 1)

    def test_impossible_latency_constraint(self):
        space, budget, _, params = self._setup()
        constraint = Constraint(max_dsp=32, max_lut=12000, max_latency_s=1e-12)
        with pytest.raises(EmptyPopulation):
            cosearch(space, budget, constraint, params, COEFFS)

    def test_archive_rank_of_population_best_never_worsens(self):
        # Retrospective check: rank every iteration's population within the
        # union of all candidates seen; the best combined rank per iteration
        # must be non-increasing for this frozen seed.
        from chunknas import zeroshot

        space, budget, constraint, params = self._setup(
            population=8, expand_size=6, iterations=3, seed=5)
        seen: dict[int, tuple] = {}
        populations = []

        import chunknas.cosearch as cs_mod

        orig = cs_mod._ranked

        def spy(pool):
            for c in pool:
                if c.zen is not None:
                    seen[c.net.digest()] = (c.nn_degree, c.zen)
            populations.append([c.net.digest() for c in pool])
            return orig(pool)

        cs_mod._ranked = spy
        try:
            cosearch(space, budget, constraint, params, COEFFS)
        finally:
            cs_mod._ranked = orig

        archive = list(seen.values())
        ranks = dict(zip(seen.keys(), zeroshot.combined_ranks(archive)))
        best_per_iter = [
            min(ranks[d] for d in pop if d in ranks) for pop in populations
        ]
        assert all(b <= a for a, b in zip(best_per_iter, best_per_iter[1:]))

    def test_derive_seeds_stable(self):
        a = derive_seeds(1, 12345)
        b = derive_seeds(1, 12345)
        assert a == b
        assert derive_seeds(2, 12345) != a

    def test_degenerate_scores_serialize_as_null(self):
        space = tiny_space()
        net = sample_random(space, random.Random(0))
        layers = expand(space, net)
        res = search_accelerator_layers(layers, small_budget(), COEFFS)
        candidate = CandidateEval(net, res.config, res.report, nn_degree=3.5, zen=None)
        doc = json.dumps(candidate.to_dict(12), allow_nan=False)  # must not raise
        assert json.loads(doc)["zen_score"] is None


def test_cosearch_binds_no_private_accel_name():
    # accel prices designs and cosearch picks them: the cost model's
    # kernels are reached only through accel's public tables.
    from chunknas import accel, cosearch as cs

    private = [v for k, v in vars(accel).items() if k.startswith("_") and not k.startswith("__")]
    assert private
    assert [k for k, v in vars(cs).items() if any(v is p for p in private)] == []


class TestManualDataflow:
    def test_bounded_tiles(self):
        layers = [LayerDescriptor(LayerType.CONV, 64, 64, 3, 1, 1, 32, 32)]
        df = manual_dataflow(layers)
        assert df.loop_order is LoopOrder.WS
        assert df.tiling == (1, 16, 16, 8, 8)

    def test_clamps_to_small_layers(self):
        layers = [LayerDescriptor(LayerType.ADDER, 4, 4, 1, 1, 1, 2, 2)]
        assert manual_dataflow(layers).tiling == (1, 4, 4, 2, 2)

    def test_empty_chunk_matches_empty_sweep(self):
        table = evaluate_dataflows(LayerType.SHIFT, [], [1, 4], 8, HardwareBudget())
        assert manual_dataflow([]) == Dataflow(LoopOrder.WS, (1, 1, 1, 1, 1))
        assert all(ev.dataflow == manual_dataflow([]) for ev in table.evals.values())
