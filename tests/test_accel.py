import math
import random

import numpy as np
import pytest

from chunknas import accel
from chunknas.accel import (
    AcceleratorConfig,
    ChunkConfig,
    Dataflow,
    EnergyCoeffs,
    HardwareBudget,
    InfeasibleBudget,
    LoopOrder,
    PerfReport,
    SingularSystem,
    TileExceedsBuffer,
    _geom,
    chunk_lut,
    evaluate_dataflows,
    fit_energy_coeffs,
    hand_dataflow_table,
    layer_latency,
    min_gb_size,
    pipeline_perf,
    resource_usage,
    tiling_candidates,
    tiling_count,
)
from chunknas.search_space import LayerDescriptor, LayerType, OpCounts
from oracles import ref_dataflows


def full_dataflow(layer, order=LoopOrder.WS):
    return Dataflow(order, (1, layer.in_channels // layer.groups,
                            layer.out_channels, layer.out_h, layer.out_w))


def make_config(pe_c=4, pe_s=4, pe_a=4, gb=1 << 20):
    df = Dataflow(LoopOrder.WS, (1, 1, 1, 1, 1))
    return AcceleratorConfig(
        ChunkConfig(LayerType.CONV, pe_c, df),
        ChunkConfig(LayerType.SHIFT, pe_s, df),
        ChunkConfig(LayerType.ADDER, pe_a, df),
        gb,
    )


class TestResourceUsage:
    def test_per_pe_costs(self):
        cfg = make_config(pe_c=1090, pe_s=272, pe_a=1704, gb=4608)
        dsp, lut, bram = resource_usage(cfg, lut_overhead=0)
        assert dsp == 545
        assert lut == 40330 + 9248 + 49416 == 98994
        assert bram == pytest.approx(1.0)

    def test_two_conv_pes_per_dsp(self):
        dsp, _, _ = resource_usage(make_config(pe_c=2))
        assert dsp == 1

    def test_packing_rule_is_the_models(self, monkeypatch):
        # The reference DSP check and the conv PE bound follow the model's
        # packing: without it the check fails and the bound halves.
        from chunknas import accel, reproduce
        from chunknas.refdata import reference_tables

        def dsp_check():
            return next(c for c in reproduce.check_resources(reference_tables())
                        if c.name == "dsp_packing")

        assert dsp_check().passed
        assert HardwareBudget().conv_pes_by_dsp == 1090
        monkeypatch.setattr(accel, "DSP_PER_CONV_PE", 1.0)
        assert not dsp_check().passed
        assert HardwareBudget().conv_pes_by_dsp == 545

    def test_linear_in_pe_counts(self):
        base = resource_usage(make_config(8, 8, 8))[1]
        bigger = resource_usage(make_config(9, 8, 8))[1]
        assert bigger - base == 37
        assert resource_usage(make_config(8, 9, 8))[1] - base == 34
        assert resource_usage(make_config(8, 8, 9))[1] - base == 29

    def test_overhead_added(self):
        cfg = make_config(1, 1, 1)
        assert resource_usage(cfg, lut_overhead=11000)[1] == 37 + 34 + 29 + 11000

    def test_pe_luts_are_the_luts_past_the_overhead(self):
        # PEs fill exactly the LUTs the overhead leaves: a config whose PEs
        # use all of them fits, one more PE does not. Not a field, so it is
        # not serialized.
        assert HardwareBudget().pe_luts == 117_000 - 11_000
        budget = HardwareBudget(lut_total=600, lut_overhead=500)
        assert budget.pe_luts == 100 == chunk_lut(1, 1, 1)
        make_config(1, 1, 1).assert_fits(budget)
        with pytest.raises(InfeasibleBudget, match="LUT"):
            make_config(1, 1, 2).assert_fits(budget)
        assert "pe_luts" not in budget.to_dict()

    def test_assert_fits_budget(self):
        budget = HardwareBudget()
        make_config(pe_c=1090, pe_s=272, pe_a=171, gb=40000).assert_fits(budget)
        with pytest.raises(InfeasibleBudget):
            make_config(pe_c=4000).assert_fits(budget)  # 2000 DSP > 1248
        with pytest.raises(InfeasibleBudget):
            make_config(gb=budget.gb_bytes_max + 1).assert_fits(budget)


class TestLayerLatency:
    def test_compute_bound_example(self):
        # 1x1 conv, 16->16, 8x8 output, full-dim tiles, 1024 PEs -> 16 cycles.
        layer = LayerDescriptor(LayerType.CONV, 16, 16, 1, 1, 1, 8, 8)
        budget = HardwareBudget(dram_bandwidth=1e9)  # compute bound
        chunk = ChunkConfig(LayerType.CONV, 1024, full_dataflow(layer))
        assert layer_latency(layer, chunk, 1 << 20, budget) == 16

    def test_single_pe_scales_exactly(self):
        layer = LayerDescriptor(LayerType.CONV, 16, 16, 1, 1, 1, 8, 8)
        budget = HardwareBudget(dram_bandwidth=1e9)
        chunk1 = ChunkConfig(LayerType.CONV, 1, full_dataflow(layer))
        assert layer_latency(layer, chunk1, 1 << 20, budget) == 16384

    def test_tile_exceeds_buffer(self):
        layer = LayerDescriptor(LayerType.CONV, 64, 64, 3, 1, 1, 32, 32)
        chunk = ChunkConfig(LayerType.CONV, 64, full_dataflow(layer))
        budget = HardwareBudget()
        with pytest.raises(TileExceedsBuffer):
            layer_latency(layer, chunk, 64, budget)

    def test_type_mismatch_rejected(self):
        layer = LayerDescriptor(LayerType.SHIFT, 4, 4, 1, 1, 1, 4, 4)
        chunk = ChunkConfig(LayerType.CONV, 4, full_dataflow(layer))
        with pytest.raises(ValueError, match="SHIFT.* assigned to chunk LayerType.CONV"):
            layer_latency(layer, chunk, 1 << 20, HardwareBudget())

    def test_monotone_in_pe_count(self):
        rng = random.Random(0)
        budget = HardwareBudget()
        for _ in range(30):
            kind = rng.choice(list(LayerType))
            layer = LayerDescriptor(
                kind, rng.choice([4, 8, 16]), rng.choice([4, 8, 16]),
                rng.choice([1, 3]), rng.choice([1, 2]), 1,
                rng.choice([8, 16]), rng.choice([8, 16]),
            )
            tiling = (1, rng.choice([1, 2, 4]), rng.choice([1, 4, 8]),
                      rng.choice([1, 4]), rng.choice([1, 4]))
            df = Dataflow(rng.choice(list(LoopOrder)), tiling)
            prev = None
            for pe in (1, 2, 4, 8, 16, 64, 256):
                cyc = layer_latency(layer, ChunkConfig(kind, pe, df), 1 << 22, budget)
                if prev is not None:
                    assert cyc <= prev
                prev = cyc

    def test_compute_floor(self):
        # Ceiling losses only ever add cycles over MACs / pe.
        rng = random.Random(1)
        budget = HardwareBudget(dram_bandwidth=1e9)
        for _ in range(30):
            layer = LayerDescriptor(
                LayerType.CONV, rng.choice([3, 8, 12]), rng.choice([5, 8]),
                rng.choice([1, 3]), 1, 1, 8, 8,
            )
            pe = rng.choice([2, 8, 32])
            tiling = (1, rng.choice([1, 3, 8]), rng.choice([1, 5]),
                      rng.choice([2, 8]), rng.choice([3, 8]))
            df = Dataflow(LoopOrder.OS, tiling)
            cyc = layer_latency(layer, ChunkConfig(LayerType.CONV, pe, df), 1 << 22, budget)
            assert cyc >= math.ceil(layer.macs / pe)

    def test_memory_bound_traffic(self):
        # Weight-stationary 1x1 conv with full tiles: every operand loads
        # once, so cycles = ceil(total bytes / bandwidth) when bandwidth-bound.
        layer = LayerDescriptor(LayerType.CONV, 32, 32, 1, 1, 1, 4, 4)
        budget = HardwareBudget(dram_bandwidth=1.0)
        chunk = ChunkConfig(LayerType.CONV, 4096, full_dataflow(layer))
        in_b = 32 * 4 * 4 * 1.0
        w_b = 32 * 32 * 1.0
        out_b = 32 * 4 * 4 * 15 / 8
        expected = math.ceil(in_b + w_b + out_b)
        assert layer_latency(layer, chunk, 1 << 20, budget) == expected

    def test_larger_buffer_never_hurts(self):
        layer = LayerDescriptor(LayerType.ADDER, 8, 8, 3, 1, 1, 8, 8)
        df = Dataflow(LoopOrder.IS, (1, 4, 4, 4, 4))
        chunk = ChunkConfig(LayerType.ADDER, 16, df)
        budget = HardwareBudget()
        small = layer_latency(layer, chunk, 4096, budget)
        large = layer_latency(layer, chunk, 1 << 22, budget)
        assert small == large


class TestEnumerateDataflows:
    def test_four_orders_per_tiling(self):
        layer = LayerDescriptor(LayerType.CONV, 8, 8, 1, 1, 1, 8, 8)
        flows = ref_dataflows([layer], 1 << 20, HardwareBudget())
        orders = {df.loop_order for df in flows}
        assert orders == set(LoopOrder)
        assert len(flows) % 4 == 0
        # Power-of-two ladder: channels {1,2,4,8} and dims {1,2,4,8}.
        tilings = {df.tiling for df in flows if df.loop_order is LoopOrder.WS}
        assert len(tilings) == 4 * 4 * 4 * 4
        assert [df.tiling for df in flows if df.loop_order is LoopOrder.WS] \
            == [tuple(t) for t in tiling_candidates([layer]).tolist()]

    def test_tiling_count(self):
        rng = random.Random(5)
        for _ in range(20):
            layers = [LayerDescriptor(LayerType.CONV, rng.randint(1, 64), rng.randint(1, 64),
                                      1, 1, 1, rng.randint(1, 32), rng.randint(1, 32))
                      for _ in range(rng.randint(0, 3))]
            assert tiling_count(layers) == len(tiling_candidates(layers))

    def test_infeasible_buffer_raises(self):
        layer = LayerDescriptor(LayerType.CONV, 8, 8, 3, 1, 1, 8, 8)
        with pytest.raises(InfeasibleBudget, match="no tiling fits"):
            ref_dataflows([layer], 8, HardwareBudget())
        with pytest.raises(InfeasibleBudget, match="no tiling fits"):
            evaluate_dataflows(LayerType.CONV, [layer], [8], 8, HardwareBudget())

    def test_hand_table_rejects_a_layer_of_another_kind_like_the_sweep(self):
        # The hand table once priced a stray layer on the wrong chunk.
        layers = [LayerDescriptor(LayerType.SHIFT, 4, 4, 1, 1, 1, 4, 4),
                  LayerDescriptor(LayerType.ADDER, 4, 4, 1, 1, 1, 4, 4)]
        errors = []
        for price in (evaluate_dataflows, hand_dataflow_table):
            with pytest.raises(ValueError, match="ADDER.* assigned to chunk LayerType.SHIFT") as exc:
                price(LayerType.SHIFT, layers, [4], 1 << 20, HardwareBudget())
            errors.append((type(exc.value), str(exc.value)))
        assert errors[0] == errors[1] and errors[0][0] is ValueError

    def test_empty_layer_set_one_node_per_pe(self):
        table = evaluate_dataflows(LayerType.SHIFT, [], [1, 4, 16], 8, HardwareBudget())
        assert sorted(table.evals) == [1, 4, 16]
        assert table.nodes == table.feasible_dataflows == 3

    def test_evaluate_matches_scalar_model(self):
        # The vectorized sweep must agree with layer_latency evaluated
        # point-wise at its chosen dataflow.
        rng = random.Random(3)
        budget = HardwareBudget(dram_bandwidth=4.0)
        for _ in range(10):
            kind = rng.choice(list(LayerType))
            layers = [
                LayerDescriptor(kind, rng.choice([4, 8]), rng.choice([4, 8, 16]),
                                rng.choice([1, 3]), rng.choice([1, 2]), 1,
                                rng.choice([4, 8]), rng.choice([4, 8]))
                for _ in range(rng.randint(1, 3))
            ]
            pe = rng.choice([4, 16, 64])
            ev = evaluate_dataflows(kind, layers, [pe], 1 << 18, budget).evals[pe]
            total = sum(
                layer_latency(l, ChunkConfig(kind, pe, ev.dataflow), 1 << 18, budget)
                for l in layers
            )
            assert total == ev.cycles

    def test_layers_folded_before_their_geometry(self, monkeypatch):
        # Stride-2 inputs of 15 and 16 rows are two descriptors of one
        # geometry: one geometry per distinct descriptor, and their counts
        # add up.
        geoms = []
        monkeypatch.setattr(accel, "_geom", lambda *a: geoms.append(a) or _geom(*a))
        odd, even = (LayerDescriptor(LayerType.ADDER, 4, 8, 3, 2, 1, n, n) for n in (15, 16))
        layers = [odd, even, odd, odd]
        budget = HardwareBudget()
        table = evaluate_dataflows(LayerType.ADDER, layers, [8], 1 << 16, budget)
        assert len(geoms) == 2
        ev = table.evals[8]
        assert ev.cycles == 4 * layer_latency(even, ChunkConfig(LayerType.ADDER, 8, ev.dataflow),
                                              1 << 16, budget)

    def test_evaluate_is_argmin_over_enumeration(self):
        budget = HardwareBudget(dram_bandwidth=4.0)
        layers = [LayerDescriptor(LayerType.SHIFT, 8, 8, 3, 1, 1, 8, 8)]
        pe = 16
        gb = 4096
        ev = evaluate_dataflows(LayerType.SHIFT, layers, [pe], gb, budget).evals[pe]
        best = min(
            sum(layer_latency(l, ChunkConfig(LayerType.SHIFT, pe, df), gb, budget) for l in layers)
            for df in ref_dataflows(layers, gb, budget)
        )
        assert ev.cycles == best


class TestMinGbSize:
    def test_definition_roundtrip(self):
        layers = [
            LayerDescriptor(LayerType.CONV, 8, 16, 3, 1, 1, 8, 8),
            LayerDescriptor(LayerType.SHIFT, 16, 16, 1, 1, 1, 8, 8),
            LayerDescriptor(LayerType.ADDER, 16, 8, 3, 2, 1, 8, 8),
        ]
        cfg = make_config(pe_c=8, pe_s=8, pe_a=8)
        budget = HardwareBudget()
        need = min_gb_size(cfg, layers, budget)
        shrunk = AcceleratorConfig(cfg.chunk_c, cfg.chunk_s, cfg.chunk_a, need)
        pipeline_perf(layers, shrunk, budget, EnergyCoeffs(5e-3, 7e-4, 7e-4))
        # One byte less must fail for the binding layer.
        too_small = AcceleratorConfig(cfg.chunk_c, cfg.chunk_s, cfg.chunk_a, need - 1)
        with pytest.raises(TileExceedsBuffer):
            pipeline_perf(layers, too_small, budget, EnergyCoeffs(5e-3, 7e-4, 7e-4))

    def test_small_tile_working_set(self):
        # All tiles of size one on a 1x1 conv layer: double-buffered
        # (1 B input + 1 B weight + 15/8 B output) -> 8 bytes rounded up.
        layer = LayerDescriptor(LayerType.CONV, 4, 4, 1, 1, 1, 4, 4)
        cfg = make_config()
        assert min_gb_size(cfg, [layer], HardwareBudget()) == math.ceil(2 * (1 + 1 + 15 / 8))

    def test_monotone_in_tile_dims(self):
        layer = LayerDescriptor(LayerType.CONV, 16, 16, 3, 1, 1, 16, 16)
        budget = HardwareBudget()
        df1 = Dataflow(LoopOrder.WS, (1, 2, 2, 2, 2))
        df2 = Dataflow(LoopOrder.WS, (1, 4, 4, 4, 4))
        cfg1 = AcceleratorConfig(ChunkConfig(LayerType.CONV, 4, df1),
                                 cfg_s := ChunkConfig(LayerType.SHIFT, 1, df1),
                                 cfg_a := ChunkConfig(LayerType.ADDER, 1, df1), 1 << 20)
        cfg2 = AcceleratorConfig(ChunkConfig(LayerType.CONV, 4, df2), cfg_s, cfg_a, 1 << 20)
        assert min_gb_size(cfg2, [layer], budget) > min_gb_size(cfg1, [layer], budget)


class TestPipelinePerf:
    def _simple_workload(self):
        return [
            LayerDescriptor(LayerType.CONV, 8, 16, 3, 1, 1, 8, 8),
            LayerDescriptor(LayerType.SHIFT, 16, 16, 3, 1, 1, 8, 8),
            LayerDescriptor(LayerType.ADDER, 16, 16, 3, 1, 1, 8, 8),
        ]

    def test_identities(self):
        layers = self._simple_workload()
        cfg = make_config(pe_c=64, pe_s=32, pe_a=32)
        budget = HardwareBudget()
        coeffs = EnergyCoeffs(5.28e-3, 7.2e-4, 7.2e-4)
        report = pipeline_perf(layers, cfg, budget, coeffs)
        total_ops = report.ops.total * 1e6
        assert report.throughput_gops * report.latency_s * 1e9 == pytest.approx(total_ops)
        assert report.fps * report.latency_s == pytest.approx(1.0)
        assert report.latency_s == max(report.per_chunk_time_s)

    def test_tile_over_buffer_names_the_first_chunk(self):
        # The adder and conv tiles both overflow an 8 kB buffer: the error
        # names the conv layer's 11648 B, the first chunk in (conv, shift,
        # adder) order, though the 19712 B adder layer comes first.
        df = Dataflow(LoopOrder.WS, (1, 16, 16, 8, 8))
        cfg = AcceleratorConfig(*(ChunkConfig(kind, 8, df) for kind in LayerType), 8192)
        layers = [LayerDescriptor(LayerType.ADDER, 32, 32, 5, 1, 1, 16, 16),
                  LayerDescriptor(LayerType.SHIFT, 8, 8, 1, 1, 1, 8, 8),
                  LayerDescriptor(LayerType.CONV, 32, 32, 3, 1, 1, 16, 16)]
        budget = HardwareBudget()
        with pytest.raises(TileExceedsBuffer) as exc:
            pipeline_perf(layers, cfg, budget, EnergyCoeffs(5e-3, 7e-4, 7e-4))
        assert str(exc.value) == "tile working set 11648 B exceeds buffer 8192 B"
        assert min_gb_size(cfg, layers, budget) == 19712

    def test_interval_is_max_chunk_time(self):
        # per-chunk times 0.30 / 0.20 / 0.44 ms -> interval 0.44 ms, FPS 2272.7.
        report = PerfReport(
            latency_s=0.44e-3, throughput_gops=1.0, fps=1 / 0.44e-3,
            gops_per_klut=0.0, gops_per_dsp=0.0, energy_mj=0.0, dsp=1, lut=1,
            bram_blocks=0.0, per_chunk_time_s=(0.30e-3, 0.20e-3, 0.44e-3),
            ops=OpCounts(0, 0, 0),
        )
        assert report.latency_s == max(report.per_chunk_time_s)
        assert report.fps == pytest.approx(2272.7, rel=1e-4)

    def test_reference_row_arithmetic(self):
        # 157.24 M ops at 0.44 ms -> 357.4 GOPS; 194.26 M at 0.63 ms -> 308.3.
        assert 157.24e6 / 0.44e-3 / 1e9 == pytest.approx(357.4, abs=0.05)
        assert 194.26e6 / 0.63e-3 / 1e9 == pytest.approx(308.3, abs=0.05)


class TestEnergyFit:
    def reference_rows(self):
        return [
            (OpCounts(72.86, 0.0, 72.86), 0.437),
            (OpCounts(85.46, 0.0, 85.46), 0.513),
            (OpCounts(6.6, 0.0, 165.0), 0.154),
            (OpCounts(6.6, 79.2, 85.8), 0.154),
        ]

    def test_fit_recovers_expected_coefficients(self):
        # Frozen least-squares oracle values for these four rows.
        a = np.array([[r[0].mults, r[0].shifts, r[0].adds] for r in self.reference_rows()])
        b = np.array([r[1] for r in self.reference_rows()])
        expected = np.linalg.lstsq(a, b, rcond=None)[0]
        coeffs = fit_energy_coeffs(self.reference_rows())
        assert coeffs.e_mult == pytest.approx(expected[0])
        assert coeffs.e_shift == pytest.approx(expected[1])
        assert coeffs.e_add == pytest.approx(expected[2])
        assert coeffs.e_mult == pytest.approx(5.28e-3, rel=0.01)
        assert coeffs.e_shift == pytest.approx(7.2e-4, rel=0.02)
        assert coeffs.e_add == pytest.approx(7.2e-4, rel=0.02)

    def test_predicts_reference_energies(self):
        coeffs = fit_energy_coeffs(self.reference_rows())
        assert coeffs.energy_mj(OpCounts(42.26, 33.13, 81.85)) == pytest.approx(0.306, abs=0.002)
        assert coeffs.energy_mj(OpCounts(56.61, 14.14, 88.52)) == pytest.approx(0.373, abs=0.002)

    def test_singular_rows_rejected(self):
        rows = [
            (OpCounts(10.0, 0.0, 10.0), 0.06),
            (OpCounts(20.0, 0.0, 20.0), 0.12),
            (OpCounts(30.0, 0.0, 30.0), 0.18),
        ]
        with pytest.raises(SingularSystem):
            fit_energy_coeffs(rows)

    def test_too_few_rows_rejected(self):
        with pytest.raises(SingularSystem):
            fit_energy_coeffs([(OpCounts(1, 1, 1), 0.01)])

    def test_energy_linear_in_ops(self):
        coeffs = EnergyCoeffs(5e-3, 7e-4, 7e-4)
        a, b = OpCounts(1.0, 2.0, 3.0), OpCounts(4.0, 5.0, 6.0)
        assert coeffs.energy_mj(a + b) == pytest.approx(coeffs.energy_mj(a) + coeffs.energy_mj(b))

    def test_coefficient_validation(self):
        with pytest.raises(ValueError):
            EnergyCoeffs(1e-4, 7e-4, 7e-4)  # mult cheaper than add
