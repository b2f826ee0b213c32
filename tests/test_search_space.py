import json
import random

import pytest

from chunknas.accel import AcceleratorConfig, ChunkConfig, Dataflow, LoopOrder, PerfReport
from chunknas.reproduce import CheckResult, Report
from chunknas.search_space import (
    LayerType,
    MembershipViolation,
    OpCounts,
    StageGene,
    SubNetwork,
    SearchSpace,
    count_macs,
    count_ops,
    crossover,
    default_space,
    expand,
    expand_blocks,
    largest_genome,
    mutate,
    ops_from_macs,
    sample_random,
    validate,
)

from oracles import is_valid, smallest_genome


@pytest.fixture(scope="module")
def space():
    return default_space()


class TestDefaultSpace:
    def test_table_rows(self, space):
        assert len(space.stages) == 7
        assert space.stages[0].channel_choices == (16, 24)
        assert space.stages[0].expansion_choices == (1,)
        assert space.stages[0].depth_choices == (1, 2)
        assert space.stages[1].channel_choices == (24, 32)
        assert space.stages[1].expansion_choices == (4, 5, 6)
        assert space.stages[1].depth_choices == (3, 4, 5)
        assert space.stages[4].channel_choices == (112, 120, 128)
        assert space.stages[4].depth_choices == (3, 4, 5, 6, 7, 8)
        assert space.stages[5].channel_choices == (192, 200, 208, 216)
        assert space.stages[5].expansion_choices == (6,)
        assert space.stages[6].channel_choices == (216, 224)
        assert space.stages[6].expansion_choices == (6,)
        assert space.stages[6].depth_choices == (1, 2)
        assert space.first_conv_channels == (16, 24)
        assert space.mbpool_channels == (1792, 1984)
        for stage in space.stages:
            assert stage.kernel_choices == (3, 5)
            assert set(stage.type_choices) == {LayerType.CONV, LayerType.SHIFT, LayerType.ADDER}

    def test_roundtrip_json(self, space):
        again = SearchSpace.from_dict(space.to_dict())
        assert again == space


class TestValidate:
    def test_stage6_expansion_violation(self, space):
        net = sample_random(space, random.Random(0))
        genes = list(net.stages)
        genes[5] = StageGene(genes[5].c, 4, genes[5].k, genes[5].t, genes[5].n)
        bad = SubNetwork(net.first_conv_c, tuple(genes), net.mbpool_c)
        with pytest.raises(MembershipViolation) as exc:
            validate(space, bad)
        assert exc.value.stage == 6
        assert exc.value.field == "expansion"
        assert exc.value.value == 4

    def test_stage1_depth_violation(self, space):
        net = sample_random(space, random.Random(0))
        genes = list(net.stages)
        genes[0] = StageGene(genes[0].c, genes[0].e, genes[0].k, genes[0].t, 3)
        bad = SubNetwork(net.first_conv_c, tuple(genes), net.mbpool_c)
        with pytest.raises(MembershipViolation) as exc:
            validate(space, bad)
        assert (exc.value.stage, exc.value.field) == (1, "depth")

    def test_sampled_genomes_valid(self, space):
        rng = random.Random(123)
        for _ in range(50):
            validate(space, sample_random(space, rng))


class TestExpand:
    def test_stage_block_structure(self, space):
        # One stage with n=3, e=4, k=3, c=32 from 24 input channels at 32x32,
        # stride 2: 9 layers, first DW carries the stride and halves dims.
        net = sample_random(space, random.Random(4))
        genes = list(net.stages)
        genes[1] = StageGene(32, 4, 3, LayerType.CONV, 3)
        net = SubNetwork(24, tuple(genes), net.mbpool_c)
        layers, blocks = expand_blocks(space, net)
        stage2_blocks = blocks[net.stages[0].n : net.stages[0].n + 3]
        stage_layers = [
            layers[b.first_layer : b.first_layer + b.num_layers] for b in stage2_blocks
        ]
        assert sum(len(g) for g in stage_layers) == 9
        first_dw = stage_layers[0][1]
        assert first_dw.groups == first_dw.in_channels
        assert first_dw.stride == 2
        assert (first_dw.out_h, first_dw.out_w) == (first_dw.in_h // 2, first_dw.in_w // 2)

    def test_expansion_one_collapses(self, space):
        net = smallest_genome(space)
        _, blocks = expand_blocks(space, net)
        assert blocks[0].num_layers == 2  # stage 1 has e = 1: DW + PW only

    def test_layer_count_formula(self, space):
        # Independent enumeration: stem + per-stage IRB layers + 2 head layers.
        for seed in range(5):
            net = sample_random(space, random.Random(seed))
            expected = 1 + 2
            for gene in net.stages:
                per_block = 2 if gene.e == 1 else 3
                expected += per_block * gene.n
            assert len(expand(space, net)) == expected

    def test_spatial_dims_follow_strides(self, space):
        net = largest_genome(space)
        layers = expand(space, net)
        for layer in layers:
            assert layer.out_h == -(-layer.in_h // layer.stride)
        # Resolution 32 with stride pattern 2,1,2,2,2,1,2,1 bottoms out at 1x1.
        assert layers[-3].out_h == 1

    def test_types_follow_stage_and_stem_head_conv(self, space):
        net = sample_random(space, random.Random(9))
        layers, blocks = expand_blocks(space, net)
        assert layers[0].op_type is LayerType.CONV
        assert layers[-1].op_type is LayerType.CONV
        assert layers[-2].op_type is LayerType.CONV
        idx = 0
        for gene in net.stages:
            for _ in range(gene.n):
                blk = blocks[idx]
                for l in layers[blk.first_layer : blk.first_layer + blk.num_layers]:
                    assert l.op_type is gene.t
                idx += 1

    def test_residual_rule(self, space):
        net = sample_random(space, random.Random(11))
        layers, blocks = expand_blocks(space, net)
        for blk in blocks:
            first = layers[blk.first_layer]
            last = layers[blk.first_layer + blk.num_layers - 1]
            dw = layers[blk.first_layer + blk.num_layers - 2]
            if blk.residual_channels:
                assert dw.stride == 1
                assert first.in_channels == last.out_channels == blk.residual_channels

    def test_deterministic(self, space):
        net = sample_random(space, random.Random(2))
        assert expand(space, net) == expand(space, net)


class TestCountOps:
    def test_single_conv_example(self, space):
        from chunknas.search_space import LayerDescriptor

        layer = LayerDescriptor(LayerType.CONV, 16, 16, 3, 1, 1, 32, 32)
        ops = count_ops([layer])
        assert ops.mults == pytest.approx(2.359296)
        assert ops.adds == pytest.approx(2.359296)
        assert ops.shifts == 0.0

    def test_counting_rule_identities(self):
        adder_net = ops_from_macs(6.6e6, 0.0, 79.2e6)
        assert round(adder_net.adds, 2) == 165.00
        shift_net = ops_from_macs(6.6e6, 79.2e6, 0.0)
        assert round(shift_net.shifts, 2) == 79.2
        assert round(shift_net.adds, 2) == 85.8

    def test_additive(self, space):
        rng = random.Random(5)
        a = expand(space, sample_random(space, rng))
        b = expand(space, sample_random(space, rng))
        joined = count_ops(a + b)
        summed = count_ops(a) + count_ops(b)
        assert joined.mults == pytest.approx(summed.mults)
        assert joined.shifts == pytest.approx(summed.shifts)
        assert joined.adds == pytest.approx(summed.adds)

    def test_pure_conv_mults_equal_adds(self, space):
        net = sample_random(space, random.Random(6))
        genes = tuple(
            StageGene(g.c, g.e, g.k, LayerType.CONV, g.n) for g in net.stages
        )
        ops = count_ops(expand(space, SubNetwork(net.first_conv_c, genes, net.mbpool_c)))
        assert ops.mults == pytest.approx(ops.adds)
        assert ops.shifts == 0

    def test_adds_dominate(self, space):
        rng = random.Random(7)
        for _ in range(10):
            ops = count_ops(expand(space, sample_random(space, rng)))
            assert ops.adds >= max(ops.mults, ops.shifts)
            assert min(ops.mults, ops.shifts, ops.adds) >= 0


class TestGeneticOps:
    def test_sample_deterministic(self, space):
        assert sample_random(space, random.Random(42)) == sample_random(space, random.Random(42))

    def test_sample_uniform_kernel(self, space):
        rng = random.Random(10)
        counts = {3: 0, 5: 0}
        n = 10_000
        for _ in range(n):
            counts[sample_random(space, rng).stages[5].k] += 1
        assert abs(counts[3] / n - 0.5) < 0.02

    def test_mutate_prob_zero_identity(self, space):
        rng = random.Random(1)
        net = sample_random(space, rng)
        assert mutate(space, net, 0.0, rng) == net

    def test_mutate_prob_one_changes_multivalued_fields(self, space):
        rng = random.Random(2)
        net = sample_random(space, rng)
        out = mutate(space, net, 1.0, rng)
        # Every field whose choice set has >= 2 values must differ.
        assert out.first_conv_c != net.first_conv_c
        assert out.mbpool_c != net.mbpool_c
        for a, b, spec in zip(net.stages, out.stages, space.stages):
            assert (a.c == b.c) == (len(spec.channel_choices) == 1)
            assert (a.e == b.e) == (len(spec.expansion_choices) == 1)
            assert a.k != b.k
            assert a.t != b.t
            assert (a.n == b.n) == (len(spec.depth_choices) == 1)

    def test_mutate_rate(self, space):
        rng = random.Random(3)
        net = sample_random(space, rng)
        n = 10_000
        flips = sum(
            mutate(space, net, 0.2, rng).stages[5].k != net.stages[5].k for _ in range(n)
        )
        assert abs(flips / n - 0.2) < 0.02

    def test_mutate_crossover_preserve_validity(self, space):
        rng = random.Random(4)
        for _ in range(100):
            a = sample_random(space, rng)
            b = sample_random(space, rng)
            assert is_valid(space, mutate(space, a, 0.5, rng))
            assert is_valid(space, crossover(space, a, b, rng))

    def test_crossover_identical_parents(self, space):
        rng = random.Random(5)
        a = sample_random(space, rng)
        assert crossover(space, a, a, rng) == a

    def test_crossover_inherits_fieldwise(self, space):
        rng = random.Random(6)
        a = sample_random(space, rng)
        b = sample_random(space, rng)
        child = crossover(space, a, b, rng)
        for ca, fa, fb in zip(child.to_flat(), a.to_flat(), b.to_flat()):
            assert ca in (fa, fb)

    def test_crossover_deterministic(self, space):
        a = sample_random(space, random.Random(7))
        b = sample_random(space, random.Random(8))
        c1 = crossover(space, a, b, random.Random(99))
        c2 = crossover(space, a, b, random.Random(99))
        assert c1 == c2


class TestSerialization:
    def test_flat_roundtrip(self, space):
        net = sample_random(space, random.Random(21))
        assert SubNetwork.from_flat(net.to_flat()) == net

    def test_digest_stable(self, space):
        net = sample_random(space, random.Random(22))
        assert net.digest() == SubNetwork.from_flat(net.to_flat()).digest()

    def test_flat_length(self, space):
        net = sample_random(space, random.Random(23))
        assert len(net.to_flat()) == 2 + 5 * 7


def _same_json(doc, expected):
    """Equal, with the same key order and lists where the literal has them."""
    assert doc == expected
    assert json.dumps(doc) == json.dumps(expected)


class TestRecordShapes:
    """The JSON shape of the records the CLI writes, pinned as literals."""

    def test_accelerator_config(self):
        cfg = AcceleratorConfig(
            ChunkConfig(LayerType.CONV, 8, Dataflow(LoopOrder.WS, (1, 2, 4, 8, 8))),
            ChunkConfig(LayerType.SHIFT, 4, Dataflow(LoopOrder.OS, (1, 4, 4, 2, 2))),
            ChunkConfig(LayerType.ADDER, 2, Dataflow(LoopOrder.RS, (1, 1, 2, 4, 4))),
            gb_bytes=4096,
        )
        _same_json(cfg.to_dict(), {
            "chunk_c": {"chunk_kind": "C", "pe_count": 8,
                        "dataflow": {"loop_order": "WS", "tiling": [1, 2, 4, 8, 8]}},
            "chunk_s": {"chunk_kind": "S", "pe_count": 4,
                        "dataflow": {"loop_order": "OS", "tiling": [1, 4, 4, 2, 2]}},
            "chunk_a": {"chunk_kind": "A", "pe_count": 2,
                        "dataflow": {"loop_order": "RS", "tiling": [1, 1, 2, 4, 4]}},
            "gb_bytes": 4096,
        })

    def test_perf_report(self):
        report = PerfReport(
            latency_s=0.002, throughput_gops=1.5, fps=500.0, gops_per_klut=0.25,
            gops_per_dsp=0.375, energy_mj=0.8, dsp=4, lut=6000, bram_blocks=2.5,
            per_chunk_time_s=(0.002, 0.001, 0.0005), ops=OpCounts(1.0, 0.5, 1.5),
        )
        _same_json(report.to_dict(), {
            "latency_s": 0.002, "throughput_gops": 1.5, "fps": 500.0, "gops_per_klut": 0.25,
            "gops_per_dsp": 0.375, "energy_mj": 0.8, "dsp": 4, "lut": 6000, "bram_blocks": 2.5,
            "per_chunk_time_s": [0.002, 0.001, 0.0005],
            "ops_m": {"mults": 1.0, "shifts": 0.5, "adds": 1.5},
        })

    def test_check_results(self):
        report = Report([
            CheckResult("resources", "dsp_packing", True, "8 conv PEs -> 4 DSP"),
            CheckResult("oracle-ratio", "w", False, "ratio 0.9", 0.1),
        ])
        _same_json(report.to_dict(), {"passed": False, "checks": [
            {"suite": "resources", "name": "dsp_packing", "passed": True,
             "detail": "8 conv PEs -> 4 DSP", "residual": None},
            {"suite": "oracle-ratio", "name": "w", "passed": False, "detail": "ratio 0.9",
             "residual": 0.1},
        ]})
