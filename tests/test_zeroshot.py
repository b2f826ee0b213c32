import math
import random
from dataclasses import dataclass

import numpy as np
import pytest
from scipy import stats as scipy_stats

from chunknas import zeroshot
from chunknas.nn import HybridLayer, HybridNet, LayerPlan, NonFiniteScore, instantiate
from chunknas.search_space import (
    LayerDescriptor,
    LayerType,
    StageGene,
    SubNetwork,
    default_space,
    expand_blocks,
    sample_random,
)
from chunknas.zeroshot import AllTied, combined_ranks, kendall_tau, nn_degree, zen_score

from oracles import (
    combined_score,
    nn_degree_terms,
    rank_of,
    ref_zen_score,
    zen_perturbation_term,
)


@dataclass(frozen=True)
class FixedWeightNet(HybridNet):
    """A plan whose draw gives the fixture's weights."""

    weights: tuple = ()

    def draw_layers(self):
        for layer, w in zip(self.layers, self.weights):
            yield HybridLayer(layer.desc, w)


def toy_conv_net(weights, strides, res):
    layers = []
    h = w = res
    for wt, s in zip(weights, strides):
        co, ci, k, _ = wt.shape
        desc = LayerDescriptor(LayerType.CONV, ci, co, k, s, 1, h, w)
        layers.append(LayerPlan(desc))
        h, w = desc.out_h, desc.out_w
    return FixedWeightNet(layers, [], res, seed=0,
                          weights=tuple(wt.astype(np.float32) for wt in weights))


class TestNNDegree:
    def test_single_block_fixture(self):
        assert nn_degree_terms([16, 32], [8, 16], 8) == pytest.approx(48 / 2 + 8 / 24)

    def test_no_residual_drops_second_term(self):
        assert nn_degree_terms([16, 32], [8, 16], 0) == pytest.approx(24.0)

    def test_three_toy_topologies(self):
        # Hand-computed from the block formula.
        assert nn_degree_terms([4, 4], [4, 4], 4) == pytest.approx(4 + 0.5)
        assert nn_degree_terms([8, 16, 8], [8, 8, 16], 8) == pytest.approx(32 / 3 + 0.25)
        two_blocks = nn_degree_terms([6, 6], [6, 6], 6) + nn_degree_terms([12, 3], [3, 12], 0)
        assert two_blocks == pytest.approx(6 + 0.5 + 7.5)

    def test_full_genome_matches_block_sum(self):
        space = default_space()
        net = sample_random(space, random.Random(0))
        layers, blocks = expand_blocks(space, net)
        expected = 0.0
        for blk in blocks:
            members = layers[blk.first_layer : blk.first_layer + blk.num_layers]
            expected += nn_degree_terms(
                [l.out_channels for l in members],
                [l.in_channels for l in members],
                blk.residual_channels,
            )
        assert nn_degree(layers, blocks) == pytest.approx(expected)

    def test_invariant_to_kernel_resolution_type(self):
        space = default_space()
        net = sample_random(space, random.Random(1))
        base = nn_degree(*expand_blocks(space, net))

        flipped = SubNetwork(
            net.first_conv_c,
            tuple(StageGene(g.c, g.e, 3 if g.k == 5 else 5, LayerType.ADDER, g.n) for g in net.stages),
            net.mbpool_c,
        )
        assert nn_degree(*expand_blocks(space, flipped)) == pytest.approx(base)

        small = default_space(input_resolution=64)
        assert nn_degree(*expand_blocks(small, net)) == pytest.approx(base)

    def test_doubling_channels_doubles_first_terms(self):
        # Homogeneity: out-channel terms scale, residual-over-input ratios do not.
        a = nn_degree_terms([16, 32], [8, 16], 8)
        b = nn_degree_terms([32, 64], [16, 32], 16)
        first_a, second_a = 24.0, 8 / 24
        assert a == pytest.approx(first_a + second_a)
        assert b == pytest.approx(2 * first_a + second_a)


class TestZenScore:
    def test_linear_scaling_gives_log_two(self):
        # A single 1x1 conv is linear; doubling the weight shifts the
        # perturbation term by exactly log 2.
        res = 8
        w = np.full((1, 1, 1, 1), 0.7, dtype=np.float32)
        net1 = toy_conv_net([w], [1], res)
        net2 = toy_conv_net([2 * w], [1], res)
        t1 = zen_perturbation_term(net1, 0.01, 16, np.random.default_rng(3))
        t2 = zen_perturbation_term(net2, 0.01, 16, np.random.default_rng(3))
        assert t2 - t1 == pytest.approx(math.log(2.0), rel=1e-6)

    def test_matches_straightline_reference(self):
        # Three-layer toy conv net, frozen draws, alpha 0.01, batch 16.
        rng = np.random.default_rng(0)
        weights = [
            rng.normal(0, 0.5, size=(4, 3, 3, 3)),
            rng.normal(0, 0.5, size=(5, 4, 3, 3)),
            rng.normal(0, 0.5, size=(3, 5, 1, 1)),
        ]
        strides = [1, 2, 1]
        res, batch, alpha = 8, 16, 0.01
        net = toy_conv_net(weights, strides, res)

        draw = np.random.default_rng(42)
        x = draw.standard_normal((batch, 3, res, res), dtype=np.float32)
        eps = draw.standard_normal((batch, 3, res, res), dtype=np.float32)

        expected = ref_zen_score(weights, strides, x, eps, alpha)

        class _FixedDraws:
            def __init__(self, arrays):
                self.arrays = list(arrays)

            def standard_normal(self, shape, dtype=float):
                arr = self.arrays.pop(0)
                assert arr.shape == tuple(shape)
                return arr.astype(dtype)

        got = zen_score(net, alpha=alpha, batch=batch, repeats=1,
                        rng=_FixedDraws([x, eps]))
        assert got == pytest.approx(expected, rel=1e-5)

    def test_deterministic_under_seed(self):
        space = default_space()
        net = sample_random(space, random.Random(5))
        h1 = instantiate(net, space, seed=7)
        h2 = instantiate(net, space, seed=7)
        z1 = zen_score(h1, rng=np.random.default_rng(9))
        z2 = zen_score(h2, rng=np.random.default_rng(9))
        assert z1 == z2

    def test_finite_on_random_genomes(self):
        space = default_space()
        rng = random.Random(6)
        for i in range(5):
            net = sample_random(space, rng)
            h = instantiate(net, space, seed=i)
            assert math.isfinite(zen_score(h, rng=np.random.default_rng(i)))

    def test_rejects_bad_args(self):
        net = toy_conv_net([np.ones((1, 3, 1, 1))], [1], 4)
        with pytest.raises(ValueError):
            zen_score(net, alpha=0.0)
        with pytest.raises(ValueError):
            zen_score(net, batch=1)
        with pytest.raises(ValueError):
            zen_score(net, repeats=0)

    def test_degenerate_zero_net_raises(self):
        net = toy_conv_net([np.zeros((2, 3, 1, 1))], [1], 4)
        with pytest.raises(NonFiniteScore):
            zen_score(net, rng=np.random.default_rng(0))

    # Float32 error budget of the Zen score: |float32 - float64| on the same
    # draws, on 8 genomes of random.Random(0) (weight and input seed i) and
    # two co-search candidates scored with their derived seeds, on which
    # float32 batch-norm statistics were off by 45.6 and 19.5 (the
    # per-sample variance of adder outputs, a large mean with a small
    # spread, lost its digits). With float64 statistics measured: 0.05 at
    # most, against score spans of -2230 to -450. Deeper float32 error
    # comes from the forward itself and grows chaotically through stacks of
    # 2x2 adder layers, so the budget stays wide.
    ZEN_F32_ABS_TOL = 2.5
    CANDIDATES = [
        ([16, 24, 1, 5, 1, 2, 32, 5, 3, 2, 4, 32, 4, 5, 0, 3, 64, 4, 3, 2, 3, 128, 6, 5, 2, 8,
          200, 6, 5, 1, 4, 216, 6, 3, 2, 2, 1984], (17530703856210006876, 8582613516828679591)),
        ([16, 24, 1, 3, 2, 1, 24, 4, 3, 2, 3, 40, 5, 3, 0, 6, 72, 4, 5, 1, 6, 112, 5, 5, 2, 7,
          192, 6, 5, 0, 6, 224, 6, 3, 2, 1, 1792], (7522245103770620205, 11553205357759520487)),
    ]

    def test_float32_error_budget(self):
        space = default_space()
        rng = random.Random(0)
        cases = [(sample_random(space, rng), (i, i)) for i in range(8)]
        cases += [(SubNetwork.from_flat(g), seeds) for g, seeds in self.CANDIDATES]
        s32, s64 = [], []
        for net, (weight_seed, zen_seed) in cases:
            h = instantiate(net, space, seed=weight_seed)
            draws = zeroshot._draws(h, zeroshot.ZEN_BATCH, 1, np.random.default_rng(zen_seed))
            s32.append(zeroshot._zen_from_draws(h, draws, zeroshot.ZEN_ALPHA))
            draws64 = [(x.astype(np.float64), e.astype(np.float64)) for x, e in draws]
            s64.append(zeroshot._zen_from_draws(h, draws64, zeroshot.ZEN_ALPHA))
        assert max(abs(a - b) for a, b in zip(s32, s64)) <= self.ZEN_F32_ABS_TOL
        assert kendall_tau(s32, s64) == 1.0


class TestCombinedScore:
    def test_best_on_both_is_zero(self):
        pop = [(10.0, 5.0), (8.0, 4.0), (6.0, 3.0)]
        assert combined_score(pop[0], pop) == 0

    def test_rank_arithmetic(self):
        # Five candidates; target is 3rd on zen, best on nn-degree.
        pop = [(9.0, 3.0), (1.0, 5.0), (2.0, 4.0), (3.0, 2.0), (4.0, 1.0)]
        assert combined_score(pop[0], pop) == 0 + 2

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(0)
        nn_vals = rng.normal(size=12)
        zen_vals = rng.normal(size=12)
        pop = list(zip(nn_vals, zen_vals))
        base = combined_ranks(pop)
        squashed = list(zip(nn_vals, np.tanh(zen_vals)))
        assert combined_ranks(squashed) == base
        stretched = list(zip(np.exp(nn_vals), zen_vals))
        assert combined_ranks(stretched) == base

    def test_range_invariant(self):
        rng = np.random.default_rng(1)
        pop = [(float(a), float(b)) for a, b in rng.normal(size=(9, 2))]
        for cand in pop:
            assert 0 <= combined_score(cand, pop) <= 2 * (len(pop) - 1)
        assert combined_ranks(pop) == [combined_score(cand, pop) for cand in pop]

    def test_rank_of_ties_share(self):
        assert rank_of(3.0, [3.0, 3.0, 5.0]) == 1


class TestKendallTau:
    def test_identity(self):
        xs = [0.3, 1.2, 2.2, 9.0]
        assert kendall_tau(xs, xs) == pytest.approx(1.0)

    def test_reversal(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert kendall_tau(xs, list(reversed(xs))) == pytest.approx(-1.0)

    def test_pair_enumeration_fixture(self):
        assert kendall_tau([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(4 / 6)

    def test_symmetry_and_monotone_invariance(self):
        rng = np.random.default_rng(0)
        xs = rng.normal(size=20).tolist()
        ys = rng.normal(size=20).tolist()
        assert kendall_tau(xs, ys) == pytest.approx(kendall_tau(ys, xs))
        zs = np.exp(np.asarray(ys) / 3).tolist()
        assert kendall_tau(xs, zs) == pytest.approx(kendall_tau(xs, ys))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scipy_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        xs = rng.integers(0, 6, size=30).astype(float).tolist()
        ys = (rng.integers(0, 6, size=30).astype(float) + np.asarray(xs)).tolist()
        expected = scipy_stats.kendalltau(xs, ys).statistic
        assert kendall_tau(xs, ys) == pytest.approx(expected, rel=1e-12)

    def test_all_tied_raises(self):
        with pytest.raises(AllTied):
            kendall_tau([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            kendall_tau([1.0], [2.0])
