import random
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from chunknas import nn, zeroshot
from chunknas.cosearch import SearchParams, zero_shot_scores
from chunknas.nn import HybridLayer, NonFiniteScore, ShapeMismatch, instantiate, quantize_shift
from chunknas.search_space import (
    NUM_HEAD_LAYERS,
    LayerDescriptor,
    LayerType,
    StageGene,
    SubNetwork,
    default_space,
    expand_blocks,
    largest_genome,
    sample_random,
)

from oracles import (
    ref_adder_same,
    ref_batch_norm,
    ref_conv_same,
    ref_instantiate,
    ref_layer_forward,
    ref_logits,
    ref_quantize_shift,
    ref_shift_weight_value,
    ref_zen_from_draws,
)


def _bits(a):
    return np.asarray(a, dtype=np.float32).view(np.uint32)


def _nchw(layer, x):
    """A layer's output on an NCHW batch, as NCHW: the forward itself runs
    channels-last."""
    return layer.forward(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)


class TestQuantizeShift:
    """Fixtures of the float64 reference quantizer in ``oracles``, each also
    met by the package's bit-pattern quantizer."""

    def test_exact_power_of_two(self):
        s, p = ref_quantize_shift(2.0)
        assert (s, p) == (1, 1)
        assert ref_shift_weight_value(s, p) == 2.0
        assert quantize_shift(2.0) == 2.0

    def test_negative_fixture(self):
        s, p = ref_quantize_shift(-0.75)
        assert (s, p) == (-1, 0)
        assert ref_shift_weight_value(s, p) == -1.0
        assert quantize_shift(-0.75) == -1.0

    def test_fraction_fixture(self):
        s, p = ref_quantize_shift(0.3)
        assert (s, p) == (1, -2)
        assert ref_shift_weight_value(s, p) == 0.25
        assert quantize_shift(0.3) == 0.25

    def test_zero_maps_to_most_attenuating(self):
        s, p = ref_quantize_shift(0.0)
        assert (s, p) == (1, -6)
        assert ref_quantize_shift(-0.0) == (1, -6)
        assert _bits(quantize_shift(0.0)) == _bits(quantize_shift(-0.0)) == _bits(2.0 ** -6)

    def test_clamping(self):
        assert ref_quantize_shift(1e9)[1] == 1
        assert ref_quantize_shift(1e-9)[1] == -6
        assert quantize_shift(1e9) == 2.0 and quantize_shift(-1e-9) == -(2.0 ** -6)

    def test_array_form(self):
        w = np.array([2.0, -0.75, 0.3, 0.0])
        s, p = ref_quantize_shift(w)
        assert s.tolist() == [1, -1, 1, 1]
        assert p.tolist() == [1, 0, -2, -6]
        got = quantize_shift(w.reshape(2, 2))
        assert got.dtype == np.float32 and got.shape == (2, 2)
        assert got.ravel().tolist() == [2.0, -1.0, 0.25, 2.0 ** -6]

    def test_reconstruction_is_power_of_two(self):
        rng = np.random.default_rng(0)
        w = rng.normal(0, 1, size=1000)
        s, p = ref_quantize_shift(w)
        vals = ref_shift_weight_value(s, p)
        assert np.all(np.isin(np.abs(vals), np.exp2(np.arange(-6, 2, dtype=np.float32))))
        assert np.array_equal(_bits(quantize_shift(w.astype(np.float32))), _bits(vals))

    def test_every_float32_matches_float64_reference(self):
        # Every mantissa at each exponent 2**-10 .. 2**3 and in the
        # exponent-0 field (+-0 and every subnormal), both signs: 2**23 * 30
        # values, in blocks small enough to stay in cache.
        t0 = time.perf_counter()
        block = np.arange(1 << 20, dtype=np.uint32)
        mismatches = 0
        for field in [0, *range(127 - 10, 127 + 4)]:
            for sign in (0, 1):
                for high in range(0, 1 << 23, block.size):
                    x = (block | np.uint32(sign << 31 | field << 23 | high)).view(np.float32)
                    want = ref_shift_weight_value(*ref_quantize_shift(x))
                    mismatches += int(np.count_nonzero(_bits(quantize_shift(x)) != _bits(want)))
        assert mismatches == 0
        assert time.perf_counter() - t0 < 10


class TestLayerSemantics:
    def test_adder_toy(self):
        desc = LayerDescriptor(LayerType.ADDER, 2, 1, 1, 1, 1, 1, 1)
        layer = HybridLayer(desc, np.array([[2.0], [1.0]], dtype=np.float32).reshape(1, 2, 1, 1))
        x = np.array([1.0, 3.0], dtype=np.float32).reshape(1, 2, 1, 1)
        assert _nchw(layer, x).ravel().tolist() == [-3.0]

    def test_shift_all_ones_equals_conv_of_ones(self):
        rng = np.random.default_rng(1)
        desc = LayerDescriptor(LayerType.SHIFT, 4, 3, 3, 1, 1, 6, 6)
        sign = np.ones((3, 4, 3, 3), dtype=np.int8)
        exp = np.zeros((3, 4, 3, 3), dtype=np.int32)
        shift = HybridLayer(desc, ref_shift_weight_value(sign, exp))
        conv = HybridLayer(
            LayerDescriptor(LayerType.CONV, 4, 3, 3, 1, 1, 6, 6),
            np.ones((3, 4, 3, 3), dtype=np.float32),
        )
        x = rng.standard_normal((2, 4, 6, 6), dtype=np.float32)
        assert np.array_equal(_nchw(shift, x), _nchw(conv, x))

    def test_identity_conv_passthrough(self):
        desc = LayerDescriptor(LayerType.CONV, 1, 1, 1, 1, 1, 5, 5)
        layer = HybridLayer(desc, np.ones((1, 1, 1, 1), dtype=np.float32))
        x = np.random.default_rng(2).standard_normal((3, 1, 5, 5), dtype=np.float32)
        assert np.array_equal(_nchw(layer, x), x)

    @pytest.mark.parametrize("seed", range(6))
    def test_conv_matches_loop_reference(self, seed):
        rng = np.random.default_rng(seed)
        ci, co = rng.integers(1, 6, size=2)
        k = int(rng.choice([1, 3, 5]))
        stride = int(rng.choice([1, 2]))
        h = int(rng.integers(k, 9))
        desc = LayerDescriptor(LayerType.CONV, int(ci), int(co), k, stride, 1, h, h)
        w = rng.standard_normal((int(co), int(ci), k, k), dtype=np.float32)
        x = rng.standard_normal((2, int(ci), h, h), dtype=np.float32)
        got = _nchw(HybridLayer(desc, w), x)
        ref = ref_conv_same(x.astype(np.float64), w.astype(np.float64), stride)
        np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("seed", range(6))
    def test_adder_matches_loop_reference(self, seed):
        rng = np.random.default_rng(100 + seed)
        ci, co = rng.integers(1, 6, size=2)
        k = int(rng.choice([1, 3]))
        stride = int(rng.choice([1, 2]))
        h = int(rng.integers(k, 8))
        desc = LayerDescriptor(LayerType.ADDER, int(ci), int(co), k, stride, 1, h, h)
        w = rng.standard_normal((int(co), int(ci), k, k), dtype=np.float32)
        x = rng.standard_normal((2, int(ci), h, h), dtype=np.float32)
        got = _nchw(HybridLayer(desc, w), x)
        ref = ref_adder_same(x.astype(np.float64), w.astype(np.float64), stride)
        np.testing.assert_allclose(got, ref, rtol=1e-4, atol=1e-4)

    def test_depthwise_conv_matches_grouped_loop(self):
        rng = np.random.default_rng(7)
        c, k, h = 5, 3, 6
        desc = LayerDescriptor(LayerType.CONV, c, c, k, 2, c, h, h)
        w = rng.standard_normal((c, 1, k, k), dtype=np.float32)
        x = rng.standard_normal((2, c, h, h), dtype=np.float32)
        got = _nchw(HybridLayer(desc, w), x)
        for ch in range(c):
            ref = ref_conv_same(
                x[:, ch : ch + 1].astype(np.float64), w[ch : ch + 1].astype(np.float64), 2
            )
            np.testing.assert_allclose(got[:, ch : ch + 1], ref, rtol=1e-5, atol=1e-5)

    def test_depthwise_adder_matches_grouped_loop(self):
        rng = np.random.default_rng(8)
        c, k, h = 4, 3, 5
        desc = LayerDescriptor(LayerType.ADDER, c, c, k, 1, c, h, h)
        w = rng.standard_normal((c, 1, k, k), dtype=np.float32)
        x = rng.standard_normal((2, c, h, h), dtype=np.float32)
        got = _nchw(HybridLayer(desc, w), x)
        for ch in range(c):
            ref = ref_adder_same(
                x[:, ch : ch + 1].astype(np.float64), w[ch : ch + 1].astype(np.float64), 1
            )
            np.testing.assert_allclose(got[:, ch : ch + 1], ref, rtol=1e-4, atol=1e-4)

    def test_adder_output_nonpositive(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            ci = int(rng.integers(1, 8))
            co = int(rng.integers(1, 8))
            k = int(rng.choice([1, 3]))
            h = int(rng.integers(k, 8))
            desc = LayerDescriptor(LayerType.ADDER, ci, co, k, 1, 1, h, h)
            w = rng.standard_normal((co, ci, k, k), dtype=np.float32)
            x = rng.standard_normal((2, ci, h, h), dtype=np.float32)
            assert np.all(_nchw(HybridLayer(desc, w), x) <= 0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kernel, stride", [(1, 1), (3, 1), (3, 2)])
    def test_adder_rows_across_blocks_bit_identical(self, kernel, stride, dtype):
        # 5 x 13 x 13 = 845 output rows: one full block of cdist rows and a
        # partial one.
        rng = np.random.default_rng(11)
        desc = LayerDescriptor(LayerType.ADDER, 6, 7, kernel, stride, 1, 13 * stride, 13 * stride)
        layer = HybridLayer(desc, rng.standard_normal((7, 6, kernel, kernel), dtype=np.float32))
        x = rng.standard_normal((5, 13 * stride, 13 * stride, 6)).astype(dtype)
        rows = 5 * desc.out_h * desc.out_w
        assert rows > nn.ADDER_ROW_BLOCK and rows % nn.ADDER_ROW_BLOCK
        got, ref = layer.forward(x), ref_layer_forward(layer, x)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)
        assert _layout(got) == _layout(ref)

    @pytest.mark.parametrize("call", ["adder_pw", "batch_norm"])
    def test_peak_below_one_and_a_half_activations(self, call):
        # The dense adder holds one block of float64 distances beside its
        # output, and batch norm overwrites its input and squares its
        # residuals a block of samples at a time: neither holds a second
        # activation-sized array.
        rng = np.random.default_rng(0)
        if call == "adder_pw":
            desc = LayerDescriptor(LayerType.ADDER, 16, 96, 1, 1, 1, 32, 32)
            layer = HybridLayer(desc, rng.standard_normal((96, 16, 1, 1), dtype=np.float32))
            x = rng.standard_normal((16, 32, 32, 16), dtype=np.float32)
            run, nbytes = (lambda: layer.forward(x)), 16 * 32 * 32 * 96 * 4
        else:
            xs = [rng.standard_normal((16, 16, 16, 96), dtype=np.float32) for _ in range(2)]
            run, nbytes = (lambda: nn._batch_norm(xs.pop(), None)), xs[0].nbytes
        bound = {"adder_pw": 1.5, "batch_norm": 0.25}[call]
        run()  # warm-up: imports scipy
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound * nbytes, (peak, nbytes)

    def test_shape_mismatch(self):
        desc = LayerDescriptor(LayerType.CONV, 3, 4, 3, 1, 1, 8, 8)
        layer = HybridLayer(desc, np.zeros((4, 3, 3, 3), dtype=np.float32))
        with pytest.raises(ShapeMismatch):
            layer.forward(np.zeros((1, 2, 8, 8), dtype=np.float32))


class TestInstantiate:
    def test_deterministic(self):
        space = default_space()
        net = sample_random(space, random.Random(3))
        a = instantiate(net, space, seed=5)
        b = instantiate(net, space, seed=5)
        for la, lb in zip(a.draw_layers(), b.draw_layers()):
            assert np.array_equal(la.weight, lb.weight)

    def test_shift_weights_power_of_two(self):
        space = default_space()
        rng = random.Random(1)
        net = None
        while net is None or not any(g.t is LayerType.SHIFT for g in net.stages):
            net = sample_random(space, rng)
        h = instantiate(net, space, seed=0)
        ref = ref_instantiate(net, space, seed=0)
        seen_shift = False
        for i, layer in enumerate(h.draw_layers()):
            if layer.desc.op_type is LayerType.SHIFT:
                seen_shift = True
                sign, exp = ref.shift_codes[i]
                recon = ref_shift_weight_value(sign, exp)
                assert np.array_equal(layer.weight, recon)
                assert np.all(np.isin(exp, np.arange(-6, 2)))
        assert seen_shift

    def test_feature_weights_equal_the_full_classifier_draw(self):
        # The head is drawn last, so leaving it out changes no feature
        # weight, and the bit-pattern quantizer gives the float64 one's bits.
        space = default_space()
        for seed in range(3):
            net = sample_random(space, random.Random(40 + seed))
            h = instantiate(net, space, seed=seed)
            ref = ref_instantiate(net, space, seed=seed)
            drawn = list(h.draw_layers())
            assert [layer.desc for layer in h.layers] == [layer.desc for layer in ref.layers]
            assert [layer.desc for layer in drawn] == [layer.desc for layer in ref.layers]
            for got, want in zip(drawn, ref.layers):
                assert got.weight.dtype == np.float32
                assert np.array_equal(_bits(got.weight), _bits(want.weight))

    def test_fan_in_variance(self):
        # 3x3 depthwise: fan_in 9, so weight variance should sit near 2/9.
        space = default_space()
        rng = np.random.default_rng(0)
        draws = []
        for seed in range(40):
            net = sample_random(space, random.Random(seed))
            h = instantiate(net, space, seed=seed)
            for layer in h.draw_layers():
                d = layer.desc
                if (d.groups == d.in_channels and d.kernel == 3
                        and d.op_type is not LayerType.SHIFT):
                    draws.append(layer.weight.ravel())
        sample = np.concatenate(draws)
        assert sample.size > 1e5
        assert abs(sample.var() - 2 / 9) < 0.05 * (2 / 9)

    def test_feature_forward_shapes_and_stats(self):
        space = default_space()
        net = sample_random(space, random.Random(12))
        h = instantiate(net, space, seed=1)
        x = np.random.default_rng(2).standard_normal((2, 4, 3, 32, 32), dtype=np.float32)
        stats = []
        out = h.feature_forward(x, stats)
        assert len(out) == 2 and out[0].shape[0] == 4
        n_feature_layers = len(h.layers)
        assert len(stats) == n_feature_layers - 1  # input 0 only, no BN on the last layer
        for var in stats:
            assert var.shape == (4,)
            assert np.all(var >= 0)
        # The statistics live in the caller's list, not on the net, and an
        # input's output does not depend on the inputs beside it.
        again = h.feature_forward(x[1::-1])
        assert np.array_equal(again[0], out[1]) and np.array_equal(again[1], out[0])
        assert np.array_equal(h.feature_forward(x[:1])[0], out[0])
        assert len(stats) == n_feature_layers - 1

    def test_full_forward_classifier_shape(self):
        space = default_space()
        net = sample_random(space, random.Random(13))
        h = instantiate(net, space, seed=1)
        head = ref_instantiate(net, space, seed=1).head
        x = np.random.default_rng(3).standard_normal((2, 3, 32, 32), dtype=np.float32)
        logits = ref_logits(h, head, x)
        assert logits.shape == (2, space.num_classes, 1, 1)

    def test_shared_net_scored_from_threads(self):
        # A net holds no per-call state (each forward draws its own
        # layers, and depthwise adders build their padding table on the
        # drawn layer); a net scored from several threads at once still
        # gives the single-thread score.
        space = default_space()
        base = sample_random(space, random.Random(15))
        net = SubNetwork(base.first_conv_c, tuple(
            StageGene(g.c, g.e, g.k, LayerType.ADDER, g.n) for g in base.stages), base.mbpool_c)
        want = zeroshot.zen_score(instantiate(net, space, seed=2), rng=np.random.default_rng(3))
        shared = instantiate(net, space, seed=2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(zeroshot.zen_score, shared, rng=np.random.default_rng(3))
                           for _ in range(4)]
                got = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == [want] * 4

    def test_scoring_peak_below_half_the_feature_weights(self):
        # Weights are drawn per layer as the forward runs, so scoring never
        # holds a whole network: the largest genome has 31.6 MB of feature
        # weights, and drawing them all up front peaked at 1.44 times that.
        space = default_space()
        net = largest_genome(space)
        expansion = expand_blocks(space, net)
        weight_bytes = 4 * sum(d.weight_count for d in expansion[0][:-NUM_HEAD_LAYERS])
        params = SearchParams()
        zero_shot_scores(net, space, params, expansion)  # imports scipy
        tracemalloc.start()
        try:
            _, zen = zero_shot_scores(net, space, params, expansion)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert zen is not None
        assert peak < 0.5 * weight_bytes, (peak, weight_bytes)

    def test_one_layer_of_weights_alive_at_a_time(self):
        # Three 1x1 conv 1024->1024 layers at resolution 1: the weights
        # (4 MB a layer) dwarf the activations, so a peak near two layers
        # means the previous layer outlived the next draw.
        desc = LayerDescriptor(LayerType.CONV, 1024, 1024, 1, 1, 1, 1, 1)
        net = nn.HybridNet([nn.LayerPlan(desc)] * 3, [], 1, seed=0)
        weight_bytes = 4 * desc.weight_count
        x = np.random.default_rng(0).standard_normal((2, 4, 1024, 1, 1), dtype=np.float32)
        tracemalloc.start()
        try:
            net.feature_forward(x, [])
            _, forward_peak = tracemalloc.get_traced_memory()
            layers = net.draw_layers()
            next(layers)  # dropped at once
            tracemalloc.reset_peak()
            next(layers)
            _, draw_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert forward_peak < 1.5 * weight_bytes, (forward_peak, weight_bytes)
        assert draw_peak < 1.5 * weight_bytes, (draw_peak, weight_bytes)

    def test_wrong_input_shape_raises(self):
        space = default_space()
        net = sample_random(space, random.Random(14))
        h = instantiate(net, space, seed=1)
        with pytest.raises(ShapeMismatch):
            h.feature_forward(np.zeros((2, 2, 3, 16, 16), dtype=np.float32))
        with pytest.raises(ShapeMismatch):
            h.feature_forward(np.zeros((2, 3, 32, 32), dtype=np.float32))


def _layout(a):
    """Strides of the axes that have more than one element: the memory
    layout, which decides the kernels (and so the bits) of the next layer."""
    return tuple(st for n, st in zip(a.shape, a.strides) if n > 1)


class TestForwardParity:
    """The channels-last forward (in-bounds depthwise taps, float64
    batch-norm statistics) against the straightforward formulas in
    ``oracles``: equal bits and equal memory layout for every layer and
    batch-norm output, hence equal Zen scores."""

    GENOMES = 6

    @pytest.fixture(scope="class")
    def genomes(self):
        rng = random.Random(888)
        return [sample_random(default_space(), rng) for _ in range(self.GENOMES)]

    @pytest.fixture(scope="class")
    def nets(self, genomes):
        return [instantiate(g, default_space(), seed=i) for i, g in enumerate(genomes)]

    @pytest.fixture(scope="class")
    def eager(self, genomes):
        # Every weight drawn up front, the classifier head included.
        return [ref_instantiate(g, default_space(), seed=i) for i, g in enumerate(genomes)]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_layer_and_bn_output_bit_identical(self, nets, dtype):
        # Walk each net as HybridNet.feature_forward does, from the
        # channels-last view of the NCHW draw; every layer gets the real
        # output (and layout) of the previous one.
        kinds = set()
        for i, h in enumerate(nets):
            x = np.random.default_rng(i).standard_normal((16, 3, 32, 32)).astype(dtype)
            x = x.transpose(0, 2, 3, 1)
            layers = list(h.draw_layers())
            n = len(layers)
            starts = {b.first_layer: b for b in h.blocks}
            saved = end = None
            stats, ref_stats = [], []
            for idx in range(n):
                blk = starts.get(idx)
                if blk is not None and blk.residual_channels:
                    saved, end = x, blk.first_layer + blk.num_layers - 1
                layer = layers[idx]
                d = layer.desc
                kinds.add((d.op_type, d.groups == 1, d.kernel))
                y = layer.forward(x)
                ref = ref_layer_forward(layer, x)
                assert y.dtype == ref.dtype and np.array_equal(y, ref), (i, idx, d)
                assert _layout(y) == _layout(ref), (i, idx, d)
                x = y
                if idx < n - 1:
                    # The reference first: _batch_norm overwrites y.
                    ref = ref_batch_norm(y, ref_stats)
                    x = nn._batch_norm(y, stats)
                    assert np.array_equal(x, ref) and _layout(x) == _layout(ref), (i, idx)
                    np.maximum(x, 0.0, out=x)
                if idx == end:
                    x = x + saved
                    saved = end = None
            assert all(np.array_equal(a, b.mean(axis=1)) for a, b in zip(stats, ref_stats))
        # Every layer kind of the space ran: conv, shift and adder, each
        # pointwise and depthwise.
        assert {t for t, dense, k in kinds if not dense} == set(LayerType)
        assert {t for t, dense, k in kinds if dense and k == 1} == set(LayerType)

    def test_zen_score_and_logits_bit_identical(self, nets, eager, monkeypatch):
        heads = [e.head for e in eager]
        x = np.random.default_rng(7).standard_normal((2, 3, 32, 32), dtype=np.float32)
        got = [(zeroshot.zen_score(h, rng=np.random.default_rng(i)), ref_logits(h, head, x))
               for i, (h, head) in enumerate(zip(nets, heads))]

        def ref_bn(x, sample_var_sink):
            # The reference's (B, C) statistics, reduced as _batch_norm hands them over.
            stats = []
            y = ref_batch_norm(x, stats)
            if sample_var_sink is not None:
                sample_var_sink.append(stats[0].mean(axis=1))
            return y

        monkeypatch.setattr(HybridLayer, "forward", ref_layer_forward)
        monkeypatch.setattr(nn, "_batch_norm", ref_bn)
        for i, (h, head, (score, logits)) in enumerate(zip(nets, heads, got)):
            assert zeroshot.zen_score(h, rng=np.random.default_rng(i)) == score
            assert np.array_equal(ref_logits(h, head, x), logits)

    @pytest.mark.parametrize("repeats", [1, 2])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_lockstep_zen_equals_two_passes(self, nets, eager, repeats, dtype):
        # One lockstep forward that draws each layer as it runs, against
        # two separate passes per draw over weights all drawn up front, on
        # the float32 inputs and on the float64 ones of the fallback.
        for i, (h, e) in enumerate(zip(nets[:3], eager)):
            draws = zeroshot._draws(h, zeroshot.ZEN_BATCH, repeats, np.random.default_rng(i))
            draws = [(x.astype(dtype), eps.astype(dtype)) for x, eps in draws]
            want = ref_zen_from_draws(e.layers, h.blocks, draws, zeroshot.ZEN_ALPHA)
            assert zeroshot._zen_from_draws(h, draws, zeroshot.ZEN_ALPHA) == want, i

    def test_diverging_net_raises_like_two_passes(self, genomes, monkeypatch):
        # Shift weights of 2**127 overflow the float32 activations.
        monkeypatch.setattr(nn, "SHIFT_P_MIN", 127)
        monkeypatch.setattr(nn, "SHIFT_P_MAX", 127)
        space = default_space()
        g = next(g for g in genomes if any(s.t is LayerType.SHIFT for s in g.stages))
        h = instantiate(g, space, seed=0)
        eager = ref_instantiate(g, space, seed=0, p_min=127, p_max=127).layers
        draws = zeroshot._draws(h, zeroshot.ZEN_BATCH, 1, np.random.default_rng(0))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteScore):
                ref_zen_from_draws(eager, h.blocks, draws, zeroshot.ZEN_ALPHA)
            with pytest.raises(NonFiniteScore):
                zeroshot._zen_from_draws(h, draws, zeroshot.ZEN_ALPHA)
