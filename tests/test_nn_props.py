"""Property tests of the forward against the straightforward formulas in
``oracles``. On random shapes, strides, kernels, dtypes and input layouts,
the in-bounds tap loop of every depthwise layer kind (conv, shift, adder)
gives the same bits and the same memory layout as the zero-padded
formulas; shapes with a single output position (OH*OW = 1), where most taps
read padding, are always among the examples. On random batches, batch norm
squared a block of samples at a time gives the same bits as the reference,
in its output and in its per-sample statistics."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from chunknas import nn
from chunknas.nn import HybridLayer, quantize_shift
from chunknas.search_space import LayerDescriptor, LayerType
from oracles import ref_batch_norm, ref_layer_forward


def _layout(a):
    return tuple(st for n, st in zip(a.shape, a.strides) if n > 1)


@settings(max_examples=120)
@given(
    kind=st.sampled_from(list(LayerType)),
    batch=st.integers(1, 16),
    channels=st.sampled_from([1, 2, 3, 8, 24, 96]),
    height=st.integers(1, 16),
    width=st.integers(1, 16),
    kernel=st.sampled_from([3, 5, 7]),
    stride=st.sampled_from([1, 2]),
    dtype=st.sampled_from([np.float32, np.float64]),
    nchw_memory=st.booleans(),
    seed=st.integers(0, 2 ** 16),
)
# OH*OW = 1: one window covers the whole padded input.
@example(kind=LayerType.CONV, batch=16, channels=96, height=2, width=2, kernel=3, stride=2,
         dtype=np.float32, nchw_memory=False, seed=0)
@example(kind=LayerType.SHIFT, batch=16, channels=24, height=1, width=1, kernel=5, stride=1,
         dtype=np.float64, nchw_memory=True, seed=1)
@example(kind=LayerType.ADDER, batch=16, channels=96, height=2, width=1, kernel=7, stride=2,
         dtype=np.float32, nchw_memory=False, seed=2)
def test_depthwise_forward_matches_reference(kind, batch, channels, height, width, kernel,
                                             stride, dtype, nchw_memory, seed):
    rng = np.random.default_rng(seed)
    desc = LayerDescriptor(kind, channels, channels, kernel, stride, channels, height, width)
    w = rng.standard_normal((channels, 1, kernel, kernel), dtype=np.float32)
    if kind is LayerType.SHIFT:
        w = quantize_shift(w)
    layer = HybridLayer(desc, w)
    x = rng.standard_normal((batch, height, width, channels)).astype(dtype)
    if nchw_memory:
        # The channels-last view of an NCHW array that feature_forward
        # hands its first layer.
        x = np.ascontiguousarray(x.transpose(0, 3, 1, 2)).transpose(0, 2, 3, 1)
    got = layer.forward(x)
    want = ref_layer_forward(layer, x)
    assert got.shape == want.shape == (batch, desc.out_h, desc.out_w, channels)
    assert got.dtype == want.dtype
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()
    assert _layout(got) == _layout(want)


@settings(max_examples=80)
@given(
    batch=st.integers(1, 9),
    height=st.integers(1, 32),
    width=st.integers(1, 32),
    channels=st.sampled_from([1, 3, 8, 24, 72, 96]),
    dtype=st.sampled_from([np.float32, np.float64]),
    offset=st.sampled_from([0.0, -40.0]),
    seed=st.integers(0, 2 ** 16),
)
# Samples of 16*16*96 = 24576 elements, two to a block of 2**16: the last
# block of an odd batch holds one sample.
@example(batch=5, height=16, width=16, channels=96, dtype=np.float32, offset=0.0, seed=0)
# One sample fills a block exactly.
@example(batch=3, height=32, width=32, channels=64, dtype=np.float64, offset=-40.0, seed=1)
# A sample larger than a block: one sample at a time.
@example(batch=4, height=32, width=32, channels=72, dtype=np.float32, offset=-40.0, seed=2)
def test_batch_norm_matches_reference(batch, height, width, channels, dtype, offset, seed):
    x = np.random.default_rng(seed).standard_normal((batch, height, width, channels)).astype(dtype)
    x += dtype(offset)  # adder outputs: a large mean, a small spread
    ref_stats, stats = [], []
    want = ref_batch_norm(x, ref_stats)
    got = nn._batch_norm(x, stats)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == np.ascontiguousarray(want).tobytes()
    assert stats[0].shape == (batch,) and stats[0].dtype == np.float64
    assert stats[0].tobytes() == ref_stats[0].mean(axis=1).tobytes()
