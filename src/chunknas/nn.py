"""Numpy forward engine for randomly initialized hybrid networks.

Only inference at init time is needed (zero-shot scoring), so a net holds
exactly what the score reads: the feature layers (no classifier head), each
with one float32 weight array, Gaussian for conv/adder and snapped to signed
powers of two for shift. Every layer output runs through per-batch batch
norm (no affine) and ReLU except the last one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .search_space import (
    BlockInfo,
    LayerDescriptor,
    LayerType,
    NUM_HEAD_LAYERS,
    SearchSpace,
    SubNetwork,
    expand_blocks,
)

BN_EPS = 1e-5
SHIFT_P_MIN = -6
SHIFT_P_MAX = 1


class ShapeMismatch(ValueError):
    pass


class NonFiniteScore(ArithmeticError):
    """NaN/Inf appeared in activations; callers treat the candidate as worst."""


# Mantissa field of the smallest float32 >= sqrt(2): from there on log2 of
# the significand 1.m rounds up, so |w| rounds to the next power of two.
_SQRT2_UP = np.float32(math.sqrt(2))
if float(_SQRT2_UP) < math.sqrt(2):
    _SQRT2_UP = np.nextafter(_SQRT2_UP, np.float32(2))
_ROUND_UP_MANTISSA = int(_SQRT2_UP.view(np.uint32)) & 0x7FFFFF


def quantize_shift(w, p_min: int = SHIFT_P_MIN, p_max: int = SHIFT_P_MAX) -> np.ndarray:
    """Power-of-two quantization as float32 values sign(w) * 2**p, with
    p = round(log2|w|) clamped to [p_min, p_max]. Zeros (either sign) map to
    +2**p_min, the most attenuating representable value.

    Integer arithmetic on the float32 bit pattern, exact for every input:
    p is the exponent field minus 127, plus one when the mantissa field
    reaches that of sqrt(2). Subnormals fall below p_min and clamp to it.
    Needs -126 <= p_min <= p_max <= 127.
    """
    w = np.asarray(w, dtype=np.float32)
    flat = w.reshape(-1)
    bits = flat.view(np.uint32) & 0x7FFFFFFF
    # Carries into the exponent field exactly when the mantissa rounds up.
    bits += 0x800000 - _ROUND_UP_MANTISSA
    bits >>= 23
    np.clip(bits, p_min + 127, p_max + 127, out=bits)
    bits <<= 23
    bits |= np.left_shift(flat < 0, 31, dtype=np.uint32)
    return bits.view(np.float32).reshape(w.shape)


def _pad_same(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    b, c, h, w = x.shape
    out_h = -(-h // stride)
    out_w = -(-w // stride)
    pad_h = max((out_h - 1) * stride + kernel - h, 0)
    pad_w = max((out_w - 1) * stride + kernel - w, 0)
    if pad_h == 0 and pad_w == 0:
        return x
    xp = np.zeros((b, c, h + pad_h, w + pad_w), dtype=x.dtype)
    xp[:, :, pad_h // 2 : pad_h // 2 + h, pad_w // 2 : pad_w // 2 + w] = x
    return xp


def _windows(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Sliding windows of the same-padded input as a view: (B, C, OH, OW, k, k)."""
    xp = _pad_same(x, kernel, stride)
    win = np.lib.stride_tricks.sliding_window_view(xp, (kernel, kernel), axis=(2, 3))
    return win[:, :, ::stride, ::stride]


def _cols(x: np.ndarray, kernel: int, stride: int):
    """Dense-layer operand (B, C*k*k, OH*OW). A 1x1 stride-1 layer reads its
    input as is (a view where the layout allows); larger kernels copy the
    windows once."""
    b, c, h, w = x.shape
    if kernel == 1 and stride == 1:
        return x.reshape(b, c, h * w), h, w
    win = _windows(x, kernel, stride)
    oh, ow = win.shape[2:4]
    return win.transpose(0, 1, 4, 5, 2, 3).reshape(b, c * kernel * kernel, oh * ow), oh, ow


@functools.lru_cache(maxsize=64)
def _tap_index(b: int, hp: int, wp: int, oh: int, ow: int, kernel: int, stride: int) -> np.ndarray:
    """Read-only (k*k, B*OH*OW) flat positions into B stacked (Hp, Wp)
    planes: tap (i, j) of output (b, y, x) reads row y*stride + i, column
    x*stride + j of plane b."""
    out = (np.arange(b)[:, None, None] * hp + stride * np.arange(oh)[:, None]) * wp \
        + stride * np.arange(ow)
    tap = np.arange(kernel)[:, None] * wp + np.arange(kernel)
    idx = tap.reshape(-1, 1) + out.reshape(1, -1)
    idx.flags.writeable = False
    return idx


@dataclass
class HybridLayer:
    desc: LayerDescriptor
    weight: np.ndarray              # float32; for shift layers a signed power of two

    def forward(self, x: np.ndarray) -> np.ndarray:
        d = self.desc
        if x.shape[1] != d.in_channels or x.shape[2] != d.in_h or x.shape[3] != d.in_w:
            raise ShapeMismatch(
                f"expected input (B, {d.in_channels}, {d.in_h}, {d.in_w}), got {x.shape}"
            )
        if d.groups == 1:
            if d.op_type is LayerType.ADDER:
                return self._forward_adder_dense(x)
            return self._forward_conv_dense(x)
        if d.groups == d.in_channels and d.out_channels == d.in_channels:
            if d.op_type is LayerType.ADDER:
                return self._forward_adder_dw(x)
            return self._forward_conv_dw(x)
        raise NotImplementedError(f"unsupported groups={d.groups}")

    def _forward_conv_dense(self, x: np.ndarray) -> np.ndarray:
        d = self.desc
        cols, oh, ow = _cols(x, d.kernel, d.stride)
        out = self.weight.reshape(d.out_channels, -1) @ cols
        return out.reshape(x.shape[0], d.out_channels, oh, ow)

    def _forward_conv_dw(self, x: np.ndarray) -> np.ndarray:
        # One (k*k)-tap dot product per channel as a batched matmul over
        # (C, k*k, B*OH*OW) taps, gathered in one indexed take from the
        # padded input laid out (C, B*Hp*Wp). The result stays a
        # (C, B, OH*OW)-major view, strides of size-1 axes included: the next
        # layer's BLAS call sees them.
        d = self.desc
        b, c = x.shape[:2]
        k, oh, ow = d.kernel, d.out_h, d.out_w
        if ow == 1 and (oh == 1 or b == 1):
            # One window column (so Wp == k when k > stride) of one window
            # or one plane, as at OH*OW = 1: the windows reshape to the taps
            # as a strided view, and matmul's own loop over that view sets
            # the bits. A contiguous copy would go to BLAS and round
            # differently.
            win = _windows(x, k, d.stride)
            taps = win.transpose(1, 4, 5, 0, 2, 3).reshape(c, k * k, b * oh * ow)
        else:
            xt = _pad_same(x.transpose(1, 0, 2, 3), k, d.stride)
            idx = _tap_index(b, xt.shape[2], xt.shape[3], oh, ow, k, d.stride)
            taps = np.take(xt.reshape(c, -1), idx, axis=1, mode="clip")
        out = np.matmul(self.weight.reshape(c, 1, k * k), taps)
        return out.reshape(c, b, oh * ow).transpose(1, 0, 2).reshape(b, c, oh, ow)

    def _forward_adder_dense(self, x: np.ndarray) -> np.ndarray:
        # Imported on first use, so runs of the accelerator cost model alone
        # never load scipy; later calls find it in sys.modules. cdist
        # computes on float64 rows; stage them once, straight from the input
        # (or window) layout. The result stays (B, OH*OW, O)-major.
        from scipy.spatial.distance import cdist

        d = self.desc
        cols, oh, ow = _cols(x, d.kernel, d.stride)
        b, k, p = cols.shape
        flat = np.empty((b * p, k), dtype=np.float64)
        np.copyto(flat.reshape(b, p, k), cols.transpose(0, 2, 1))
        dist = cdist(flat, self.weight.reshape(d.out_channels, k), metric="cityblock")
        out = dist.astype(x.dtype)
        np.negative(out, out=out)
        return out.reshape(b, p, d.out_channels).transpose(0, 2, 1).reshape(b, d.out_channels, oh, ow)

    def _forward_adder_dw(self, x: np.ndarray) -> np.ndarray:
        # One indexed take gathers the taps into a contiguous (B*C, k*k, P)
        # array that then holds the tap differences in place, so the tap sum
        # keeps numpy's order (pairwise when P = 1). The weight is float32,
        # so the differences keep the input's dtype.
        d = self.desc
        b, c = x.shape[:2]
        k, oh, ow = d.kernel, d.out_h, d.out_w
        xp = _pad_same(x, k, d.stride)
        hp, wp = xp.shape[2:]
        idx = _tap_index(1, hp, wp, oh, ow, k, d.stride)
        diff = np.take(xp.reshape(b * c, hp * wp), idx, axis=1, mode="clip")
        diff = diff.reshape(b, c, k * k, oh * ow)
        diff -= self.weight.reshape(1, c, k * k, 1)
        np.abs(diff, out=diff)
        out = diff.sum(axis=2)
        np.negative(out, out=out)
        return out.reshape(b, c, oh, ow)


@dataclass
class HybridNet:
    """The feature extractor of a genome: stem and IRB blocks, no head."""

    layers: list[HybridLayer]
    blocks: list[BlockInfo]
    input_resolution: int

    @property
    def in_channels(self) -> int:
        return self.layers[0].desc.in_channels

    def feature_forward(self, x: np.ndarray, bn_stats: list | None = None) -> np.ndarray:
        """Run every layer (the zero-shot extractor); the last output is raw.

        With ``bn_stats`` given, every batch norm appends its per-sample
        spatial variance per channel, pre-normalization, (B, C) float64.
        """
        if x.ndim != 4 or x.shape[1] != self.in_channels \
                or x.shape[2] != self.input_resolution or x.shape[3] != self.input_resolution:
            raise ShapeMismatch(
                f"expected (B, {self.in_channels}, {self.input_resolution}, "
                f"{self.input_resolution}), got {x.shape}"
            )
        if x.dtype not in (np.float32, np.float64):
            x = x.astype(np.float32)
        block_starts = {b.first_layer: b for b in self.blocks}
        residual_stack: BlockInfo | None = None
        saved = None
        last = len(self.layers) - 1
        for idx, layer in enumerate(self.layers):
            blk = block_starts.get(idx)
            if blk is not None and blk.residual_channels:
                residual_stack = blk
                saved = x
            x = layer.forward(x)
            if idx != last:
                # _batch_norm returns a fresh array, so ReLU may run in place.
                x = _batch_norm(x, bn_stats)
                np.maximum(x, 0.0, out=x)
            if residual_stack is not None and idx == residual_stack.first_layer + residual_stack.num_layers - 1:
                # Not in place: with operands of two layouts the sum comes out
                # C-ordered, and the next layer's bits depend on the layout.
                x = x + saved
                residual_stack = None
                saved = None
        if not np.all(np.isfinite(x)):
            raise NonFiniteScore("non-finite activations")
        return x


def _batch_norm(x: np.ndarray, sample_var_sink: list | None) -> np.ndarray:
    """Batch statistics, no affine. The centred copy is made once, serves
    the variance and is normalized in place (the same operations, in the
    same order, as ``x.var``)."""
    d = x - x.mean(axis=(0, 2, 3), keepdims=True)
    var = np.square(d).mean(axis=(0, 2, 3), keepdims=True)
    if sample_var_sink is not None:
        # Per-sample spatial variance per channel, pre-normalization: (B, C).
        sample_var_sink.append(x.var(axis=(2, 3)).astype(np.float64))
    d /= np.sqrt(var + BN_EPS)
    return d


def instantiate(
    net: SubNetwork,
    space: SearchSpace,
    seed: int,
    p_min: int = SHIFT_P_MIN,
    p_max: int = SHIFT_P_MAX,
) -> HybridNet:
    """Expand a genome and draw He-style N(0, 2/fan_in) weights for its
    feature layers; shift-layer weights are then snapped to signed powers of
    two. The classifier head, which the expansion lists last, is not drawn,
    so the feature weights equal those of a draw that includes it."""
    layers_desc, blocks = expand_blocks(space, net)
    rng = np.random.default_rng(seed)
    layers = []
    for d in layers_desc[:-NUM_HEAD_LAYERS]:
        fan_in = (d.in_channels // d.groups) * d.kernel ** 2
        shape = (d.out_channels, d.in_channels // d.groups, d.kernel, d.kernel)
        w = rng.standard_normal(shape, dtype=np.float32)
        w *= np.float32(np.sqrt(2.0 / fan_in))
        if d.op_type is LayerType.SHIFT:
            w = quantize_shift(w, p_min, p_max)
        layers.append(HybridLayer(d, w))
    return HybridNet(layers=layers, blocks=blocks, input_resolution=space.input_resolution)
