"""Numpy forward engine for randomly initialized hybrid networks.

Only inference at init time is needed (zero-shot scoring), so a net is a
plan of its feature layers (no classifier head) and holds no weights.
``feature_forward`` runs all its inputs in lockstep, layer by layer: it
draws each layer's float32 weights just before the layer runs (Gaussian for
conv/adder, snapped to signed powers of two for shift), applies them to
every input and drops them as the next layer is drawn, so a layer runs with
only its own weights alive. The draws come from one generator in layer
order, so every forward of a net sees the same weights. Every layer output runs through per-batch batch
norm (no affine) and ReLU except the last one.

Activations are channels-last, (B, H, W, C): ``feature_forward`` transposes
its NCHW inputs once. A pointwise conv or shift layer is one product per
sample with the drawn weight, written straight into the channels-last
output; an adder layer takes the L1 distances of its (B*H*W, C) rows to the
weight rows in blocks of ``ADDER_ROW_BLOCK`` rows, each negated straight
into the output. The distances come from scipy's compiled cityblock kernel,
the one ``cdist(..., "cityblock")`` calls, loaded from its extension file
at the first adder forward: importing ``scipy.spatial`` instead would load
scipy.linalg, scipy.sparse and a second BLAS, 38 MB against 0.6 MB. A
depthwise layer adds its taps one by one where they read the input; padding
adds nothing to conv and shift, and a per-layer table of sum |w| to the
adder. Batch norm works in place on the fresh layer output, so a layer holds
one activation-sized array; it keeps float32 arrays but takes float64
statistics, without which float32 Zen scores strayed from float64 ones by
up to 45.6."""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import itertools
import math
import os
import threading
from dataclasses import dataclass
from typing import Iterator

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
# Rows per cityblock call of a dense adder layer: its float64 working set is
# one block of distances, ADDER_ROW_BLOCK x out_channels, beside the output.
ADDER_ROW_BLOCK = 512


# scipy's compiled cityblock cdist, loaded at the first adder forward.
_cityblock = None
_cityblock_lock = threading.Lock()


def _load_cityblock():
    """The cityblock kernel, loaded once even when the first adder forwards
    of several pool threads ask for it at once."""
    global _cityblock
    with _cityblock_lock:
        if _cityblock is None:
            module = _distance_extension()
            _cityblock = getattr(module, "cdist_cityblock", None) or _public_cityblock()
    return _cityblock


def _distance_extension():
    """scipy's ``spatial._distance_pybind`` extension, executed from its file
    without running ``scipy/__init__.py`` or ``scipy/spatial/__init__.py``
    and without an entry in ``sys.modules``; None if it is not there."""
    scipy_spec = importlib.util.find_spec("scipy")
    for root in (scipy_spec and scipy_spec.submodule_search_locations) or ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "spatial", "_distance_pybind" + suffix)
            if not os.path.isfile(path):
                continue
            spec = importlib.util.spec_from_file_location("scipy.spatial._distance_pybind", path)
            try:
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
            except ImportError:
                return None
            return module
    return None


def _public_cityblock():
    """Fallback for a scipy without the private extension: the public cdist,
    which dispatches to the same kernel where there is one."""
    from scipy.spatial.distance import cdist

    return functools.partial(cdist, metric="cityblock")


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


def _spans(d: LayerDescriptor) -> list:
    """Per kernel offset along H, then W: the output slice whose same-padded
    reads land inside the input and the input slice they read, or None."""
    axes = []
    for n_in, n_out in ((d.in_h, d.out_h), (d.in_w, d.out_w)):
        pad = max((n_out - 1) * d.stride + d.kernel - n_in, 0) // 2
        spans = []
        for i in range(d.kernel):
            lo = max(0, -(-(pad - i) // d.stride))
            hi = min(n_out, (n_in - 1 + pad - i) // d.stride + 1)
            start = lo * d.stride + i - pad
            spans.append((slice(lo, hi), slice(start, start + (hi - lo - 1) * d.stride + 1, d.stride))
                         if hi > lo else None)
        axes.append(spans)
    return axes


def _rows(x: np.ndarray, kernel: int, stride: int):
    """Dense-layer operand: one row per output position, (B*OH*OW, C*k*k)
    in the weight's (C, k, k) order; the input itself for 1x1 stride 1, else
    one copy of the same-padded windows."""
    b, h, w, c = x.shape
    if kernel == 1 and stride == 1:
        return x.reshape(b * h * w, c), h, w
    out_h, out_w = -(-h // stride), -(-w // stride)
    pad_h = max((out_h - 1) * stride + kernel - h, 0)
    pad_w = max((out_w - 1) * stride + kernel - w, 0)
    xp = np.zeros((b, h + pad_h, w + pad_w, c), dtype=x.dtype)
    xp[:, pad_h // 2 : pad_h // 2 + h, pad_w // 2 : pad_w // 2 + w] = x
    win = np.lib.stride_tricks.sliding_window_view(xp, (kernel, kernel), axis=(1, 2))
    return win[:, ::stride, ::stride].reshape(b * out_h * out_w, c * kernel * kernel), out_h, out_w


@dataclass
class HybridLayer:
    desc: LayerDescriptor
    weight: np.ndarray              # float32; for shift layers a signed power of two

    def forward(self, x: np.ndarray) -> np.ndarray:
        """The layer on a channels-last batch (B, H, W, C_in); the result is
        a fresh C-contiguous (B, OH, OW, C_out) array."""
        d = self.desc
        if x.shape[1:] != (d.in_h, d.in_w, d.in_channels):
            raise ShapeMismatch(
                f"expected input (B, {d.in_h}, {d.in_w}, {d.in_channels}), got {x.shape}"
            )
        if d.groups == 1:
            return self._forward_dense(x)
        if d.groups == d.in_channels and d.out_channels == d.in_channels:
            return self._forward_dw(x)
        raise NotImplementedError(f"unsupported groups={d.groups}")

    def _forward_dense(self, x: np.ndarray) -> np.ndarray:
        # Conv, shift: W times each sample's rows, transposed, into a
        # transposed output view (one tall, thin product of all rows is slow
        # under multithreaded BLAS in a thread pool). Adder: scipy's
        # cityblock kernel, loaded on first use so accelerator-only runs
        # load no scipy code, on one block of rows at a time against the
        # float64 weight. The kernel converts the rows to float64 itself,
        # as under cdist, and each block's negation is rounded straight
        # into the output. Rows are independent and rounding is symmetric
        # in sign, so the bits equal those of one cdist of all rows,
        # negated after the cast.
        b, o = x.shape[0], self.desc.out_channels
        rows, oh, ow = _rows(x, self.desc.kernel, self.desc.stride)
        w = self.weight.reshape(o, -1)
        if self.desc.op_type is LayerType.ADDER:
            cityblock = _cityblock or _load_cityblock()
            w = w.astype(np.float64)
            out = np.empty((rows.shape[0], o), dtype=x.dtype)
            for i in range(0, rows.shape[0], ADDER_ROW_BLOCK):
                np.negative(cityblock(rows[i:i + ADDER_ROW_BLOCK], w),
                            out=out[i:i + ADDER_ROW_BLOCK], casting="same_kind")
        else:
            out = np.empty((b, oh * ow, o), dtype=np.result_type(x, w))
            np.matmul(w, rows.reshape(b, oh * ow, -1).transpose(0, 2, 1), out=out.transpose(0, 2, 1))
        return out.reshape(b, oh, ow, o)

    def _forward_dw(self, x: np.ndarray) -> np.ndarray:
        # Tap by tap in kernel order, each tap adds its input view times the
        # tap's C weights (adder: |view - w|) into the output positions that
        # read the input; the inner axis is C. Padded reads add nothing to
        # conv and shift; for the adder the output starts from their sum.
        d = self.desc
        tap_w = np.ascontiguousarray(self.weight.reshape(d.out_channels, -1).T)
        out = np.empty((x.shape[0], d.out_h, d.out_w, d.out_channels), np.result_type(x, tap_w))
        tmp = np.empty_like(out)
        adder = d.op_type is LayerType.ADDER
        out[...] = self._padding_l1 if adder else 0
        for tap, (r, s) in enumerate(itertools.product(*_spans(d))):
            if r is None or s is None:
                continue
            v, t = x[:, r[1], s[1]], tmp[:, r[0], s[0]]
            if adder:
                np.abs(np.subtract(v, tap_w[tap], out=t), out=t)
            else:
                np.multiply(v, tap_w[tap], out=t)
            out[:, r[0], s[0]] += t
        if adder:
            np.negative(out, out=out)
        return out

    @functools.cached_property
    def _padding_l1(self) -> np.ndarray:
        """Depthwise adder: per output position and channel, the sum of |w|
        over the taps that read zero padding, (OH, OW, C) float64, added tap
        by tap in kernel order."""
        d = self.desc
        absw = np.abs(self.weight.reshape(d.out_channels, -1).T.astype(np.float64))
        table = np.zeros((d.out_h, d.out_w, d.out_channels))
        for tap, (r, s) in enumerate(itertools.product(*_spans(d))):
            padded = np.ones((d.out_h, d.out_w), dtype=bool)
            if r is not None and s is not None:
                padded[r[0], s[0]] = False
            table[padded] += absw[tap]
        return table


@dataclass(frozen=True)
class LayerPlan:
    """A feature layer before its draw; ``desc`` as on a drawn HybridLayer."""

    desc: LayerDescriptor


@dataclass(frozen=True)
class HybridNet:
    """The feature extractor of a genome (stem and IRB blocks, no head) as a
    plan: the layers, the residual blocks, and the seed its weights are
    drawn with. It holds no weights and no per-call state."""

    layers: list[LayerPlan]
    blocks: list[BlockInfo]
    input_resolution: int
    seed: int

    @property
    def in_channels(self) -> int:
        return self.layers[0].desc.in_channels

    def draw_layers(self) -> Iterator[HybridLayer]:
        """The layers with their weights, drawn one at a time in forward
        order from ``default_rng(seed)``: He-style N(0, 2/fan_in), and shift
        weights then snapped to signed powers of two."""
        rng = np.random.default_rng(self.seed)
        for layer in self.layers:
            d = layer.desc
            fan_in = (d.in_channels // d.groups) * d.kernel ** 2
            shape = (d.out_channels, d.in_channels // d.groups, d.kernel, d.kernel)
            w = rng.standard_normal(shape, dtype=np.float32)
            w *= np.float32(np.sqrt(2.0 / fan_in))
            if d.op_type is LayerType.SHIFT:
                w = quantize_shift(w, SHIFT_P_MIN, SHIFT_P_MAX)
            yield HybridLayer(d, w)

    def feature_forward(self, x: np.ndarray, bn_stats: list | None = None) -> list[np.ndarray]:
        """Run every layer (the zero-shot extractor) on N NCHW batches in
        lockstep, ``x`` of shape (N, B, C, H, W): each layer is drawn, run on
        every input, and dropped when the next one is drawn. Each input keeps
        its own arrays, batch norm and residual sums, so its output, the last
        raw layer output channels-last (B, OH, OW, C), equals that of a
        forward on it alone. With ``bn_stats`` given, input 0's batch norms
        append their per-sample spatial variance per channel,
        pre-normalization, (B, C) float64."""
        res = self.input_resolution
        if x.ndim != 5 or x.shape[2:] != (self.in_channels, res, res):
            raise ShapeMismatch(
                f"expected (N, B, {self.in_channels}, {res}, {res}), got {x.shape}"
            )
        if x.dtype not in (np.float32, np.float64):
            x = x.astype(np.float32)
        xs = [a.transpose(0, 2, 3, 1) for a in x]
        block_starts = {b.first_layer: b for b in self.blocks}
        saved = end = None
        last = len(self.layers) - 1
        for idx, layer in enumerate(self.draw_layers()):
            blk = block_starts.get(idx)
            if blk is not None and blk.residual_channels:
                saved, end = list(xs), blk.first_layer + blk.num_layers - 1
            for i in range(len(xs)):
                # Each slot is rebound as soon as its array has been read.
                xs[i] = layer.forward(xs[i])
                if idx != last:
                    # The layer output is fresh: batch norm and ReLU overwrite it.
                    xs[i] = _batch_norm(xs[i], bn_stats if i == 0 else None)
                    np.maximum(xs[i], 0.0, out=xs[i])
            if idx == end:
                for a, s in zip(xs, saved):
                    a += s
                saved = end = None
        if not all(np.all(np.isfinite(a)) for a in xs):
            raise NonFiniteScore("non-finite activations")
        return xs


def _batch_norm(x: np.ndarray, sample_var_sink: list | None) -> np.ndarray:
    """Batch statistics, no affine, of a contiguous channels-last array,
    normalised in place: callers pass a fresh layer output and get it back
    overwritten. Each sample's spatial rows, then the batch, are reduced
    into float64 means and variances; arrays stay in x's dtype. x - m_b (m_b
    rounded to that dtype) gives the per-sample variances and becomes the
    output ((x - m_b) + (m_b - m)) / sqrt(var + eps), so a large mean (adder
    outputs) is subtracted once, from values close to it."""
    b, c = x.shape[0], x.shape[-1]
    d = x.reshape(b, -1, c)
    n = d.shape[1]
    # ndarray.mean's arithmetic without its Python overhead (small maps).
    sample_mean = np.add.reduce(d, axis=1, dtype=np.float64) / n
    centre = sample_mean.astype(x.dtype)
    d -= centre[:, None]
    sample_var = np.add.reduce(np.square(d), axis=1, dtype=np.float64) / n
    mean = np.add.reduce(sample_mean) / b
    var = np.add.reduce(sample_var + np.square(sample_mean - mean)) / b
    if sample_var_sink is not None:
        # Per-sample spatial variance per channel, pre-normalization: (B, C).
        sample_var_sink.append(sample_var)
    d += (centre - mean).astype(x.dtype)[:, None]
    d /= np.sqrt(var + BN_EPS).astype(x.dtype)
    return d.reshape(x.shape)


def instantiate(
    net: SubNetwork,
    space: SearchSpace,
    seed: int,
    expansion: tuple[list[LayerDescriptor], list[BlockInfo]] | None = None,
) -> HybridNet:
    """The scoring plan of a genome's feature layers; ``feature_forward``
    draws their weights from ``seed``. ``expansion`` is the genome's
    ``expand_blocks`` result when the caller has it already. The classifier
    head, which the expansion lists last, is left out, so the feature
    weights equal those of a draw that includes it."""
    layers_desc, blocks = expansion or expand_blocks(space, net)
    return HybridNet([LayerPlan(d) for d in layers_desc[:-NUM_HEAD_LAYERS]], blocks,
                     space.input_resolution, seed)
