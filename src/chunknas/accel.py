"""Analytical cost model of the three-chunk accelerator.

Each chunk (conv / shift / adder) is a PE array fed from a shared global
buffer; a layer's cycle count is max(compute, memory) under double buffering.
Compute cycles follow the tiled-loop model: number of tiles times
ceil(tile work / PE count). Memory cycles charge DRAM traffic under the
stationary-operand reuse rule of the chosen loop order.

One kernel prices a layer (``_layer_terms``), for the dataflow sweep and
for a chunk priced at one dataflow (``_dataflow_table``: the hand-dataflow
table, ``layer_latency``, ``pipeline_perf`` and ``min_gb_size``). Every
term of the loop nest is a product of a channel factor, over the
(t_cin, t_cout) tile pairs, and a spatial factor, over the (t_h, t_w)
pairs: tile counts and MACs per tile are int64 outer products, and each
loop order's traffic and the working set are sums of three channel-row
times spatial-row products, so the four orders' traffic is one stacked
(4, channel pairs, 3) @ (4, 3, spatial pairs) product. The product is
exact: every term is an integer, or an integer times ``bits / 8``, so each
value is a multiple of 1/8 far below 2**50 (the stock space's largest is
about 2**22), and float64 computes it exactly under any association,
BLAS's included. The division by the bandwidth and the ceiling then see
the same values as a term-by-term formula.

The sweep reads both factors on the layer's own ladders from two
unbounded caches, keyed by what each depends on: (ci, co, kernel, dense,
weight bytes) and (h, w, stride, kernel, activation bytes, output bytes).
2,560 random stock genomes hold 384 channel keys (1.6 MB) and 47 spatial
keys (0.03 MB). A cached factor is one read-only block, shared by every
thread that sweeps.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple, Sequence

import numpy as np

from .search_space import (FINITE, NONNEG_INT, POS_FINITE, POS_INT, LayerDescriptor, LayerType,
                           OpCounts, check_fields, count_ops, declare, dump_fields, load_fields)

BRAM_BITS = 36864  # one 36 Kb block

LUT_PER_PE = {LayerType.CONV: 37, LayerType.SHIFT: 34, LayerType.ADDER: 29}
DSP_PER_CONV_PE = 0.5  # two 8-bit multiplications packed per DSP


class TileExceedsBuffer(ValueError):
    pass


class InfeasibleBudget(ValueError):
    pass


class SingularSystem(ValueError):
    pass


class LoopOrder(IntEnum):
    """Canonical ordering doubles as the tie-break preference."""

    WS = 0  # weights resident per tile
    OS = 1  # output tile accumulated in place
    IS = 2  # input tile resident
    RS = 3  # filter rows resident, input rows slide


@dataclass(frozen=True)
class Dataflow:
    loop_order: LoopOrder
    tiling: tuple[int, int, int, int, int]  # (t_n, t_cin, t_cout, t_h, t_w)

    def __post_init__(self):
        t = tuple(int(v) for v in self.tiling)
        if len(t) != 5 or min(t) < 1:
            raise ValueError(f"tiling must be five positive ints, got {self.tiling}")
        object.__setattr__(self, "tiling", t)


# The dataflow of a chunk with no layers to map.
EMPTY_CHUNK_DATAFLOW = Dataflow(LoopOrder.WS, (1, 1, 1, 1, 1))


@dataclass(frozen=True)
class ChunkConfig:
    chunk_kind: LayerType
    pe_count: int
    dataflow: Dataflow

    def __post_init__(self):
        if self.pe_count < 1:
            raise ValueError("pe_count must be >= 1")


@dataclass(frozen=True)
class AcceleratorConfig:
    chunk_c: ChunkConfig
    chunk_s: ChunkConfig
    chunk_a: ChunkConfig
    gb_bytes: int

    def assert_fits(self, budget: "HardwareBudget") -> None:
        dsp, lut, _ = resource_usage(self, budget.lut_overhead)
        if dsp > budget.dsp_total:
            raise InfeasibleBudget(f"{dsp} DSP exceeds the {budget.dsp_total} available")
        if lut > budget.lut_total:
            raise InfeasibleBudget(f"{lut} LUT exceeds the {budget.lut_total} available")
        if self.gb_bytes > budget.gb_bytes_max:
            raise InfeasibleBudget(
                f"{self.gb_bytes} B buffer exceeds the {budget.gb_bytes_max} B of block RAM"
            )

    def chunk_for(self, op_type: LayerType) -> ChunkConfig:
        return {
            LayerType.CONV: self.chunk_c,
            LayerType.SHIFT: self.chunk_s,
            LayerType.ADDER: self.chunk_a,
        }[op_type]

    def chunks(self) -> tuple[ChunkConfig, ChunkConfig, ChunkConfig]:
        return (self.chunk_c, self.chunk_s, self.chunk_a)

    def to_dict(self) -> dict:
        return dump_fields(self)


@dataclass(frozen=True)
class HardwareBudget:
    """Platform resources; defaults model the Kria KV260 at 200 MHz."""

    dsp_total: int = declare(POS_INT, 1248)
    lut_total: int = declare(POS_INT, 117_000)
    bram_bits_total: int = declare(POS_INT, 288 * BRAM_BITS)
    dram_bandwidth: float = declare(POS_FINITE, 8.0, key="dram_bandwidth_bytes_per_cycle")
    frequency_hz: float = declare(POS_FINITE, 200e6)
    act_bits: int = declare(POS_INT, 8)
    conv_w_bits: int = declare(POS_INT, 8)
    shift_w_bits: int = declare(POS_INT, 4)
    adder_w_bits: int = declare(POS_INT, 8)
    conv_out_bits: int = declare(POS_INT, 15)
    shift_out_bits: int = declare(POS_INT, 15)
    adder_out_bits: int = declare(POS_INT, 9)
    # Share of DSPs granted to the conv chunk; out of range it surfaces as
    # InfeasibleBudget, so it only has to be a number.
    dsp_reserve_frac: float = declare(FINITE, 0.437)
    lut_overhead: int = declare(NONNEG_INT, 11_000)  # control/interconnect calibration constant

    def __post_init__(self):
        check_fields(self)

    @property
    def gb_bytes_max(self) -> int:
        return self.bram_bits_total // 8

    @property
    def usable_dsp(self) -> int:
        return int(self.dsp_total * self.dsp_reserve_frac)

    @property
    def conv_pes_by_dsp(self) -> int:
        """Most conv PEs the usable DSPs hold under DSP packing."""
        return int(self.usable_dsp / DSP_PER_CONV_PE)

    @property
    def pe_luts(self) -> int:
        """LUTs left to the PEs of the three chunks after the fixed overhead."""
        return self.lut_total - self.lut_overhead

    def weight_bits(self, op_type: LayerType) -> int:
        return {
            LayerType.CONV: self.conv_w_bits,
            LayerType.SHIFT: self.shift_w_bits,
            LayerType.ADDER: self.adder_w_bits,
        }[op_type]

    def out_bits(self, op_type: LayerType) -> int:
        return {
            LayerType.CONV: self.conv_out_bits,
            LayerType.SHIFT: self.shift_out_bits,
            LayerType.ADDER: self.adder_out_bits,
        }[op_type]

    def to_dict(self) -> dict:
        return dump_fields(self)

    @classmethod
    def from_dict(cls, d: dict) -> "HardwareBudget":
        """Missing keys keep their defaults; an unknown key is a ValueError."""
        return load_fields(cls, d)


@dataclass(frozen=True)
class EnergyCoeffs:
    """mJ per million operations."""

    e_mult: float = declare(POS_FINITE)
    e_shift: float = declare(POS_FINITE)
    e_add: float = declare(POS_FINITE)

    def __post_init__(self):
        check_fields(self, "energy coefficient ")
        if self.e_mult <= self.e_add:
            raise ValueError("a multiplication must cost more than an addition")

    def energy_mj(self, ops: OpCounts) -> float:
        return self.e_mult * ops.mults + self.e_shift * ops.shifts + self.e_add * ops.adds

    def to_dict(self) -> dict:
        return dump_fields(self)

    @classmethod
    def from_dict(cls, d: dict) -> "EnergyCoeffs":
        return load_fields(cls, d)


def fit_energy_coeffs(rows: Sequence[tuple[OpCounts, float]]) -> EnergyCoeffs:
    """Least-squares fit of energy = e_mult*mults + e_shift*shifts + e_add*adds."""
    if len(rows) < 3:
        raise SingularSystem(f"need at least 3 rows, got {len(rows)}")
    a = np.array([[ops.mults, ops.shifts, ops.adds] for ops, _ in rows], dtype=np.float64)
    b = np.array([e for _, e in rows], dtype=np.float64)
    if np.linalg.matrix_rank(a) < 3:
        raise SingularSystem("op-count rows are rank deficient")
    coef, *_ = np.linalg.lstsq(a, b, rcond=None)
    return EnergyCoeffs(float(coef[0]), float(coef[1]), float(coef[2]))


def resource_usage(cfg: AcceleratorConfig, lut_overhead: int = 0) -> tuple[int, int, float]:
    """(dsp, lut, bram_blocks) for a configuration.

    DSP packing halves the conv PE count; LUTs are linear in PE counts plus a
    fixed overhead; BRAM is reported fractionally in 36 Kb blocks.
    """
    dsp = conv_dsp(cfg.chunk_c.pe_count)
    lut = chunk_lut(*(c.pe_count for c in cfg.chunks()), lut_overhead)
    bram_blocks = cfg.gb_bytes * 8 / BRAM_BITS
    return dsp, lut, bram_blocks


def conv_dsp(pe_c: int) -> int:
    """DSPs of a conv chunk of ``pe_c`` PEs under DSP packing."""
    return math.ceil(DSP_PER_CONV_PE * pe_c)


def chunk_lut(pe_c: int, pe_s: int, pe_a: int, lut_overhead: int = 0) -> int:
    return (
        LUT_PER_PE[LayerType.CONV] * pe_c
        + LUT_PER_PE[LayerType.SHIFT] * pe_s
        + LUT_PER_PE[LayerType.ADDER] * pe_a
        + lut_overhead
    )


# ---------------------------------------------------------------------------
# Tiled-loop latency model
# ---------------------------------------------------------------------------


class _ChannelGeom(NamedTuple):
    """What a layer's channel factor depends on."""

    ci: int        # reduction channels (in_channels / groups)
    co: int
    kernel: int
    dense: bool    # groups == 1
    w_bytes: float


class _SpatialGeom(NamedTuple):
    """What a layer's spatial factor depends on."""

    h: int         # output rows
    w: int
    stride: int
    kernel: int
    act_bytes: float
    out_bytes: float


class _LayerGeom(NamedTuple):
    """Static per-layer quantities used by the latency model."""

    channel: _ChannelGeom
    spatial: _SpatialGeom


def _kind_bytes(kind: LayerType, budget: HardwareBudget) -> tuple[float, float, float]:
    """Bytes per weight, activation and output of a layer of ``kind``."""
    return budget.weight_bits(kind) / 8, budget.act_bits / 8, budget.out_bits(kind) / 8


def _geom(layer: LayerDescriptor, w_bytes: float, act_bytes: float, out_bytes: float) -> _LayerGeom:
    return _LayerGeom(
        _ChannelGeom(layer.in_channels // layer.groups, layer.out_channels, layer.kernel,
                     layer.groups == 1, w_bytes),
        _SpatialGeom(layer.out_h, layer.out_w, layer.stride, layer.kernel, act_bytes, out_bytes),
    )


class _Factor(NamedTuple):
    """One half of a layer's cost over the tile pairs of one half of the
    tiling, (t_cin, t_cout) or (t_h, t_w), flattened row-major from
    ``shape``: the tile count and the work per tile along the half (int64),
    and the float64 ``rows`` whose products make the traffic and the
    working set (``_CHANNEL_ROWS``, ``_SPATIAL_ROWS``). All three are views
    of one block."""

    counts: np.ndarray
    work: np.ndarray
    rows: np.ndarray
    shape: tuple[int, int]


def _factor_block(n_rows: int, shape: tuple[int, int]):
    """An int64 block for a factor over ``shape``: tile counts, work, and
    ``n_rows`` float64 rows, all on the tile-pair grid."""
    block = np.empty((2 + n_rows, *shape), dtype=np.int64)
    return block, block[0], block[1], block[2:].view(np.float64)


def _factor(block: np.ndarray) -> _Factor:
    """The filled ``block`` made read-only, as a factor of flat views."""
    block.flags.writeable = False
    flat = block.reshape(len(block), -1)
    return _Factor(flat[0], flat[1], flat[2:].view(np.float64), block.shape[1:])


# Rows of a channel factor, with n_c = n_ci * n_co channel tile pairs, wt
# the weight tile bytes, and in_ch, n_in the input tile's channels and
# their tile count (t_cin, n_ci dense; t_cout, n_co depthwise):
#   0 n_c * wt   1 n_c * in_ch   2 n_c * t_cout   3 n_co * t_cout
#   4 n_in * in_ch   5 2 in_ch   6 2 wt   7 2 t_cout
# Rows of a spatial factor, with n_s = n_h * n_w spatial tiles, halo the
# input tile's rows times columns times act_bytes, and ot the output tile
# bytes per output channel:
#   0 n_s   1 n_s * halo   2 n_s * ot   3 halo   4 1   5 ot
# A loop order's DRAM traffic is the sum over j of channel row C[j] times
# spatial row S[j], in LoopOrder order:
#   WS weights once per channel pair, input and output once per tile;
#   OS outputs once per output tile, input and weights once per tile;
#   IS inputs once per input tile, weights and output once per tile;
#   RS weights once per channel pair, inputs once per input tile, output
#   once per tile.
_CHANNEL_ROWS = np.array([[0, 1, 2], [3, 1, 0], [4, 0, 2], [0, 4, 2]])
_SPATIAL_ROWS = np.array([[4, 1, 2], [2, 1, 0], [1, 0, 2], [4, 1, 2]])
# The double-buffered working set, 2 (input + weight + output bytes).
_CHANNEL_WS, _SPATIAL_WS = slice(5, 8), slice(3, 6)


def _channel_factor(g: _ChannelGeom, t_cin: Sequence[int], t_cout: Sequence[int]) -> _Factor:
    """The channel factor of ``g`` over the (t_cin, t_cout) pairs; tiles
    beyond an extent are the caller's to clamp."""
    t_ci = np.asarray(t_cin, dtype=np.int64)[:, None]
    t_co = np.asarray(t_cout, dtype=np.int64)[None, :]
    n_ci, n_co = _ceil_div(g.ci, t_ci), _ceil_div(g.co, t_co)
    in_ch, n_in = (t_ci, n_ci) if g.dense else (t_co, n_co)
    block, counts, work, rows = _factor_block(8, (t_ci.size, t_co.size))
    np.multiply(n_ci, n_co, out=counts)
    np.multiply(t_ci * t_co, g.kernel ** 2, out=work)
    np.multiply(work, g.w_bytes, out=rows[6])
    np.multiply(counts, rows[6], out=rows[0])
    np.multiply(counts, in_ch, out=rows[1])
    np.multiply(counts, t_co, out=rows[2])
    np.multiply(n_co, t_co, out=rows[3])
    np.multiply(n_in, in_ch, out=rows[4])
    rows[5] = in_ch
    rows[7] = t_co
    rows[5:] *= 2.0
    return _factor(block)


def _spatial_factor(g: _SpatialGeom, t_h: Sequence[int], t_w: Sequence[int]) -> _Factor:
    """The spatial factor of ``g`` over the (t_h, t_w) pairs; tiles beyond
    an extent are the caller's to clamp."""
    t_h = np.asarray(t_h, dtype=np.int64)[:, None]
    t_w = np.asarray(t_w, dtype=np.int64)[None, :]
    block, counts, work, rows = _factor_block(6, (t_h.size, t_w.size))
    np.multiply(_ceil_div(g.h, t_h), _ceil_div(g.w, t_w), out=counts)
    np.multiply(t_h, t_w, out=work)
    in_rows, in_cols = (t_h - 1) * g.stride + g.kernel, (t_w - 1) * g.stride + g.kernel
    np.multiply(in_rows * in_cols, g.act_bytes, out=rows[3])
    rows[4] = 1.0
    np.multiply(work, g.out_bytes, out=rows[5])
    rows[0] = counts
    np.multiply(counts, rows[3], out=rows[1])
    np.multiply(counts, rows[5], out=rows[2])
    return _factor(block)


@functools.lru_cache(maxsize=None)
def _own_channel_factor(g: _ChannelGeom) -> _Factor:
    """``_channel_factor`` on the layer's own t_cin and t_cout ladders."""
    return _channel_factor(g, _pow2_ladder(g.ci), _pow2_ladder(g.co))


@functools.lru_cache(maxsize=None)
def _own_spatial_factor(g: _SpatialGeom) -> _Factor:
    """``_spatial_factor`` on the layer's own t_h and t_w ladders."""
    return _spatial_factor(g, _pow2_ladder(g.h), _pow2_ladder(g.w))


def _ceil_div(a, b):
    return -(-a // b)


def _layer_terms(ch: _Factor, sp: _Factor, bandwidth: float):
    """PE-independent part of the cost model at every pair of a channel
    tile pair of ``ch`` and a spatial tile pair of ``sp``, each a
    (channel pairs, spatial pairs) array: (working set, tiles, MACs per
    tile, memory cycles of the four loop orders stacked on a leading axis
    in LoopOrder order). Every term is a sum of channel-row times
    spatial-row products, each a multiple of 1/8 far below 2**50, so
    float64 computes it exactly in any association."""
    traffic = np.matmul(ch.rows[_CHANNEL_ROWS].transpose(0, 2, 1), sp.rows[_SPATIAL_ROWS])
    traffic /= bandwidth
    return (ch.rows[_CHANNEL_WS].T @ sp.rows[_SPATIAL_WS], np.multiply.outer(ch.counts, sp.counts),
            np.multiply.outer(ch.work, sp.work), np.ceil(traffic, out=traffic))


def _terms_at(g: _LayerGeom, tiling, bandwidth: float):
    """``_layer_terms`` of ``g`` at one tiling, each tile clamped to the
    layer's extent: scalars and the (4,) memory cycles."""
    _, t_ci, t_co, t_h, t_w = tiling
    c, s = g
    ws, tiles, tile_macs, mem = _layer_terms(
        _channel_factor(c, [min(t_ci, c.ci)], [min(t_co, c.co)]),
        _spatial_factor(s, [min(t_h, s.h)], [min(t_w, s.w)]), bandwidth)
    return ws[0, 0], tiles[0, 0], tile_macs[0, 0], mem[:, 0, 0]


def _cycles(tiles, tile_macs, mem, pe_count, out=None):
    """max(compute, memory) per loop order under double buffering; compute
    is tiles times ceil(tile MACs / PE count), and ``pe_count`` may be an
    array that broadcasts against the tile terms."""
    return np.maximum(tiles * _ceil_div(tile_macs, pe_count), mem, out=out)


@functools.lru_cache(maxsize=None)
def _pow2_ladder(limit: int) -> tuple[int, ...]:
    vals = []
    v = 1
    while v < limit:
        vals.append(v)
        v *= 2
    vals.append(limit)
    return tuple(sorted(set(vals)))


@functools.lru_cache(maxsize=None)
def _ladder_on_axis(limit: int, axis: int) -> np.ndarray:
    """``_pow2_ladder(limit)`` as int64, laid along ``axis`` of the 4-D
    (t_cin, t_cout, t_h, t_w) grid."""
    shape = [1, 1, 1, 1]
    shape[axis] = -1
    out = np.array(_pow2_ladder(limit), dtype=np.int64).reshape(shape)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=None)
def _clamped_pairs(m_a: int, n_a: int, m_b: int, n_b: int) -> np.ndarray:
    """Flat own-grid position of each of the m_a x m_b positions of a
    chunk's ladders on two axes, row-major, for a layer whose own ladders
    there have n_a and n_b steps: chunk position i reads own position
    min(i, n - 1) on each axis."""
    out = np.add.outer(np.minimum(np.arange(m_a), n_a - 1) * n_b,
                       np.minimum(np.arange(m_b), n_b - 1)).reshape(-1)
    out.flags.writeable = False
    return out


def _max_dims(layers: Sequence[LayerDescriptor]) -> tuple[int, int, int, int]:
    """The non-empty layer set's largest t_cin, t_cout, t_h and t_w extents."""
    return (
        max(l.in_channels // l.groups for l in layers),
        max(l.out_channels for l in layers),
        max(l.out_h for l in layers),
        max(l.out_w for l in layers),
    )


def _tiling_ladders(layers: Sequence[LayerDescriptor]) -> tuple[tuple[int, ...], ...]:
    """The power-of-two ladder of t_cin, t_cout, t_h and t_w up to the
    layer set's max dims; none for an empty set."""
    return tuple(map(_pow2_ladder, _max_dims(layers))) if layers else ()


def manual_dataflow(layers: Sequence[LayerDescriptor]) -> Dataflow:
    """Hand-style fixed mapping used by the ablation baselines: weight
    stationary with a 16x16 channel block over an 8x8 output block."""
    if not layers:
        return EMPTY_CHUNK_DATAFLOW
    return Dataflow(LoopOrder.WS, (1, *map(min, (16, 16, 8, 8), _max_dims(layers))))


def tiling_count(layers: Sequence[LayerDescriptor]) -> int:
    """``len(tiling_candidates(layers))``, without building them."""
    return math.prod(map(len, _tiling_ladders(layers)))


def tiling_candidates(layers: Sequence[LayerDescriptor]) -> np.ndarray:
    """(A, 5) int64 array of tilings (t_n, t_cin, t_cout, t_h, t_w): the
    power-of-two ladder per dimension up to the assigned set's max dims, in
    lexicographic order."""
    if not layers:
        return np.ones((1, 5), dtype=np.int64)
    ladders = _tiling_ladders(layers)
    out = np.ones(tuple(map(len, ladders)) + (5,), dtype=np.int64)
    for axis, ladder in enumerate(ladders):
        out[..., axis + 1] = _ladder_on_axis(ladder[-1], axis)
    return out.reshape(-1, 5)


@dataclass
class ChunkEval:
    """Best dataflow for (chunk kind, layer set, pe), its total cycles, and
    the largest tile working set (bytes) of the chunk's layers at its
    tiling, 0.0 for an empty chunk. A design is built from its three rows
    alone: its buffer from their working sets, its report from their
    cycles."""

    dataflow: Dataflow
    cycles: int
    working_set: float


@dataclass
class DataflowTable:
    """One chunk's sweep: the best dataflow at every PE count it holds, with
    the (loop order, tiling) candidates costed at each PE count and the
    feasible ones among them. A row never depends on the other PE counts
    swept with it, so ``restrict`` returns the table a sweep at a subset of
    its PE counts would."""

    evals: dict[int, ChunkEval]
    nodes_per_pe: int
    feasible_per_pe: int

    @property
    def nodes(self) -> int:
        return self.nodes_per_pe * len(self.evals)

    @property
    def feasible_dataflows(self) -> int:
        return self.feasible_per_pe * len(self.evals)

    def restrict(self, pe_counts: Sequence[int]) -> "DataflowTable":
        return DataflowTable({pe: self.evals[pe] for pe in pe_counts},
                             self.nodes_per_pe, self.feasible_per_pe)


def _fold(kind: LayerType, layers: Sequence[LayerDescriptor],
          budget: HardwareBudget) -> dict[_LayerGeom, int]:
    """The geometry of each distinct layer with its multiplicity, in
    first-seen order; a layer of another kind than the chunk's is a
    ValueError."""
    folded = {}
    sizes = _kind_bytes(kind, budget)
    for layer, count in Counter(layers).items():
        if layer.op_type is not kind:
            raise ValueError(f"layer {layer} assigned to chunk {kind}")
        g = _geom(layer, *sizes)
        folded[g] = folded.get(g, 0) + count
    return folded


def _dataflow_table(kind: LayerType, layers: Sequence[LayerDescriptor], df: Dataflow,
                    pe_counts: Sequence[int], gb_bytes: float, budget: HardwareBudget) -> DataflowTable:
    """The chunk's table at the one dataflow ``df``, costed like a sweep of
    that dataflow: one node per PE count, every PE count in one broadcast,
    each row with the largest tile working set. The first layer in fold
    order whose tile does not fit the buffer is a TileExceedsBuffer."""
    pe_axis = np.asarray(pe_counts, dtype=np.int64)
    total = np.zeros(len(pe_axis), dtype=np.float64)
    ws_max = 0.0
    for g, count in _fold(kind, layers, budget).items():
        ws, tiles, tile_macs, mem = _terms_at(g, df.tiling, budget.dram_bandwidth)
        if ws > gb_bytes:
            raise TileExceedsBuffer(f"tile working set {ws:.0f} B exceeds buffer {gb_bytes} B")
        # Integer cycle counts: the float64 sums stay exact.
        total += count * _cycles(tiles, tile_macs, mem[df.loop_order], pe_axis)
        ws_max = max(ws_max, float(ws))
    return DataflowTable({pe: ChunkEval(df, int(cycles), ws_max)
                          for pe, cycles in zip(pe_counts, total)}, 1, 1)


def hand_dataflow_table(kind: LayerType, layers: Sequence[LayerDescriptor], pe_counts: Sequence[int],
                        gb_bytes: int, budget: HardwareBudget) -> DataflowTable:
    """The chunk's table at its one hand dataflow (``manual_dataflow``). A
    hand tile that does not fit the buffer is an InfeasibleBudget naming the
    first such layer's working set."""
    df = manual_dataflow(layers)
    try:
        return _dataflow_table(kind, layers, df, pe_counts, gb_bytes, budget)
    except TileExceedsBuffer as exc:
        raise InfeasibleBudget(
            f"hand dataflow tile {df.tiling} of chunk {kind.short} does not fit: {exc}") from None


def layer_latency(layer: LayerDescriptor, chunk: ChunkConfig, gb_bytes: int,
                  budget: HardwareBudget) -> int:
    """Cycles to run one layer on its chunk: max(compute, memory)."""
    table = _dataflow_table(chunk.chunk_kind, [layer], chunk.dataflow, [chunk.pe_count],
                            gb_bytes, budget)
    return table.evals[chunk.pe_count].cycles


def _config_rows(layers: Sequence[LayerDescriptor], cfg: AcceleratorConfig,
                 budget: HardwareBudget, gb_bytes: float) -> list[ChunkEval]:
    """Each chunk's row at its dataflow and PE count, in (conv, shift, adder) order."""
    return [_dataflow_table(chunk.chunk_kind, [l for l in layers if l.op_type is kind],
                            chunk.dataflow, [chunk.pe_count], gb_bytes, budget).evals[chunk.pe_count]
            for kind, chunk in zip(LayerType, cfg.chunks())]


def _chunk_grid(kind: LayerType, layers: Sequence[LayerDescriptor], pe_counts: Sequence[int],
                budget: HardwareBudget) -> tuple[np.ndarray, np.ndarray]:
    """The non-empty chunk's summed cycles, (PE counts, loop orders,
    tilings), and its largest working set per tiling, over the tilings of
    ``tiling_candidates`` in their order.

    Each distinct layer is costed on its own ladders and widened to the
    chunk grid in two steps: the channel half first, then, once per group
    of layers that share an own spatial shape, the spatial half. Cycle
    counts are integers, so the float64 sums are exact in any order, and a
    maximum commutes with a gather: every element is the one a
    layer-by-layer sum on the chunk grid computes."""
    grid_shape = tuple(map(len, _tiling_ladders(layers)))
    m_ch, m_sp = grid_shape[:2], grid_shape[2:]
    pe_axis = np.asarray(pe_counts, dtype=np.int64).reshape(-1, 1, 1, 1)
    groups: dict[tuple[int, int], list[np.ndarray]] = {}
    for g, count in _fold(kind, layers, budget).items():
        ch, sp = _own_channel_factor(g.channel), _own_spatial_factor(g.spatial)
        ws, tiles, tile_macs, mem = _layer_terms(ch, sp, budget.dram_bandwidth)
        cycles = _cycles(tiles, tile_macs, mem, pe_axis)
        if count != 1:
            cycles *= count
        # A half at the chunk's ladders is read as it is: on 256 random
        # stock genomes 7 of 9,769 layer channel halves, and one of the 3.3
        # spatial groups of each chunk, the one with its largest extents.
        if ch.shape != m_ch:
            hi = _clamped_pairs(m_ch[0], ch.shape[0], m_ch[1], ch.shape[1])
            cycles, ws = cycles.take(hi, axis=-2), ws.take(hi, axis=0)
        group = groups.get(sp.shape)
        if group is None:
            groups[sp.shape] = [cycles, ws]
        else:
            group[0] += cycles
            np.maximum(group[1], ws, out=group[1])
    total = ws_max = None
    for shape, (cycles, ws) in groups.items():
        if shape != m_sp:
            lo = _clamped_pairs(m_sp[0], shape[0], m_sp[1], shape[1])
            cycles, ws = cycles.take(lo, axis=-1), ws.take(lo, axis=-1)
        if total is None:
            total, ws_max = cycles, ws
        else:
            total += cycles
            np.maximum(ws_max, ws, out=ws_max)
    return total.reshape(len(pe_axis), len(LoopOrder), -1), ws_max.reshape(-1)


def evaluate_dataflows(
    kind: LayerType,
    layers: Sequence[LayerDescriptor],
    pe_counts: Sequence[int],
    gb_bytes: int,
    budget: HardwareBudget,
) -> DataflowTable:
    """Vectorized sweep of all (loop order, tiling) dataflows for one chunk
    at every PE count of ``pe_counts``.

    The candidate tilings are the power-of-two ladders up to the layer set's
    max dims (``tiling_candidates``). Identical layers are folded into
    multiplicities, and each distinct layer is costed on its own ladders,
    which run up to its own dims: a tile at or above the layer's extent
    clamps to the extent, so the cost is constant along the rest of the
    chunk ladder. A layer's terms there are its cached channel factor
    times its cached spatial factor (see the module docstring), exact in
    float64, so every element is the value a term-by-term sweep of the
    whole chunk grid computes. Below the extent the chunk ladder's entries
    are exactly the layer's own powers of two, so on each axis chunk-ladder
    position ``i`` reads own position ``min(i, len(own) - 1)``. The layers
    reach the chunk grid in two gathers (``_chunk_grid``): each layer's
    channel half is widened to the chunk's channel pairs, the layers that
    share an own spatial shape are summed, and each such group is widened
    once along the spatial half. On 256 random stock genomes a chunk holds
    13.3 distinct layers but only 3.3 spatial shapes. The working sets and
    memory cycles do not depend on the PE count, so all PE counts are
    evaluated in one broadcast.

    Selection key per PE count: total cycles, then smaller buffer demand,
    then the canonical loop-order preference WS < OS < IS < RS, then
    lexicographic tiling. Cycle counts are integers, so the folded float64
    sums are exact and every pick is the one a layer-by-layer sweep makes.
    Raises InfeasibleBudget when no tiling fits the buffer.
    """
    pes = list(pe_counts)
    if not layers:
        return DataflowTable({pe: ChunkEval(EMPTY_CHUNK_DATAFLOW, 0, 0.0) for pe in pes}, 1, 1)
    arr = tiling_candidates(layers)
    a = len(arr)
    total, ws_max = _chunk_grid(kind, layers, pes, budget)
    feasible = ws_max <= gb_bytes
    if not feasible.any():
        raise InfeasibleBudget(
            f"no tiling fits a {gb_bytes} B buffer for chunk {kind.short}"
        )
    total[..., ~feasible] = np.inf
    best = total.reshape(len(pes), -1).min(axis=1)
    # Per PE count, the ties on cycles keyed by buffer demand, written over
    # the totals: argmin takes the first least demand in (loop order,
    # tiling) order, and the tilings are in lexicographic order, so that is
    # the selection key.
    ties = total == best[:, None, None]
    demand = total
    demand.fill(np.inf)
    np.copyto(demand, ws_max, where=ties)
    orders, picks = np.divmod(demand.reshape(len(pes), -1).argmin(axis=1), a)
    evals = {pe: ChunkEval(Dataflow(LoopOrder(int(order)), tuple(arr[pick])), int(cycles),
                           float(ws_max[pick]))
             for pe, order, pick, cycles in zip(pes, orders, picks, best)}
    return DataflowTable(evals, 4 * a, 4 * int(feasible.sum()))


def min_gb_size(cfg: AcceleratorConfig, layers: Sequence[LayerDescriptor],
                budget: HardwareBudget) -> int:
    """Smallest buffer (bytes) that admits every assigned layer's tile set."""
    return math.ceil(max(row.working_set for row in _config_rows(layers, cfg, budget, math.inf)))


@dataclass(frozen=True)
class PerfReport:
    latency_s: float
    throughput_gops: float
    fps: float
    gops_per_klut: float
    gops_per_dsp: float
    energy_mj: float
    dsp: int
    lut: int
    bram_blocks: float
    per_chunk_time_s: tuple[float, float, float]
    ops: OpCounts = declare(None, key="ops_m")

    def validate(self) -> None:
        total_ops = self.ops.total * 1e6
        assert abs(self.throughput_gops * self.latency_s * 1e9 - total_ops) <= 1e-6 * total_ops + 1e-9
        assert abs(self.fps * self.latency_s - 1.0) <= 1e-9
        assert abs(self.latency_s - max(self.per_chunk_time_s)) <= 1e-15

    def to_dict(self) -> dict:
        return dump_fields(self)


def pipeline_perf(
    layers: Sequence[LayerDescriptor],
    cfg: AcceleratorConfig,
    budget: HardwareBudget,
    coeffs: EnergyCoeffs,
) -> PerfReport:
    """Steady-state pipeline report: the per-image interval is the largest
    per-chunk busy time, since each chunk streams its own layer set."""
    return perf_report(layers, cfg, budget, coeffs,
                       [row.cycles for row in _config_rows(layers, cfg, budget, cfg.gb_bytes)])


def perf_report(
    layers: Sequence[LayerDescriptor],
    cfg: AcceleratorConfig,
    budget: HardwareBudget,
    coeffs: EnergyCoeffs,
    cycles: Sequence[int],
) -> PerfReport:
    """The pipeline report of ``cfg`` running ``layers``, given each
    chunk's busy cycles in (conv, shift, adder) order."""
    times = tuple(c / budget.frequency_hz for c in cycles)
    latency = max(times)
    if latency <= 0:
        raise ValueError("empty workload: no cycles on any chunk")
    ops = count_ops(layers)
    thr = ops.total * 1e6 / latency / 1e9
    dsp, lut, bram = resource_usage(cfg, budget.lut_overhead)
    report = PerfReport(
        latency_s=latency,
        throughput_gops=thr,
        fps=1.0 / latency,
        gops_per_klut=thr / (lut / 1000.0),
        gops_per_dsp=thr / dsp,
        energy_mj=coeffs.energy_mj(ops),
        dsp=dsp,
        lut=lut,
        bram_blocks=bram,
        per_chunk_time_s=times,
        ops=ops,
    )
    report.validate()
    return report
