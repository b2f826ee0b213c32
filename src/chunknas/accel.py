"""Analytical cost model of the three-chunk accelerator.

Each chunk (conv / shift / adder) is a PE array fed from a shared global
buffer; a layer's cycle count is max(compute, memory) under double buffering.
Compute cycles follow the tiled-loop model: number of tiles times
ceil(tile work / PE count). Memory cycles charge DRAM traffic under the
stationary-operand reuse rule of the chosen loop order.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from enum import IntEnum
from typing import Sequence

import numpy as np

from .search_space import (FINITE, NONNEG_INT, POS_FINITE, POS_INT, LayerDescriptor, LayerType,
                           OpCounts, check_fields, count_ops, declare, dump_fields, load_fields)

BRAM_BITS = 36864  # one 36 Kb block

LUT_PER_PE = {LayerType.CONV: 37, LayerType.SHIFT: 34, LayerType.ADDER: 29}
DSP_PER_CONV_PE = 0.5  # two 8-bit multiplications packed per DSP


class TileExceedsBuffer(ValueError):
    pass


class EmptyFeasibleSet(ValueError):
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
        """Missing keys keep their defaults; unknown keys are ignored."""
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


@dataclass(frozen=True)
class _LayerGeom:
    """Static per-layer quantities used by the latency model."""

    ci: int       # reduction channels (in_channels / groups)
    co: int
    h: int        # output rows
    w: int
    kernel: int
    stride: int
    dense: bool   # groups == 1
    act_bytes: float
    w_bytes: float
    out_bytes: float


def _geom(layer: LayerDescriptor, budget: HardwareBudget) -> _LayerGeom:
    return _LayerGeom(
        ci=layer.in_channels // layer.groups,
        co=layer.out_channels,
        h=layer.out_h,
        w=layer.out_w,
        kernel=layer.kernel,
        stride=layer.stride,
        dense=layer.groups == 1,
        act_bytes=budget.act_bits / 8,
        w_bytes=budget.weight_bits(layer.op_type) / 8,
        out_bytes=budget.out_bits(layer.op_type) / 8,
    )


def _clamp_tiles(g: _LayerGeom, tiling):
    _, t_ci, t_co, t_h, t_w = tiling
    return (
        np.minimum(t_ci, g.ci),
        np.minimum(t_co, g.co),
        np.minimum(t_h, g.h),
        np.minimum(t_w, g.w),
    )


def _tile_bytes(g: _LayerGeom, tci, tco, th, tw):
    """(input, weight, output) bytes of one live tile set."""
    in_h = (th - 1) * g.stride + g.kernel
    in_w = (tw - 1) * g.stride + g.kernel
    in_ch = tci if g.dense else tco
    in_bytes = in_ch * in_h * in_w * g.act_bytes
    w_bytes = tco * tci * g.kernel ** 2 * g.w_bytes
    out_bytes = tco * th * tw * g.out_bytes
    return in_bytes, w_bytes, out_bytes


def _working_set(in_b, w_b, o_b):
    return 2.0 * (in_b + w_b + o_b)  # double buffered


def _ceil_div(a, b):
    return -(-a // b)


def _layer_terms(g: _LayerGeom, tci, tco, th, tw, bandwidth: float):
    """PE-independent part of the cost model: (working set, tiles, MACs per
    tile, memory cycles of the four loop orders stacked on a leading axis in
    LoopOrder order). Memory cycles charge DRAM traffic under the
    stationary-operand reuse rule of each order."""
    n_ci = _ceil_div(g.ci, tci)
    n_co = _ceil_div(g.co, tco)
    n_h = _ceil_div(g.h, th)
    n_w = _ceil_div(g.w, tw)
    tiles = n_ci * n_co * n_h * n_w
    tile_macs = tci * tco * th * tw * g.kernel ** 2

    in_b, w_b, o_b = _tile_bytes(g, tci, tco, th, tw)
    dist_w = n_co * n_ci
    dist_o = n_co * n_h * n_w
    dist_i = (n_ci if g.dense else n_co) * n_h * n_w
    traffic = np.stack([
        dist_w * w_b + tiles * (in_b + o_b),           # WS
        dist_o * o_b + tiles * (in_b + w_b),           # OS
        dist_i * in_b + tiles * (w_b + o_b),           # IS
        dist_w * w_b + dist_i * in_b + tiles * o_b,    # RS
    ])
    return _working_set(in_b, w_b, o_b), tiles, tile_macs, np.ceil(traffic / bandwidth)


def _cycles(tiles, tile_macs, mem, pe_count, out=None):
    """max(compute, memory) per loop order under double buffering; compute
    is tiles times ceil(tile MACs / PE count), and ``pe_count`` may be an
    array that broadcasts against the tile terms."""
    return np.maximum(tiles * _ceil_div(tile_macs, pe_count), mem, out=out)


def layer_latency(
    layer: LayerDescriptor,
    chunk: ChunkConfig,
    gb_bytes: int,
    budget: HardwareBudget,
) -> int:
    """Cycles to run one layer on its chunk: max(compute, memory)."""
    if layer.op_type is not chunk.chunk_kind:
        raise ValueError(f"layer type {layer.op_type} does not match chunk {chunk.chunk_kind}")
    g = _geom(layer, budget)
    ws, *terms = _layer_terms(g, *_clamp_tiles(g, chunk.dataflow.tiling), budget.dram_bandwidth)
    if ws > gb_bytes:
        raise TileExceedsBuffer(
            f"tile working set {ws:.0f} B exceeds buffer {gb_bytes} B"
        )
    return int(_cycles(*terms, chunk.pe_count)[chunk.dataflow.loop_order])


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
def _clamped_positions(n_chunk: int, n_own: int) -> np.ndarray:
    """Own-ladder position of each of the ``n_chunk`` positions of a chunk
    ladder, for a layer whose own ladder on that axis has ``n_own`` steps."""
    out = np.minimum(np.arange(n_chunk), n_own - 1)
    out.flags.writeable = False
    return out


def _tiling_ladders(layers: Sequence[LayerDescriptor]) -> tuple[tuple[int, ...], ...]:
    """The power-of-two ladder of t_cin, t_cout, t_h and t_w up to the
    layer set's max dims; none for an empty set."""
    if not layers:
        return ()
    return (
        _pow2_ladder(max(l.in_channels // l.groups for l in layers)),
        _pow2_ladder(max(l.out_channels for l in layers)),
        _pow2_ladder(max(l.out_h for l in layers)),
        _pow2_ladder(max(l.out_w for l in layers)),
    )


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
    chunk ladder. Below the extent the chunk ladder's entries are exactly
    the layer's own powers of two, so on each axis chunk-ladder position
    ``i`` reads own position ``min(i, len(own) - 1)``, and the layer's
    cycles and working set reach the chunk grid through that index map.
    Every element is the value a sweep of the whole chunk grid computes, by
    the same operations. The working sets and memory cycles do not depend
    on the PE count, so all PE counts are evaluated in one broadcast.

    Selection key per PE count: total cycles, then smaller buffer demand,
    then the canonical loop-order preference WS < OS < IS < RS, then
    lexicographic tiling. Cycle counts are integers, so the folded float64
    sums are exact and every pick is the one a layer-by-layer sweep makes.
    Raises EmptyFeasibleSet when no tiling fits the buffer.
    """
    pes = list(pe_counts)
    if not layers:
        return DataflowTable({pe: ChunkEval(EMPTY_CHUNK_DATAFLOW, 0, 0.0) for pe in pes}, 1, 1)
    folded = Counter()
    for layer, count in Counter(layers).items():
        if layer.op_type is not kind:
            raise ValueError(f"layer {layer} assigned to chunk {kind}")
        folded[_geom(layer, budget)] += count
    arr = tiling_candidates(layers)
    grid_shape = tuple(map(len, _tiling_ladders(layers)))
    a = len(arr)
    pe_axis = np.asarray(pes, dtype=np.int64).reshape(-1, 1, 1)
    total = np.zeros((len(pes), len(LoopOrder), a), dtype=np.float64)
    ws_max = np.zeros(a, dtype=np.float64)
    for g, count in folded.items():
        # Own ladders never exceed the extents, so they need no clamping.
        ws, tiles, tile_macs, mem = _layer_terms(
            g, *(_ladder_on_axis(e, axis) for axis, e in enumerate((g.ci, g.co, g.h, g.w))),
            budget.dram_bandwidth)
        own_shape = tiles.shape
        # Integer cycle counts: the float64 sums stay exact.
        cycles = _cycles(tiles.reshape(-1), tile_macs.reshape(-1),
                         mem.reshape(len(LoopOrder), -1), pe_axis)
        if count != 1:
            cycles *= count
        ws = ws.reshape(-1)
        if own_shape != grid_shape:
            # The flat own-grid position each chunk tiling reads, composed
            # axis by axis in row-major order.
            index = 0
            for n_chunk, n_own in zip(grid_shape, own_shape):
                index = np.add.outer(index * n_own, _clamped_positions(n_chunk, n_own))
            index = index.reshape(-1)
            cycles = cycles.take(index, axis=-1)
            ws = ws.take(index)
        total += cycles
        np.maximum(ws_max, ws, out=ws_max)
    feasible = ws_max <= gb_bytes
    if not feasible.any():
        raise EmptyFeasibleSet(
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
    worst = 0.0
    for layer in dict.fromkeys(layers):
        chunk = cfg.chunk_for(layer.op_type)
        g = _geom(layer, budget)
        tile_bytes = _tile_bytes(g, *_clamp_tiles(g, chunk.dataflow.tiling))
        worst = max(worst, _working_set(*tile_bytes))
    return math.ceil(worst)


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


def chunk_cycle_totals(
    layers: Sequence[LayerDescriptor],
    cfg: AcceleratorConfig,
    budget: HardwareBudget,
) -> dict[LayerType, int]:
    """Busy cycles per chunk; identical layers are costed once."""
    totals = {LayerType.CONV: 0, LayerType.SHIFT: 0, LayerType.ADDER: 0}
    for layer, count in Counter(layers).items():
        chunk = cfg.chunk_for(layer.op_type)
        totals[layer.op_type] += count * layer_latency(layer, chunk, cfg.gb_bytes, budget)
    return totals


def pipeline_perf(
    layers: Sequence[LayerDescriptor],
    cfg: AcceleratorConfig,
    budget: HardwareBudget,
    coeffs: EnergyCoeffs,
) -> PerfReport:
    """Steady-state pipeline report: the per-image interval is the largest
    per-chunk busy time, since each chunk streams its own layer set."""
    totals = chunk_cycle_totals(layers, cfg, budget)
    return perf_report(layers, cfg, budget, coeffs,
                       [totals[k] for k in (LayerType.CONV, LayerType.SHIFT, LayerType.ADDER)])


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
