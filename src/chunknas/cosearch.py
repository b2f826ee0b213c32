"""Search strategies: coarse-to-fine accelerator search, an exhaustive
oracle over the joint chunk space, and the outer evolutionary co-search.

The conv chunk is the latency bottleneck (DSPs are the scarce resource), so
the coarse phase fixes its PE count at the packing maximum and sweeps only
its dataflows; the fine phase sizes the shift/adder chunks from the
per-chunk MAC ratios, fine-tunes them multiplicatively, sweeps their
dataflows, and sizes the buffer to the minimum that fits.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Sequence

import numpy as np

from . import zeroshot
from .accel import (
    AcceleratorConfig,
    ChunkConfig,
    ChunkEval,
    Dataflow,
    DataflowTable,
    EMPTY_CHUNK_DATAFLOW,
    EmptyFeasibleSet,
    EnergyCoeffs,
    HardwareBudget,
    InfeasibleBudget,
    LoopOrder,
    LUT_PER_PE,
    PerfReport,
    _clamp_tiles,
    _cycles,
    _geom,
    _layer_terms,
    chunk_lut,
    evaluate_dataflows,
    perf_report,
    tiling_count,
)
from .nn import NonFiniteScore, instantiate
from .search_space import (
    CHOICES,
    INT,
    NONNEG_INT,
    POS_FINITE,
    POS_INT,
    PROBABILITY,
    BlockInfo,
    LayerDescriptor,
    LayerType,
    MacProfile,
    SearchSpace,
    SubNetwork,
    check_fields,
    check_value,
    count_macs,
    crossover,
    declare,
    dump_fields,
    expand,
    expand_blocks,
    load_fields,
    mutate,
    optional,
    sample_random,
)

FINETUNE_STEPS = (0.5, 0.75, 1.0, 1.5, 2.0)
DEFAULT_NODE_CAP = 10 ** 15

_KIND_ORDER = (LayerType.CONV, LayerType.SHIFT, LayerType.ADDER)


class NoConvLayers(UserWarning):
    """Informational: the workload has no conv layers; a minimal chunk is used."""


class GridTooLarge(ValueError):
    pass


class EmptyPopulation(RuntimeError):
    pass


def split_by_type(layers: Sequence[LayerDescriptor]) -> dict[LayerType, list[LayerDescriptor]]:
    out: dict[LayerType, list[LayerDescriptor]] = {k: [] for k in _KIND_ORDER}
    for layer in layers:
        out[layer.op_type].append(layer)
    return out


def manual_dataflow(layers: Sequence[LayerDescriptor]) -> Dataflow:
    """Hand-style fixed mapping used by the ablation baselines: weight
    stationary with a 16x16 channel block over an 8x8 output block."""
    if not layers:
        return EMPTY_CHUNK_DATAFLOW
    ci = max(l.in_channels // l.groups for l in layers)
    co = max(l.out_channels for l in layers)
    h = max(l.out_h for l in layers)
    w = max(l.out_w for l in layers)
    return Dataflow(
        LoopOrder.WS,
        (1, min(16, ci), min(16, co), min(8, h), min(8, w)),
    )


def max_conv_pes(budget: HardwareBudget) -> int:
    """Largest conv-chunk PE count the platform admits: DSP packing bound,
    capped so one PE of each LUT chunk still fits the LUT budget."""
    lut_room = budget.lut_total - budget.lut_overhead \
        - LUT_PER_PE[LayerType.SHIFT] - LUT_PER_PE[LayerType.ADDER]
    pe = min(budget.conv_pes_by_dsp, lut_room // LUT_PER_PE[LayerType.CONV])
    if pe < 1:
        raise _no_conv_pe(budget)
    return pe


def _no_conv_pe(budget: HardwareBudget) -> InfeasibleBudget:
    return InfeasibleBudget(
        f"budget admits no conv PE (dsp={budget.dsp_total}, lut={budget.lut_total})"
    )


def _sweep(kind: LayerType, layers: Sequence[LayerDescriptor], pes: Sequence[int],
           budget: HardwareBudget) -> DataflowTable:
    """The chunk's full dataflow sweep at ``pes`` with the buffer
    provisionally at its maximum. A buffer no dataflow fits is an
    infeasible budget."""
    try:
        return evaluate_dataflows(kind, layers, pes, budget.gb_bytes_max, budget)
    except EmptyFeasibleSet as exc:
        raise InfeasibleBudget(str(exc)) from exc


def _chunk_evals(kind: LayerType, layers: Sequence[LayerDescriptor], pes: Sequence[int],
                 budget: HardwareBudget, search: bool,
                 swept: dict[LayerType, DataflowTable] | None) -> DataflowTable:
    """Per-chunk table: for every PE count, the chunk's best dataflow with
    its cycles and working set, read from ``swept`` (the chunk's sweep at a
    superset of ``pes``) or swept here; or with ``search`` off the hand
    dataflow, costed like a sweep of that one dataflow (one node per PE
    count), with the buffer provisionally at its maximum. A buffer no
    dataflow fits is an infeasible budget, as is a hand tile that does not
    fit it."""
    if search:
        return swept[kind].restrict(pes) if swept else _sweep(kind, layers, pes, budget)
    gb = budget.gb_bytes_max
    df = manual_dataflow(layers)
    pe_axis = np.asarray(pes, dtype=np.int64)
    total = np.zeros(len(pes), dtype=np.float64)
    ws_max = 0.0
    for layer, count in Counter(layers).items():
        g = _geom(layer, budget)
        ws, tiles, tile_macs, mem = _layer_terms(g, *_clamp_tiles(g, df.tiling),
                                                 budget.dram_bandwidth)
        if ws > gb:
            raise InfeasibleBudget(
                f"hand dataflow tile {df.tiling} of chunk {kind.short} does not fit: "
                f"tile working set {ws:.0f} B exceeds buffer {gb} B"
            )
        # Integer cycle counts: the float64 sums stay exact.
        total += count * _cycles(tiles, tile_macs, mem[df.loop_order], pe_axis)
        ws_max = max(ws_max, float(ws))
    return DataflowTable({pe: ChunkEval(df, int(cycles), ws_max)
                          for pe, cycles in zip(pes, total)}, 1, 1)


@dataclass
class AccelSearchResult:
    """A design and its report. ``evaluated_nodes`` counts the (pe, loop
    order, tiling) candidates whose latency was computed plus the PE
    triples scanned; the oracle's ``joint_space_nodes`` is the size of the
    flat joint space a vanilla enumeration would visit."""

    config: AcceleratorConfig
    report: PerfReport
    evaluated_nodes: int
    joint_space_nodes: int = 0


def _best_design(layers: Sequence[LayerDescriptor], tables: Sequence[DataflowTable],
                 budget: HardwareBudget, coeffs: EnergyCoeffs) -> AccelSearchResult:
    """Pick the PE combination of the conv, shift and adder tables that fits
    the LUT budget with the smallest pipeline interval (ties: fewer LUTs,
    then smaller PE counts), then shrink the buffer to the smallest size
    that holds every chosen tile. The three chosen rows give the design
    everything else: the buffer is their largest working set, rounded up,
    and the report is built from their cycles, so no layer is costed
    again."""
    avail = budget.lut_total - budget.lut_overhead
    best = None
    scanned = 0
    for pes in itertools.product(*(sorted(t.evals) for t in tables)):
        luts = chunk_lut(*pes)
        if luts > avail:
            continue
        scanned += 1
        interval = max(t.evals[pe].cycles for t, pe in zip(tables, pes))
        key = (interval, luts, *pes)
        if best is None or key < best:
            best = key
    if best is None:
        raise InfeasibleBudget("no PE combination fits the LUT budget")
    rows = [t.evals[pe] for pe, t in zip(best[2:], tables)]
    chunks = [ChunkConfig(kind, pe, row.dataflow)
              for kind, pe, row in zip(_KIND_ORDER, best[2:], rows)]
    gb = max(1, math.ceil(max(row.working_set for row in rows)))
    cfg = AcceleratorConfig(*chunks, gb_bytes=gb)
    cfg.assert_fits(budget)
    return AccelSearchResult(cfg, perf_report(layers, cfg, budget, coeffs,
                                              [row.cycles for row in rows]),
                             sum(t.nodes for t in tables) + scanned)


def _coarse_pe(conv_layers: Sequence[LayerDescriptor], budget: HardwareBudget) -> int:
    """The conv chunk's PE count: the maximum, or one idle PE for a workload
    without conv layers."""
    return max_conv_pes(budget) if conv_layers else 1


def coarse_search(layers: Sequence[LayerDescriptor], budget: HardwareBudget,
                  search: bool = True,
                  swept: dict[LayerType, DataflowTable] | None = None) -> DataflowTable:
    """Phase one: fix the conv chunk at the maximum PE count and pick its
    best dataflow by full sweep, with the buffer provisionally at maximum.
    With ``search`` off the conv chunk keeps the hand dataflow. A workload
    without conv layers gets a single idle conv PE. Returns the conv
    chunk's one-entry table; ``swept`` holds chunk sweeps to read it from
    (see ``comparison_tables``)."""
    conv_layers = split_by_type(layers)[LayerType.CONV]
    if search and not conv_layers:
        warnings.warn("no conv layers; conv chunk degenerates to a single PE",
                      NoConvLayers, stacklevel=2)
    return _chunk_evals(LayerType.CONV, conv_layers, [_coarse_pe(conv_layers, budget)],
                        budget, search, swept)


def eq9_pe_init(macs: MacProfile, pe_c: int) -> tuple[float, float, int, int]:
    """Balanced PE allocation: pe per chunk proportional to its MAC share.

    Returns (raw shift, raw adder, rounded shift, rounded adder); rounded
    values are clamped to >= 1. A profile with no conv MACs falls back to
    proportions over the multiplication-free work alone. The search sizes a
    conv-free workload with ``free_lut_pe_init`` instead: its conv chunk is
    one idle PE, and proportions of one PE leave the shift and adder chunks
    1-2 PEs.
    """
    if macs.conv > 0:
        raw_s = pe_c * macs.shift / macs.conv
        raw_a = pe_c * macs.adder / macs.conv
    else:
        rest = macs.shift + macs.adder
        raw_s = pe_c * macs.shift / rest if rest else 0.0
        raw_a = pe_c * macs.adder / rest if rest else 0.0
    return raw_s, raw_a, max(1, round(raw_s)), max(1, round(raw_a))


def free_lut_pe_init(macs: MacProfile, avail_lut: int) -> tuple[int, int]:
    """Shift and adder PE counts of a conv-free workload: the LUTs left
    beside the idle conv PE, split by the two chunks' MAC shares; each
    count is at least 1."""
    rest = max(1, macs.shift + macs.adder)
    return tuple(max(1, int(avail_lut * m / rest / LUT_PER_PE[kind]))
                 for kind, m in ((LayerType.SHIFT, macs.shift), (LayerType.ADDER, macs.adder)))


def _clamp_pair_to_lut(pe_s: int, pe_a: int, avail_lut: int) -> tuple[int, int]:
    """Scale a PE pair down to the LUT budget, keeping one PE per chunk
    reserved so the floor can never push the pair back over the budget."""
    lut_s = LUT_PER_PE[LayerType.SHIFT]
    lut_a = LUT_PER_PE[LayerType.ADDER]
    if lut_s * pe_s + lut_a * pe_a <= avail_lut:
        return pe_s, pe_a
    spare = avail_lut - lut_s - lut_a
    extra = lut_s * (pe_s - 1) + lut_a * (pe_a - 1)
    if spare <= 0 or extra <= 0:
        return 1, 1
    scale = spare / extra
    return 1 + int((pe_s - 1) * scale), 1 + int((pe_a - 1) * scale)


def fine_pe_counts(layers: Sequence[LayerDescriptor], budget: HardwareBudget, pe_c: int,
                   search: bool = True) -> tuple[list[int], list[int]]:
    """The shift and adder PE counts the fine phase reads beside ``pe_c``
    conv PEs: the MAC-balanced allocation (for a conv-free workload, the
    free LUTs split by MAC share), clamped to the LUT budget, then times
    every fine-tune step, or alone with ``search`` off."""
    lut_s, lut_a = LUT_PER_PE[LayerType.SHIFT], LUT_PER_PE[LayerType.ADDER]
    avail = budget.lut_total - budget.lut_overhead - LUT_PER_PE[LayerType.CONV] * pe_c
    if avail < lut_s + lut_a:
        raise InfeasibleBudget(
            f"LUT budget {budget.lut_total} cannot host minimal chunks beside {pe_c} conv PEs"
        )
    macs = count_macs(layers)
    if macs.conv:
        _, _, init_s, init_a = eq9_pe_init(macs, pe_c)
    else:
        init_s, init_a = free_lut_pe_init(macs, avail)
    steps = FINETUNE_STEPS if search else (1.0,)
    return tuple(sorted({max(1, round(init * m)) for m in steps})
                 for init in _clamp_pair_to_lut(init_s, init_a, avail))


def fine_search(
    layers: Sequence[LayerDescriptor],
    budget: HardwareBudget,
    coarse: DataflowTable,
    coeffs: EnergyCoeffs,
    search: bool = True,
    swept: dict[LayerType, DataflowTable] | None = None,
) -> AccelSearchResult:
    """Phase two: size and map the shift/adder chunks, then shrink the buffer.

    PE counts come from ``fine_pe_counts``. With ``search`` on each
    candidate count gets a full dataflow sweep, or reads it from ``swept``;
    with it off the balanced counts keep the hand dataflow. The winner
    minimizes the pipeline interval, with ties broken by fewer total LUTs,
    then smaller PE counts.
    """
    by_type = split_by_type(layers)
    (pe_c,) = coarse.evals
    tables = [coarse]
    for kind, pes in zip((LayerType.SHIFT, LayerType.ADDER),
                         fine_pe_counts(layers, budget, pe_c, search)):
        tables.append(_chunk_evals(kind, by_type[kind], pes, budget, search, swept))
    return _best_design(layers, tables, budget, coeffs)


def search_accelerator_layers(
    layers: Sequence[LayerDescriptor],
    budget: HardwareBudget,
    coeffs: EnergyCoeffs,
    coarse_phase: bool = True,
    fine_phase: bool = True,
    swept: dict[LayerType, DataflowTable] | None = None,
) -> AccelSearchResult:
    """Coarse-to-fine search over a concrete layer workload.

    The two flags reproduce the ablation baselines: with ``coarse_phase``
    off, the conv chunk keeps the hand dataflow at maximum PEs; with
    ``fine_phase`` off, the shift/adder chunks keep the MAC-balanced PE
    counts and the hand dataflow. Each searched chunk is swept at exactly
    its own PE counts, or its rows are read from ``swept``.
    """
    coarse = coarse_search(layers, budget, search=coarse_phase, swept=swept)
    return fine_search(layers, budget, coarse, coeffs, search=fine_phase, swept=swept)


def search_accelerator(
    net: SubNetwork,
    space: SearchSpace,
    budget: HardwareBudget,
    coeffs: EnergyCoeffs,
) -> tuple[AcceleratorConfig, PerfReport]:
    result = search_accelerator_layers(expand(space, net), budget, coeffs)
    return result.config, result.report


def oracle_grid(
    layers: Sequence[LayerDescriptor],
    budget: HardwareBudget,
    grid: dict[str, Sequence[int]],
    node_cap: int = DEFAULT_NODE_CAP,
) -> tuple[dict[LayerType, list[int]], int]:
    """The oracle's PE counts per chunk and the size of the flat joint space
    a vanilla enumeration would visit. The conv grid keeps the counts the
    DSP share holds, or one PE. Conv layers on a DSP share that holds no
    conv PE are an InfeasibleBudget, as in the search, and a joint space
    above ``node_cap`` is GridTooLarge."""
    by_type = split_by_type(layers)
    grids = {k: list(check_value(grid[k.value], CHOICES, f"grid.{k.value}")) for k in _KIND_ORDER}
    if by_type[LayerType.CONV] and budget.conv_pes_by_dsp < 1:
        raise _no_conv_pe(budget)
    grids[LayerType.CONV] = [p for p in grids[LayerType.CONV]
                             if p <= budget.conv_pes_by_dsp] or [1]
    joint = 1
    for kind in _KIND_ORDER:
        joint *= len(grids[kind]) * 4 * tiling_count(by_type[kind])
    if joint > node_cap:
        raise GridTooLarge(f"joint space {joint:.3g} exceeds node cap {node_cap:.3g}")
    return grids, joint


def oracle_layers(
    layers: Sequence[LayerDescriptor],
    budget: HardwareBudget,
    coeffs: EnergyCoeffs,
    grid: dict[str, Sequence[int]],
    node_cap: int = DEFAULT_NODE_CAP,
    swept: dict[LayerType, DataflowTable] | None = None,
) -> AccelSearchResult:
    """Exhaustive joint optimum over (PE grid x 64 loop-order combinations x
    feasible tilings), same objective and tie-breaks as the fine search.

    Per-chunk latency is independent given the (maximum) provisional buffer,
    so the joint space is covered by combining per-chunk sweeps (or their
    rows in ``swept``) with a full scan of PE triples; ``joint_space_nodes``
    reports the flat space size. The grid is held to ``oracle_grid``.
    """
    grids, joint = oracle_grid(layers, budget, grid, node_cap)
    by_type = split_by_type(layers)
    tables = [_chunk_evals(kind, by_type[kind], grids[kind], budget, True, swept)
              for kind in _KIND_ORDER]
    return replace(_best_design(layers, tables, budget, coeffs), joint_space_nodes=joint)


def comparison_tables(
    layers: Sequence[LayerDescriptor],
    budget: HardwareBudget,
    grid: dict[str, Sequence[int]],
    node_cap: int = DEFAULT_NODE_CAP,
) -> dict[LayerType, DataflowTable]:
    """Every chunk swept once, at the union of the PE counts the full,
    fine-only and coarse-only searches and the oracle read from it: the
    coarse conv count, the shift and adder fine-tune counts, and the
    oracle's grid. Pass the result as ``swept``; each design restricts it
    to its own PE counts, so its rows and node counts are those of its own
    sweeps.

    Raises the full search's errors in its order. A grid the oracle refuses
    adds no PE counts; ``oracle_layers`` raises that error after the
    searches.
    """
    by_type = split_by_type(layers)
    try:
        extra, _ = oracle_grid(layers, budget, grid, node_cap)
    except (KeyError, TypeError, ValueError):  # oracle_layers raises it after the searches
        extra = dict.fromkeys(_KIND_ORDER, ())
    pe_c = _coarse_pe(by_type[LayerType.CONV], budget)
    swept = {LayerType.CONV: _sweep(LayerType.CONV, by_type[LayerType.CONV],
                                    sorted({pe_c, *extra[LayerType.CONV]}), budget)}
    for kind, pes in zip((LayerType.SHIFT, LayerType.ADDER), fine_pe_counts(layers, budget, pe_c)):
        swept[kind] = _sweep(kind, by_type[kind], sorted({*pes, *extra[kind]}), budget)
    return swept


# ---------------------------------------------------------------------------
# Evolutionary co-search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchParams:
    population: int = declare(POS_INT, 100)
    expand_size: int = declare(NONNEG_INT, 50)
    mutate_prob: float = declare(PROBABILITY, 0.2)
    crossover_prob: float = declare(PROBABILITY, 0.2)
    iterations: int = declare(NONNEG_INT, 15)
    top_k: int = declare(NONNEG_INT, 3)
    seed: int = declare(INT, 0)
    zen_alpha: float = declare(POS_FINITE, zeroshot.ZEN_ALPHA)
    zen_batch: int = declare(POS_INT, zeroshot.ZEN_BATCH)
    zen_repeats: int = declare(POS_INT, zeroshot.ZEN_REPEATS)

    def __post_init__(self):
        check_fields(self)
        if self.top_k > self.population:
            raise ValueError("top_k must not exceed the population size")
        if self.zen_batch < 2:
            raise ValueError(f"zen_batch must be an integer >= 2, got {self.zen_batch!r}")

    def to_dict(self) -> dict:
        return dump_fields(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SearchParams":
        return load_fields(cls, d)


@dataclass(frozen=True)
class Constraint:
    max_dsp: int | None = declare(optional(POS_INT), None)
    max_lut: int | None = declare(optional(POS_INT), None)
    max_latency_s: float | None = declare(optional(POS_FINITE), None)
    min_gops: float | None = declare(optional(POS_FINITE), None)

    def __post_init__(self):
        check_fields(self)
        if self.max_dsp is None and self.max_lut is None:
            raise ValueError("at least one resource bound (max_dsp or max_lut) is required")

    def rejects(self, report: PerfReport) -> str | None:
        if self.max_dsp is not None and report.dsp > self.max_dsp:
            return f"dsp {report.dsp} > {self.max_dsp}"
        if self.max_lut is not None and report.lut > self.max_lut:
            return f"lut {report.lut} > {self.max_lut}"
        if self.max_latency_s is not None and report.latency_s > self.max_latency_s:
            return f"latency {report.latency_s:.6g} s > {self.max_latency_s:.6g} s"
        if self.min_gops is not None and report.throughput_gops < self.min_gops:
            return f"throughput {report.throughput_gops:.6g} < {self.min_gops:.6g} GOPS"
        return None

    def to_dict(self) -> dict:
        return dump_fields(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Constraint":
        return load_fields(cls, d)


def effective_budget(budget: HardwareBudget, constraint: Constraint) -> HardwareBudget:
    """Shrink platform resources to the constraint caps so the hardware
    search itself targets the allowed envelope; latency/throughput bounds
    still filter candidates afterwards. A budget that grants the conv chunk
    no DSP share keeps its DSP total; its search ends in InfeasibleBudget."""
    caps = {}
    if constraint.max_lut is not None:
        caps["lut_total"] = min(budget.lut_total, constraint.max_lut)
    if constraint.max_dsp is not None and budget.dsp_reserve_frac > 0:
        caps["dsp_total"] = math.ceil(min(constraint.max_dsp / budget.dsp_reserve_frac, budget.dsp_total))
    return replace(budget, **caps)


@dataclass
class CandidateEval:
    net: SubNetwork
    config: AcceleratorConfig | None
    report: PerfReport | None
    nn_degree: float | None
    zen: float | None
    reject_reason: str | None = None

    @property
    def feasible(self) -> bool:
        return self.report is not None and self.reject_reason is None

    def to_dict(self, rank: int) -> dict:
        """The result.json entry of a feasible candidate at combined
        ``rank``: the genome in its flat and compact forms, the design, its
        report and the scores. A degenerate Zen score is null."""
        return {
            "genome": list(self.net.to_flat()),
            "genome_compact": self.net.compact(),
            "accelerator": self.config.to_dict(),
            "performance": self.report.to_dict(),
            "nn_degree": self.nn_degree,
            "zen_score": self.zen,
            "combined_rank": rank,
        }


@dataclass
class CoSearchResult:
    entries: list[tuple[int, CandidateEval]]     # top-k (combined rank, candidate), best first
    population: list[tuple[int, CandidateEval]]  # full final population, ranked
    log: list[dict]
    evaluations: int


def derive_seeds(master_seed: int, digest: int) -> tuple[int, int]:
    raw = hashlib.sha256(f"{master_seed}:{digest}".encode()).digest()
    return (
        int.from_bytes(raw[:8], "big"),
        int.from_bytes(raw[8:16], "big"),
    )


def _evaluate_candidate(
    net: SubNetwork,
    space: SearchSpace,
    budget: HardwareBudget,
    constraint: Constraint,
    coeffs: EnergyCoeffs,
    params: SearchParams,
) -> CandidateEval:
    layers, blocks = expand_blocks(space, net)
    try:
        result = search_accelerator_layers(layers, budget, coeffs)
    except InfeasibleBudget as exc:
        return CandidateEval(net, None, None, None, None, reject_reason=str(exc))
    reason = constraint.rejects(result.report)
    if reason is not None:
        return CandidateEval(net, result.config, result.report, None, None,
                             reject_reason=reason)
    nn_val, zen_val = zero_shot_scores(net, space, params, (layers, blocks))
    return CandidateEval(net, result.config, result.report, nn_val, zen_val)


def zero_shot_scores(
    net: SubNetwork,
    space: SearchSpace,
    params: SearchParams,
    expansion: tuple[list[LayerDescriptor], list[BlockInfo]],
) -> tuple[float, float | None]:
    """nn_degree and Zen score of one genome, given its ``expand_blocks``
    result. Weight and Zen input seeds derive from (params.seed, genome
    digest); the Zen score is None when the network's perturbation response
    degenerates."""
    nn_val = zeroshot.nn_degree(*expansion)
    weight_seed, zen_seed = derive_seeds(params.seed, net.digest())
    try:
        hybrid = instantiate(net, space, weight_seed, expansion=expansion)
        zen_val = zeroshot.zen_score(
            hybrid,
            alpha=params.zen_alpha,
            batch=params.zen_batch,
            repeats=params.zen_repeats,
            rng=np.random.default_rng(zen_seed),
        )
    except NonFiniteScore:
        return nn_val, None
    return nn_val, zen_val


def rank_scores(scores: Sequence[tuple[float, float | None]]) -> list[int]:
    """Combined rank of every (nn_degree, zen) pair, in input order. A
    degenerate entry (Zen None) ranks 2n, behind every scored one."""
    scored = [i for i, (_, zen) in enumerate(scores) if zen is not None]
    ranks = zeroshot.combined_ranks([scores[i] for i in scored]) if scored else []
    out = [2 * len(scores)] * len(scores)
    for i, r in zip(scored, ranks):
        out[i] = r
    return out


def _ranked(pool: list[CandidateEval]) -> list[tuple[int, CandidateEval]]:
    """(combined rank within ``pool``, candidate) pairs sorted by rank, then
    genome digest; degenerate candidates rank last."""
    ranks = rank_scores([(c.nn_degree, c.zen) for c in pool])
    return sorted(zip(ranks, pool), key=lambda rc: (rc[0], rc[1].net.digest()))


def cosearch(
    space: SearchSpace,
    budget: HardwareBudget,
    constraint: Constraint,
    params: SearchParams,
    coeffs: EnergyCoeffs,
    threads: int = 1,
    progress: Callable[[str], None] | None = None,
) -> CoSearchResult:
    """Evolutionary co-search: sample, expand by crossover/mutation, give
    every new genome its best accelerator, drop constraint violators, rank
    survivors by the combined zero-shot metric, and keep the best.

    Deterministic for a fixed seed: genome operators draw from one master
    stream and per-candidate scoring seeds derive from (seed, genome digest),
    so results do not depend on evaluation scheduling.
    """
    rng = random.Random(params.seed)
    evaluate = partial(_evaluate_candidate, space=space,
                       budget=effective_budget(budget, constraint),
                       constraint=constraint, coeffs=coeffs, params=params)
    cache: dict[int, CandidateEval] = {}
    log: list[dict] = []
    with ThreadPoolExecutor(max_workers=threads) as executor:

        def feasible(nets: list[SubNetwork]) -> list[CandidateEval]:
            """The evaluation of each distinct genome of ``nets`` that meets
            the constraint, in first-seen order; genomes not yet cached are
            evaluated on the pool."""
            first: dict[int, SubNetwork] = {}
            for net in nets:
                first.setdefault(net.digest(), net)
            todo = {d: net for d, net in first.items() if d not in cache}
            cache.update(zip(todo, executor.map(evaluate, todo.values())))
            return [cache[d] for d in first if cache[d].feasible]

        new = [sample_random(space, rng) for _ in range(params.population)]
        pool = feasible(new)
        if not pool:
            raise EmptyPopulation("constraints eliminated the entire initial population")
        for iteration in range(params.iterations + 1):
            if iteration:
                # Parents are drawn in their rank order within the last pool.
                parents = [c.net for c in population]
                new = []
                n_cross = params.expand_size // 2
                for _ in range(n_cross):
                    a, b = rng.choice(parents), rng.choice(parents)
                    if rng.random() < params.crossover_prob:
                        new.append(crossover(space, a, b, rng))
                    else:
                        new.append(mutate(space, a, params.mutate_prob, rng))
                for _ in range(params.expand_size - n_cross):
                    new.append(mutate(space, rng.choice(parents), params.mutate_prob, rng))
                pool = feasible(parents + new)
            population = [c for _, c in _ranked(pool)[: params.population]]
            # Ranks within the retained population, comparable across iterations.
            ranked = _ranked(population)
            log.append(_log_row(iteration, len(new), ranked))
            if progress:
                progress(f"iteration {iteration}: population {len(population)}")

    return CoSearchResult(ranked[: params.top_k], ranked, log, len(cache))


def _log_row(iteration: int, new_evals: int, ranked: list[tuple[int, CandidateEval]]) -> dict:
    """Per-iteration statistics of the retained population, ranked within it."""
    ranks = [r for r, _ in ranked]
    members = [c for _, c in ranked]
    finite = [m for m in members if m.zen is not None]
    return {
        "iteration": iteration,
        "candidates": new_evals,
        "population": len(members),
        "best_combined_rank": min(ranks),
        "mean_combined_rank": sum(ranks) / len(ranks),
        "best_nn_degree": max((m.nn_degree for m in finite), default=float("nan")),
        "best_zen_score": max((m.zen for m in finite), default=float("nan")),
        "best_throughput_gops": max(m.report.throughput_gops for m in members),
        "best_fps": max(m.report.fps for m in members),
        "min_latency_ms": min(m.report.latency_s for m in members) * 1e3,
    }
