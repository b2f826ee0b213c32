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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from typing import Callable, Sequence

import numpy as np

from . import zeroshot
from .accel import (
    AcceleratorConfig,
    ChunkConfig,
    ChunkEval,
    Dataflow,
    EnergyCoeffs,
    HardwareBudget,
    InfeasibleBudget,
    LoopOrder,
    LUT_PER_PE,
    PerfReport,
    TileExceedsBuffer,
    chunk_lut,
    evaluate_dataflows,
    layer_latency,
    min_gb_size,
    pipeline_perf,
    tiling_candidates,
)
from .nn import NonFiniteScore, instantiate
from .search_space import (
    LayerDescriptor,
    LayerType,
    MacProfile,
    SearchSpace,
    SubNetwork,
    count_macs,
    crossover,
    expand,
    mutate,
    sample_random,
    validate,
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


@dataclass
class SearchStats:
    """Node accounting. ``evaluated_nodes`` counts (pe, loop order, tiling)
    candidates whose latency was computed; ``joint_space_nodes`` is the size
    of the flat joint space a vanilla enumeration would visit."""

    evaluated_nodes: int = 0
    joint_space_nodes: int = 0

    def add(self, other: "SearchStats") -> None:
        self.evaluated_nodes += other.evaluated_nodes
        self.joint_space_nodes += other.joint_space_nodes


def split_by_type(layers: Sequence[LayerDescriptor]) -> dict[LayerType, list[LayerDescriptor]]:
    out: dict[LayerType, list[LayerDescriptor]] = {k: [] for k in _KIND_ORDER}
    for layer in layers:
        out[layer.op_type].append(layer)
    return out


def _minimal_dataflow() -> Dataflow:
    return Dataflow(LoopOrder.WS, (1, 1, 1, 1, 1))


def manual_dataflow(layers: Sequence[LayerDescriptor]) -> Dataflow:
    """Hand-style fixed mapping used by the ablation baselines: weight
    stationary with a 16x16 channel block over an 8x8 output block."""
    if not layers:
        return _minimal_dataflow()
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
    by_dsp = int(2 * budget.usable_dsp)
    lut_room = budget.lut_total - budget.lut_overhead \
        - LUT_PER_PE[LayerType.SHIFT] - LUT_PER_PE[LayerType.ADDER]
    by_lut = lut_room // LUT_PER_PE[LayerType.CONV]
    pe = min(by_dsp, by_lut)
    if pe < 1:
        raise InfeasibleBudget(
            f"budget admits no conv PE (dsp={budget.dsp_total}, lut={budget.lut_total})"
        )
    return pe


@dataclass
class CoarseResult:
    chunk: ChunkConfig
    gb_bytes: int          # provisional: the full buffer budget
    cycles: int
    stats: SearchStats
    had_conv: bool


def _chunk_evals(kind: LayerType, layers: Sequence[LayerDescriptor], pes: Sequence[int],
                 gb: int, budget: HardwareBudget, search: bool,
                 stats: SearchStats) -> dict[int, ChunkEval]:
    """Per-chunk table: for every PE count, the chunk's best dataflow by full
    sweep, or with ``search`` off the hand dataflow scored layer by layer."""
    table = {}
    for pe in pes:
        if search:
            ev = evaluate_dataflows(kind, layers, pe, gb, budget)
        else:
            df = manual_dataflow(layers)
            chunk = ChunkConfig(kind, pe, df)
            try:
                cycles = sum(layer_latency(l, chunk, gb, budget) for l in layers)
            except TileExceedsBuffer as exc:
                raise InfeasibleBudget(
                    f"hand dataflow tile {df.tiling} of chunk {kind.short} does not fit: {exc}"
                ) from exc
            ev = ChunkEval(df, cycles, 0, 1, 1)
        stats.add(SearchStats(ev.nodes, ev.nodes))
        table[pe] = ev
    return table


def _best_design(layers: Sequence[LayerDescriptor], tables: dict[LayerType, dict[int, ChunkEval]],
                 budget: HardwareBudget, stats: SearchStats) -> tuple[AcceleratorConfig, int]:
    """Pick the PE combination of the per-chunk tables that fits the LUT
    budget with the smallest pipeline interval (ties: fewer LUTs, then
    smaller PE counts), then shrink the buffer to the smallest size that
    holds every chosen tile. Returns the design and its interval."""
    table_c, table_s, table_a = (tables[k] for k in _KIND_ORDER)
    avail = budget.lut_total - budget.lut_overhead
    best = None
    for pe_c, pe_s, pe_a in itertools.product(sorted(table_c), sorted(table_s),
                                              sorted(table_a)):
        luts = chunk_lut(pe_c, pe_s, pe_a)
        if luts > avail:
            continue
        stats.evaluated_nodes += 1
        interval = max(table_c[pe_c].cycles, table_s[pe_s].cycles, table_a[pe_a].cycles)
        key = (interval, luts, pe_c, pe_s, pe_a)
        if best is None or key < best:
            best = key
    if best is None:
        raise InfeasibleBudget("no PE combination fits the LUT budget")
    interval, _, *pes = best
    chunks = [ChunkConfig(kind, pe, tables[kind][pe].dataflow)
              for kind, pe in zip(_KIND_ORDER, pes)]
    cfg = AcceleratorConfig(*chunks, gb_bytes=budget.gb_bytes_max)
    cfg = replace(cfg, gb_bytes=max(1, min_gb_size(cfg, layers, budget)))
    cfg.assert_fits(budget)
    return cfg, interval


def coarse_search(layers: Sequence[LayerDescriptor], budget: HardwareBudget,
                  search: bool = True) -> CoarseResult:
    """Phase one: fix the conv chunk at the maximum PE count and pick its
    best dataflow by full sweep, with the buffer provisionally at maximum.
    With ``search`` off the conv chunk keeps the hand dataflow. A workload
    without conv layers gets a single idle conv PE."""
    conv_layers = split_by_type(layers)[LayerType.CONV]
    if search or conv_layers:
        pe_c = max_conv_pes(budget)
    if not conv_layers:
        if search:
            warnings.warn("no conv layers; conv chunk degenerates to a single PE",
                          NoConvLayers, stacklevel=2)
        pe_c = 1
    gb = budget.gb_bytes_max
    stats = SearchStats()
    ev = _chunk_evals(LayerType.CONV, conv_layers, [pe_c], gb, budget, search, stats)[pe_c]
    return CoarseResult(ChunkConfig(LayerType.CONV, pe_c, ev.dataflow), gb, ev.cycles,
                        stats, had_conv=bool(conv_layers))


def eq9_pe_init(macs: MacProfile, pe_c: int) -> tuple[float, float, int, int]:
    """Balanced PE allocation: pe per chunk proportional to its MAC share.

    Returns (raw shift, raw adder, rounded shift, rounded adder); rounded
    values are clamped to >= 1. A workload with no conv MACs falls back to
    proportions over the multiplication-free work alone.
    """
    if macs.conv > 0:
        raw_s = pe_c * macs.shift / macs.conv
        raw_a = pe_c * macs.adder / macs.conv
    else:
        rest = macs.shift + macs.adder
        raw_s = pe_c * macs.shift / rest if rest else 0.0
        raw_a = pe_c * macs.adder / rest if rest else 0.0
    return raw_s, raw_a, max(1, round(raw_s)), max(1, round(raw_a))


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


@dataclass
class FineResult:
    config: AcceleratorConfig
    interval_cycles: int
    stats: SearchStats


def fine_search(
    layers: Sequence[LayerDescriptor],
    budget: HardwareBudget,
    coarse: CoarseResult,
    search: bool = True,
) -> FineResult:
    """Phase two: size and map the shift/adder chunks, then shrink the buffer.

    PE counts start at the MAC-balanced allocation, clamped to the LUT
    budget. With ``search`` on they are refined over a multiplicative grid
    and each candidate count gets a full dataflow sweep; with it off the
    balanced counts keep the hand dataflow. The winner minimizes the
    pipeline interval, with ties broken by fewer total LUTs, then smaller
    PE counts.
    """
    by_type = split_by_type(layers)
    pe_c = coarse.chunk.pe_count
    lut_s, lut_a = LUT_PER_PE[LayerType.SHIFT], LUT_PER_PE[LayerType.ADDER]
    avail = budget.lut_total - budget.lut_overhead - LUT_PER_PE[LayerType.CONV] * pe_c
    if avail < lut_s + lut_a:
        raise InfeasibleBudget(
            f"LUT budget {budget.lut_total} cannot host minimal chunks beside {pe_c} conv PEs"
        )
    _, _, init_s, init_a = eq9_pe_init(count_macs(layers), pe_c)
    init_s, init_a = _clamp_pair_to_lut(init_s, init_a, avail)

    steps = FINETUNE_STEPS if search else (1.0,)
    stats = SearchStats()
    tables = {LayerType.CONV: {pe_c: ChunkEval(coarse.chunk.dataflow, coarse.cycles, 0, 0, 0)}}
    for kind, init in ((LayerType.SHIFT, init_s), (LayerType.ADDER, init_a)):
        pes = sorted({max(1, round(init * m)) for m in steps})
        tables[kind] = _chunk_evals(kind, by_type[kind], pes, coarse.gb_bytes, budget,
                                    search, stats)
    cfg, interval = _best_design(layers, tables, budget, stats)
    return FineResult(cfg, interval, stats)


@dataclass
class AccelSearchResult:
    config: AcceleratorConfig
    report: PerfReport
    stats: SearchStats


def search_accelerator_layers(
    layers: Sequence[LayerDescriptor],
    budget: HardwareBudget,
    coeffs: EnergyCoeffs,
    coarse_phase: bool = True,
    fine_phase: bool = True,
) -> AccelSearchResult:
    """Coarse-to-fine search over a concrete layer workload.

    The two flags reproduce the ablation baselines: with ``coarse_phase``
    off, the conv chunk keeps the hand dataflow at maximum PEs; with
    ``fine_phase`` off, the shift/adder chunks keep the MAC-balanced PE
    counts and the hand dataflow.
    """
    coarse = coarse_search(layers, budget, search=coarse_phase)
    fine = fine_search(layers, budget, coarse, search=fine_phase)
    stats = SearchStats()
    stats.add(coarse.stats)
    stats.add(fine.stats)
    report = pipeline_perf(layers, None, fine.config, budget, coeffs)
    return AccelSearchResult(fine.config, report, stats)


def search_accelerator(
    net: SubNetwork,
    space: SearchSpace,
    budget: HardwareBudget,
    coeffs: EnergyCoeffs,
) -> tuple[AcceleratorConfig, PerfReport]:
    validate(space, net)
    result = search_accelerator_layers(expand(space, net), budget, coeffs)
    return result.config, result.report


def oracle_layers(
    layers: Sequence[LayerDescriptor],
    budget: HardwareBudget,
    coeffs: EnergyCoeffs,
    grid: dict[str, Sequence[int]],
    node_cap: int = DEFAULT_NODE_CAP,
) -> AccelSearchResult:
    """Exhaustive joint optimum over (PE grid x 64 loop-order combinations x
    feasible tilings), same objective and tie-breaks as the fine search.

    Per-chunk latency is independent given the (maximum) provisional buffer,
    so the joint space is covered by combining per-chunk sweeps with a full
    scan of PE triples; ``joint_space_nodes`` reports the flat space size.
    """
    by_type = split_by_type(layers)
    grids = {}
    for kind in _KIND_ORDER:
        pts = sorted(set(int(p) for p in grid[kind.value]))
        if not pts or min(pts) < 1:
            raise ValueError(f"grid for {kind.value} must hold positive PE counts")
        grids[kind] = pts
    max_pe_c = int(2 * budget.usable_dsp)
    grids[LayerType.CONV] = [p for p in grids[LayerType.CONV] if p <= max_pe_c] or [1]

    n_tilings = {k: len(tiling_candidates(by_type[k])) for k in _KIND_ORDER}
    joint = 1
    for kind in _KIND_ORDER:
        joint *= len(grids[kind]) * 4 * n_tilings[kind]
    if joint > node_cap:
        raise GridTooLarge(f"joint space {joint:.3g} exceeds node cap {node_cap:.3g}")

    gb = budget.gb_bytes_max
    stats = SearchStats()
    tables = {kind: _chunk_evals(kind, by_type[kind], grids[kind], gb, budget, True, stats)
              for kind in _KIND_ORDER}
    cfg, _ = _best_design(layers, tables, budget, stats)
    stats.joint_space_nodes = joint
    report = pipeline_perf(layers, None, cfg, budget, coeffs)
    return AccelSearchResult(cfg, report, stats)


def exhaustive_oracle(
    net: SubNetwork,
    space: SearchSpace,
    budget: HardwareBudget,
    coeffs: EnergyCoeffs,
    grid: dict[str, Sequence[int]],
    node_cap: int = DEFAULT_NODE_CAP,
) -> tuple[AcceleratorConfig, PerfReport]:
    validate(space, net)
    result = oracle_layers(expand(space, net), budget, coeffs, grid, node_cap)
    return result.config, result.report


# ---------------------------------------------------------------------------
# Evolutionary co-search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchParams:
    population: int = 100
    expand_size: int = 50
    mutate_prob: float = 0.2
    crossover_prob: float = 0.2
    iterations: int = 15
    top_k: int = 3
    seed: int = 0
    zen_alpha: float = zeroshot.ZEN_ALPHA
    zen_batch: int = zeroshot.ZEN_BATCH
    zen_repeats: int = zeroshot.ZEN_REPEATS

    def __post_init__(self):
        if self.top_k > self.population:
            raise ValueError("top_k must not exceed the population size")
        if self.population < 1 or self.expand_size < 0 or self.iterations < 0:
            raise ValueError("population/expand/iterations must be non-negative")
        for p in (self.mutate_prob, self.crossover_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must lie in [0, 1]")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "SearchParams":
        defaults = cls()
        return cls(**{k: d.get(k, getattr(defaults, k)) for k in defaults.to_dict()})


@dataclass(frozen=True)
class Constraint:
    max_dsp: int | None = None
    max_lut: int | None = None
    max_latency_s: float | None = None
    min_gops: float | None = None

    def __post_init__(self):
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
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Constraint":
        return cls(**{f.name: d.get(f.name) for f in fields(cls)})


def effective_budget(budget: HardwareBudget, constraint: Constraint) -> HardwareBudget:
    """Shrink platform resources to the constraint caps so the hardware
    search itself targets the allowed envelope; latency/throughput bounds
    still filter candidates afterwards."""
    d = budget.to_dict()
    if constraint.max_lut is not None:
        d["lut_total"] = min(budget.lut_total, constraint.max_lut)
    if constraint.max_dsp is not None:
        d["dsp_total"] = min(budget.dsp_total, math.ceil(constraint.max_dsp / budget.dsp_reserve_frac))
    eff = HardwareBudget.from_dict(d)
    return eff


@dataclass
class CandidateEval:
    net: SubNetwork
    config: AcceleratorConfig | None
    report: PerfReport | None
    nn_degree: float | None
    zen: float | None
    degenerate: bool = False
    reject_reason: str | None = None

    @property
    def feasible(self) -> bool:
        return self.report is not None and self.reject_reason is None


@dataclass
class CandidateRecord:
    net: SubNetwork
    config: AcceleratorConfig
    report: PerfReport
    score: zeroshot.ZeroShotScore

    def to_dict(self) -> dict:
        def _finite(v):
            return v if math.isfinite(v) else None  # degenerate scores -> null

        return {
            "genome": list(self.net.to_flat()),
            "genome_compact": self.net.compact(),
            "accelerator": self.config.to_dict(),
            "performance": self.report.to_dict(),
            "nn_degree": _finite(self.score.nn_degree),
            "zen_score": _finite(self.score.zen_score),
            "combined_rank": self.score.combined_rank,
        }


@dataclass
class CoSearchResult:
    entries: list[CandidateRecord]          # top-k, best combined rank first
    population: list[CandidateRecord]       # full final population, ranked
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
    layers = expand(space, net)
    try:
        result = search_accelerator_layers(layers, budget, coeffs)
    except InfeasibleBudget as exc:
        return CandidateEval(net, None, None, None, None, reject_reason=str(exc))
    reason = constraint.rejects(result.report)
    if reason is not None:
        return CandidateEval(net, result.config, result.report, None, None,
                             reject_reason=reason)
    nn_val, zen_val = zero_shot_scores(net, space, params, params.seed)
    return CandidateEval(net, result.config, result.report, nn_val, zen_val,
                         degenerate=zen_val is None)


def zero_shot_scores(
    net: SubNetwork,
    space: SearchSpace,
    params: SearchParams,
    seed: int,
) -> tuple[float, float | None]:
    """nn_degree and Zen score of one genome. Weight and Zen input seeds
    derive from (seed, genome digest); the Zen score is None when the
    network's perturbation response degenerates."""
    nn_val = zeroshot.nn_degree(space, net)
    weight_seed, zen_seed = derive_seeds(seed, net.digest())
    try:
        hybrid = instantiate(net, space, weight_seed)
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


def _rank_pool(pool: list[CandidateEval]) -> dict[int, int]:
    """Combined rank per candidate digest; degenerate candidates rank last."""
    ranks = rank_scores([(c.nn_degree, None if c.degenerate else c.zen) for c in pool])
    return {c.net.digest(): r for c, r in zip(pool, ranks)}


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
    eff_budget = effective_budget(budget, constraint)
    cache: dict[int, CandidateEval] = {}
    evaluations = 0

    def evaluate_all(nets: list[SubNetwork]) -> None:
        nonlocal evaluations
        todo = []
        seen = set()
        for net in nets:
            key = net.digest()
            if key not in cache and key not in seen:
                seen.add(key)
                todo.append(net)
        if not todo:
            return
        evaluations += len(todo)
        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(
                    pool.map(
                        lambda n: _evaluate_candidate(
                            n, space, eff_budget, constraint, coeffs, params
                        ),
                        todo,
                    )
                )
        else:
            results = [
                _evaluate_candidate(n, space, eff_budget, constraint, coeffs, params)
                for n in todo
            ]
        for net, ev in zip(todo, results):
            cache[net.digest()] = ev

    initial = [sample_random(space, rng) for _ in range(params.population)]
    evaluate_all(initial)
    population = _dedupe_feasible(initial, cache)
    if not population:
        raise EmptyPopulation("constraints eliminated the entire initial population")

    log: list[dict] = []
    ranks = _rank_pool([cache[d] for d in population])
    population = sorted(population, key=lambda d: (ranks[d], d))[: params.population]
    log.append(_log_row(0, len(initial), population, cache))
    if progress:
        progress(f"iteration 0: population {len(population)}")

    for iteration in range(1, params.iterations + 1):
        parents = [cache[d].net for d in population]
        offspring: list[SubNetwork] = []
        n_cross = params.expand_size // 2
        for _ in range(n_cross):
            a, b = rng.choice(parents), rng.choice(parents)
            if rng.random() < params.crossover_prob:
                offspring.append(crossover(space, a, b, rng))
            else:
                offspring.append(mutate(space, a, params.mutate_prob, rng))
        for _ in range(params.expand_size - n_cross):
            offspring.append(mutate(space, rng.choice(parents), params.mutate_prob, rng))
        evaluate_all(offspring)
        pool_digests = _dedupe_feasible([cache[d].net for d in population] + offspring, cache)
        if not pool_digests:
            raise EmptyPopulation(f"iteration {iteration}: no feasible candidates remain")
        ranks = _rank_pool([cache[d] for d in pool_digests])
        pool_sorted = sorted(pool_digests, key=lambda d: (ranks[d], d))
        population = pool_sorted[: params.population]
        log.append(_log_row(iteration, len(offspring), population, cache))
        if progress:
            progress(f"iteration {iteration}: population {len(population)}")

    final_ranks = _rank_pool([cache[d] for d in population])
    ordered = sorted(population, key=lambda d: (final_ranks[d], d))
    records = []
    for d in ordered:
        ev = cache[d]
        records.append(
            CandidateRecord(
                net=ev.net,
                config=ev.config,
                report=ev.report,
                score=zeroshot.ZeroShotScore(
                    nn_degree=ev.nn_degree if ev.nn_degree is not None else float("nan"),
                    zen_score=ev.zen if ev.zen is not None else float("nan"),
                    combined_rank=final_ranks[d],
                ),
            )
        )
    return CoSearchResult(
        entries=records[: params.top_k],
        population=records,
        log=log,
        evaluations=evaluations,
    )


def _dedupe_feasible(nets: list[SubNetwork], cache: dict[int, CandidateEval]) -> list[int]:
    seen = []
    used = set()
    for net in nets:
        d = net.digest()
        if d in used:
            continue
        used.add(d)
        if cache[d].feasible:
            seen.append(d)
    return seen


def _log_row(iteration: int, new_evals: int, population: list[int],
             cache: dict[int, CandidateEval]) -> dict:
    """Per-iteration statistics. Ranks are recomputed within the retained
    population so the columns are comparable across iterations."""
    members = [cache[d] for d in population]
    ranks = _rank_pool(members)
    rank_vals = [ranks[d] for d in population]
    finite = [m for m in members if not m.degenerate]
    return {
        "iteration": iteration,
        "candidates": new_evals,
        "population": len(population),
        "best_combined_rank": min(rank_vals),
        "mean_combined_rank": sum(rank_vals) / len(rank_vals),
        "best_nn_degree": max((m.nn_degree for m in finite), default=float("nan")),
        "best_zen_score": max((m.zen for m in finite), default=float("nan")),
        "best_throughput_gops": max(m.report.throughput_gops for m in members),
        "best_fps": max(m.report.fps for m in members),
        "min_latency_ms": min(m.report.latency_s for m in members) * 1e3,
    }
