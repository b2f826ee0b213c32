"""Independent straight-line references used as oracles by the tests.

Everything here is implemented with plain loops and explicit formulas,
deliberately not reusing the package's forward engine or its layer cost
kernels (``ref_layer_terms`` and ``ref_layer_cycles`` price a layer term by
term). The exceptions are the classifier head and the float64 shift
quantizer, which the package no longer carries: ``ref_logits`` runs the
package's layers, and ``ref_instantiate`` draws the full classifier.
It also holds the scalar fixture forms of the package's vector metrics
(``nn_degree_terms``, ``rank_of``, ``combined_score``) and genome-level
wrappers only the tests use (``is_valid``, ``smallest_genome``,
``exhaustive_oracle``), the co-search loop in its serial form
(``ref_cosearch``), and the oracle comparison as four independent
searches (``ref_compare_workloads``).
"""

import math
import random
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from chunknas import nn
from chunknas.accel import (
    ChunkConfig,
    ChunkEval,
    Dataflow,
    HardwareBudget,
    InfeasibleBudget,
    LoopOrder,
    TileExceedsBuffer,
)
from chunknas.cosearch import (
    DEFAULT_NODE_CAP,
    CoSearchResult,
    EmptyPopulation,
    _evaluate_candidate,
    effective_budget,
    oracle_layers,
    rank_scores,
    search_accelerator_layers,
)
from chunknas.nn import HybridLayer, NonFiniteScore
from chunknas.reproduce import WorkloadComparison
from chunknas.search_space import (
    NUM_HEAD_LAYERS,
    LayerDescriptor,
    LayerType,
    MembershipViolation,
    _assemble,
    _fields,
    crossover,
    expand,
    expand_blocks,
    mutate,
    sample_random,
    validate,
)

BN_EPS = 1e-5
SHIFT_P_MIN = -6
SHIFT_P_MAX = 1


def ref_conv_same(x, w, stride):
    """Loop-based cross-correlation with ceil(h/stride) same padding."""
    b, ci, hh, ww = x.shape
    co, ci_g, k, _ = w.shape
    oh, ow = math.ceil(hh / stride), math.ceil(ww / stride)
    ph = max((oh - 1) * stride + k - hh, 0)
    pw = max((ow - 1) * stride + k - ww, 0)
    xp = np.pad(x, ((0, 0), (0, 0), (ph // 2, ph - ph // 2), (pw // 2, pw - pw // 2)))
    out = np.zeros((b, co, oh, ow))
    for bi in range(b):
        for o in range(co):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[bi, :, i * stride : i * stride + k, j * stride : j * stride + k]
                    out[bi, o, i, j] = float(np.sum(patch * w[o]))
    return out


def ref_adder_same(x, w, stride):
    b, ci, hh, ww = x.shape
    co, _, k, _ = w.shape
    oh, ow = math.ceil(hh / stride), math.ceil(ww / stride)
    ph = max((oh - 1) * stride + k - hh, 0)
    pw = max((ow - 1) * stride + k - ww, 0)
    xp = np.pad(x, ((0, 0), (0, 0), (ph // 2, ph - ph // 2), (pw // 2, pw - pw // 2)))
    out = np.zeros((b, co, oh, ow))
    for bi in range(b):
        for o in range(co):
            for i in range(oh):
                for j in range(ow):
                    patch = xp[bi, :, i * stride : i * stride + k, j * stride : j * stride + k]
                    out[bi, o, i, j] = -float(np.sum(np.abs(patch - w[o])))
    return out


def ref_zen_score(weights, strides, x, eps, alpha):
    """Perturbation-sensitivity score of a plain conv stack, from scratch.

    Every layer but the last is followed by batch norm (batch statistics,
    no affine) and ReLU. The score is log ||f(x) - f(x + alpha*eps)||_F plus,
    for every normalized layer and batch sample, log sqrt(channel-mean of the
    pre-normalization per-sample spatial variance + eps).
    """

    def forward(inp, record):
        stats = []
        h = inp.astype(np.float64)
        for idx, (w, s) in enumerate(zip(weights, strides)):
            h = ref_conv_same(h, w.astype(np.float64), s)
            if idx == len(weights) - 1:
                break
            if record:
                per_sample = h.reshape(h.shape[0], h.shape[1], -1).var(axis=2)
                stats.append(per_sample)
            mean = h.mean(axis=(0, 2, 3), keepdims=True)
            var = h.var(axis=(0, 2, 3), keepdims=True)
            h = (h - mean) / np.sqrt(var + BN_EPS)
            h = np.maximum(h, 0.0)
        return h, stats

    y0, stats = forward(x, record=True)
    y1, _ = forward(x + alpha * eps, record=False)
    delta = float(np.sqrt(np.sum((y0 - y1) ** 2)))
    score = math.log(delta)
    for per_sample in stats:
        for k in range(per_sample.shape[0]):
            score += math.log(math.sqrt(float(per_sample[k].mean()) + BN_EPS))
    return score


def ref_patches(x, kernel, stride):
    """Sliding windows of the same-padded (np.pad) channels-last input:
    (B, OH, OW, C, k, k), a view of the padded copy."""
    _, h, w, _ = x.shape
    oh, ow = -(-h // stride), -(-w // stride)
    ph = max((oh - 1) * stride + kernel - h, 0)
    pw = max((ow - 1) * stride + kernel - w, 0)
    xp = np.pad(x, ((0, 0), (ph // 2, ph - ph // 2), (pw // 2, pw - pw // 2), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kernel, kernel), axis=(1, 2))
    return win[:, ::stride, ::stride]


def ref_layer_forward(layer, x):
    """A hybrid layer's output on a channels-last batch, computed the
    straightforward way, with the value bits and memory layout the
    package's forward must reproduce (a C-contiguous (B, OH, OW, O) array).

    Dense layers read one row per output position, (B*OH*OW, C*k*k) in the
    weight's (C, k, k) order (the input itself for 1x1): conv and shift
    multiply the weight by each sample's rows, transposed, and transpose
    the product back; the adder takes cdist of the rows.
    Depthwise layers sum over the k*k taps of the zero-padded input in
    kernel order, into an accumulator that starts at zero (conv, shift:
    tap times weight) or, for the adder, at the float64 sum of |w| over
    the taps that read padding, rounded to the input's dtype; each tap then
    adds |x - w| where it reads the input."""
    d = layer.desc
    b, h, w, c = x.shape
    k, oh, ow = d.kernel, d.out_h, d.out_w
    if d.groups == 1:
        rows = ref_patches(x, k, d.stride).reshape(b * oh * ow, c * k * k) \
            if k > 1 or d.stride > 1 else x.reshape(b * h * w, c)
        wmat = layer.weight.reshape(d.out_channels, -1)
        if d.op_type is LayerType.ADDER:
            out = -cdist(rows, wmat, metric="cityblock").astype(x.dtype)
        else:
            per_sample = rows.reshape(b, oh * ow, -1).transpose(0, 2, 1)
            out = np.ascontiguousarray(np.matmul(wmat, per_sample).transpose(0, 2, 1))
        return out.reshape(b, oh, ow, d.out_channels)
    ph = max((oh - 1) * d.stride + k - h, 0)
    pw = max((ow - 1) * d.stride + k - w, 0)
    pads = ((ph // 2, ph - ph // 2), (pw // 2, pw - pw // 2))
    xp = np.pad(x, ((0, 0), *pads, (0, 0)))
    inside = np.pad(np.ones((h, w), dtype=bool), pads)
    dtype = np.result_type(x, layer.weight)
    adder = d.op_type is LayerType.ADDER
    if adder:
        padding_l1 = np.zeros((oh, ow, c))
        for i in range(k):
            for j in range(k):
                read_pad = ~inside[i : i + (oh - 1) * d.stride + 1 : d.stride,
                                   j : j + (ow - 1) * d.stride + 1 : d.stride]
                padding_l1 += read_pad[..., None] * np.abs(layer.weight[:, 0, i, j].astype(np.float64))
        acc = np.broadcast_to(padding_l1.astype(dtype), (b, oh, ow, c)).copy()
    else:
        acc = np.zeros((b, oh, ow, c), dtype=dtype)
    for i in range(k):
        for j in range(k):
            rows = slice(i, i + (oh - 1) * d.stride + 1, d.stride)
            cols = slice(j, j + (ow - 1) * d.stride + 1, d.stride)
            tap = xp[:, rows, cols]
            wt = layer.weight[:, 0, i, j]
            if adder:
                acc += np.where(inside[rows, cols][..., None], np.abs(tap - wt), 0)
            else:
                acc += tap * wt
    return -acc if adder else acc


def ref_quantize_shift(w, p_min=SHIFT_P_MIN, p_max=SHIFT_P_MAX):
    """Power-of-two quantization through float64 log2: s = sign(w),
    p = round(log2|w|) clamped to [p_min, p_max]. Zeros map to (+1, p_min).
    Scalars give a (sign, exponent) pair of ints, arrays a pair of arrays."""
    scalar = np.ndim(w) == 0
    w = np.array(w, dtype=np.float64, ndmin=1)
    s = np.where(w < 0, np.int8(-1), np.int8(1))
    p = np.abs(w)
    with np.errstate(divide="ignore"):
        np.log2(p, out=p)  # log2(0) = -inf clamps to p_min
    np.rint(p, out=p)
    p = np.clip(p, p_min, p_max, out=p).astype(np.int32)
    if scalar:
        return int(s[0]), int(p[0])
    return s, p


def ref_shift_weight_value(s, p):
    """The float32 weight s * 2**p of a (sign, exponent) pair."""
    return np.asarray(s, dtype=np.float32) * np.exp2(np.asarray(p, dtype=np.float32))


@dataclass
class RefDraw:
    """Every layer of a genome drawn the way the full classifier was:
    feature layers, then the head (MBPool 1x1 conv and classifier), with
    the (sign, exponent) code of each shift layer by layer index."""

    layers: list
    head: list
    shift_codes: dict


def ref_instantiate(net, space, seed, p_min=SHIFT_P_MIN, p_max=SHIFT_P_MAX):
    """He-style N(0, 2/fan_in) draws for every layer of the expansion, head
    included, in expansion order from ``default_rng(seed)``, all up front;
    shift weights through the float64 quantizer."""
    descs, _ = expand_blocks(space, net)
    rng = np.random.default_rng(seed)
    layers, codes = [], {}
    for i, d in enumerate(descs):
        fan_in = (d.in_channels // d.groups) * d.kernel ** 2
        shape = (d.out_channels, d.in_channels // d.groups, d.kernel, d.kernel)
        w = rng.standard_normal(shape, dtype=np.float32)
        w *= np.float32(np.sqrt(2.0 / fan_in))
        if d.op_type is LayerType.SHIFT:
            codes[i] = ref_quantize_shift(w, p_min, p_max)
            w = ref_shift_weight_value(*codes[i])
        layers.append(HybridLayer(d, w))
    return RefDraw(layers[:-NUM_HEAD_LAYERS], layers[-NUM_HEAD_LAYERS:], codes)


def ref_logits(net, head, x):
    """The classifier forward on an NCHW batch, as NCHW logits: every
    feature layer normalized (residual sums after the ReLU), then the
    MBPool conv, batch norm, ReLU, global average pool and the classifier,
    all channels-last, on the layers of ``net.draw_layers()``. It composes
    ``HybridLayer.forward`` and
    ``nn._batch_norm`` as looked up at call time, so a test can swap in the
    reference formulas."""
    x = x.transpose(0, 2, 3, 1)
    starts = {b.first_layer: b for b in net.blocks}
    saved = end = None
    for idx, layer in enumerate(net.draw_layers()):
        blk = starts.get(idx)
        if blk is not None and blk.residual_channels:
            saved, end = x, blk.first_layer + blk.num_layers - 1
        x = nn._batch_norm(layer.forward(x), None)
        np.maximum(x, 0.0, out=x)
        if idx == end:
            x = x + saved
            saved = end = None
    y = nn._batch_norm(head[0].forward(x), None)
    np.maximum(y, 0.0, out=y)
    y = y.mean(axis=(1, 2), keepdims=True)
    return head[1].forward(y).transpose(0, 3, 1, 2)


def ref_batch_norm(x, sample_var_sink):
    """Batch statistics, no affine, of a channels-last array: per-sample
    spatial means in float64, per-sample variances about those means
    (rounded to x's dtype), combined over the batch in float64; the output
    is (x - m_b) + (m_b - m), divided by sqrt(var + eps), in x's dtype."""
    sample_mean = x.mean(axis=(1, 2), dtype=np.float64)
    centre = sample_mean.astype(x.dtype)[:, None, None, :]
    d = x - centre
    sample_var = np.square(d).mean(axis=(1, 2), dtype=np.float64)
    mean = sample_mean.mean(axis=0)
    var = (sample_var + (sample_mean - mean) ** 2).mean(axis=0)
    if sample_var_sink is not None:
        sample_var_sink.append(sample_var)
    return (d + (centre - mean).astype(x.dtype)) / np.sqrt(var + BN_EPS).astype(x.dtype)


def zen_perturbation_term(net, alpha, batch, rng):
    """The first Zen term alone, log ||f(x) - f(x + alpha*eps)||_F on one
    Gaussian draw (no batch-norm statistics), for linearity fixtures."""
    res = net.input_resolution
    x = rng.standard_normal((batch, net.in_channels, res, res), dtype=np.float32)
    eps = rng.standard_normal((batch, net.in_channels, res, res), dtype=np.float32)
    y0, y1 = net.feature_forward(np.stack([x, x + alpha * eps]))
    return math.log(float(np.linalg.norm((y0 - y1).ravel())))


def ref_feature_forward(layers, blocks, x, sample_var_sink=None):
    """One NCHW batch through eagerly drawn feature layers (``RefDraw.layers``)
    on its own: ``ref_layer_forward``, then ``ref_batch_norm`` and ReLU on
    every layer but the last, residual sums at block ends. Returns the last
    raw layer output, channels-last; NonFiniteScore if it is not finite."""
    x = x.transpose(0, 2, 3, 1)
    starts = {b.first_layer: b for b in blocks}
    saved = end = None
    for idx, layer in enumerate(layers):
        blk = starts.get(idx)
        if blk is not None and blk.residual_channels:
            saved, end = x, blk.first_layer + blk.num_layers - 1
        x = ref_layer_forward(layer, x)
        if idx != len(layers) - 1:
            x = ref_batch_norm(x, sample_var_sink)
            np.maximum(x, 0.0, out=x)
        if idx == end:
            x = x + saved
            saved = end = None
    if not np.all(np.isfinite(x)):
        raise NonFiniteScore("non-finite activations")
    return x


def ref_zen_from_draws(layers, blocks, draws, alpha):
    """The Zen score of fixed (x, eps) draws from two separate forwards per
    draw, f(x) then f(x + alpha*eps), over eagerly drawn layers: log of the
    mean ||f(x) - f(x + alpha*eps)||_F plus the batch-norm term of the first
    draw's f(x). None when the perturbation response is exactly zero."""
    deltas, stats = [], []
    for r, (x, eps) in enumerate(draws):
        y0 = ref_feature_forward(layers, blocks, x, stats if r == 0 else None)
        y1 = ref_feature_forward(layers, blocks, x + alpha * eps)
        deltas.append(float(np.linalg.norm((y0 - y1).ravel())))
    bn_term = 0.0
    for var in stats:
        bn_term += float(np.sum(0.5 * np.log(var.mean(axis=1) + BN_EPS)))
    mean_delta = float(np.mean(deltas))
    if not math.isfinite(mean_delta) or not math.isfinite(bn_term):
        raise NonFiniteScore(f"non-finite score terms ({mean_delta}, {bn_term})")
    return math.log(mean_delta) + bn_term if mean_delta > 0 else None


def nn_degree_terms(out_channels, in_channels, residual):
    """One block's connectivity score: mean output channels, plus residual
    channels over the sum of input channels when the block has a residual."""
    if len(out_channels) != len(in_channels) or not out_channels:
        raise ValueError("need equal, non-empty channel lists")
    term = sum(out_channels) / len(out_channels)
    if residual:
        term += residual / sum(in_channels)
    return term


def rank_of(value, population):
    """Number of strictly greater scores; 0 means best. Ties share a rank."""
    return sum(1 for v in population if v > value)


def combined_score(candidate, population):
    """Rank-sum of (nn_degree, zen_score) within a population; lower is better."""
    return (rank_of(candidate[0], [p[0] for p in population])
            + rank_of(candidate[1], [p[1] for p in population]))


def is_valid(space, net):
    try:
        validate(space, net)
    except MembershipViolation:
        return False
    return True


def smallest_genome(space):
    """Smallest choice of every numeric field, first listed layer type."""
    values = [min(choices) if not isinstance(choices[0], LayerType) else choices[0]
              for _, _, choices in _fields(space)]
    return _assemble(values)


def exhaustive_oracle(net, space, budget, coeffs, grid, node_cap=DEFAULT_NODE_CAP):
    """``oracle_layers`` on a genome's expansion: (config, report)."""
    result = oracle_layers(expand(space, net), budget, coeffs, grid, node_cap)
    return result.config, result.report


def ref_compare_workloads(suite, coeffs, node_cap=DEFAULT_NODE_CAP):
    """``compare_workloads`` as four independent searches per workload, each
    sweeping its own chunks at its own PE counts."""
    budget = HardwareBudget.from_dict(suite["budget"])
    rows = []
    for wl in suite["workloads"]:
        layers = [LayerDescriptor.from_dict(d) for d in wl["layers"]]
        full = search_accelerator_layers(layers, budget, coeffs)
        fine_only = search_accelerator_layers(layers, budget, coeffs, coarse_phase=False)
        coarse_only = search_accelerator_layers(layers, budget, coeffs, fine_phase=False)
        oracle = oracle_layers(layers, budget, coeffs, suite["grid"], node_cap)
        thr, fine, coarse, best = (r.report.throughput_gops
                                   for r in (full, fine_only, coarse_only, oracle))
        rows.append(WorkloadComparison(
            name=wl["name"], thr_full=thr, thr_fine_only=fine, thr_coarse_only=coarse,
            thr_oracle=best, ratio=thr / best, exact_equal=thr == best,
            nodes_search=full.evaluated_nodes, nodes_oracle=oracle.joint_space_nodes,
            node_ratio=oracle.joint_space_nodes / full.evaluated_nodes,
            ordering_ok=thr >= fine - 1e-9 and fine >= coarse - 1e-9,
            equality_expected=wl.get("equality_expected", False),
            ordering_expected=wl.get("ordering_expected", True)))
    return rows


def _ladder(limit):
    vals = [1]
    while vals[-1] * 2 < limit:
        vals.append(vals[-1] * 2)
    return sorted(set(vals + [limit]))


def ref_tilings(layers):
    """Power-of-two ladder per tiled dimension up to the layer set's maxima."""
    ci = max(l.in_channels // l.groups for l in layers)
    co = max(l.out_channels for l in layers)
    h = max(l.out_h for l in layers)
    w = max(l.out_w for l in layers)
    return [(1, a, b, c, d) for a in _ladder(ci) for b in _ladder(co)
            for c in _ladder(h) for d in _ladder(w)]


def ref_working_set(layer, tiling, budget):
    """Double-buffered bytes of one layer's live input, weight and output tiles."""
    _, tci, tco, th, tw = tiling
    tci = min(tci, layer.in_channels // layer.groups)
    tco = min(tco, layer.out_channels)
    th = min(th, layer.out_h)
    tw = min(tw, layer.out_w)
    in_ch = tci if layer.groups == 1 else tco
    in_rows = (th - 1) * layer.stride + layer.kernel
    in_cols = (tw - 1) * layer.stride + layer.kernel
    in_b = in_ch * in_rows * in_cols * budget.act_bits / 8
    w_b = tco * tci * layer.kernel ** 2 * budget.weight_bits(layer.op_type) / 8
    out_b = tco * th * tw * budget.out_bits(layer.op_type) / 8
    return 2.0 * (in_b + w_b + out_b)


def ref_layer_terms(layer, budget, tci, tco, th, tw):
    """The cost model's PE-independent terms written out quantity by
    quantity on broadcast tile sizes, none beyond the layer's extents:
    (working set, tiles, MACs per tile, memory cycles of the four loop
    orders stacked in LoopOrder order). Memory cycles charge DRAM traffic
    under the stationary-operand reuse rule of each order."""
    ci, co = layer.in_channels // layer.groups, layer.out_channels
    k, dense = layer.kernel, layer.groups == 1
    n_ci = -(-ci // tci)
    n_co = -(-co // tco)
    n_h = -(-layer.out_h // th)
    n_w = -(-layer.out_w // tw)
    tiles = n_ci * n_co * n_h * n_w
    tile_macs = tci * tco * th * tw * k ** 2

    in_h = (th - 1) * layer.stride + k
    in_w = (tw - 1) * layer.stride + k
    in_ch = tci if dense else tco
    in_b = in_ch * in_h * in_w * (budget.act_bits / 8)
    w_b = tco * tci * k ** 2 * (budget.weight_bits(layer.op_type) / 8)
    o_b = tco * th * tw * (budget.out_bits(layer.op_type) / 8)
    dist_w = n_co * n_ci
    dist_o = n_co * n_h * n_w
    dist_i = (n_ci if dense else n_co) * n_h * n_w
    traffic = np.stack([
        dist_w * w_b + tiles * (in_b + o_b),           # WS
        dist_o * o_b + tiles * (in_b + w_b),           # OS
        dist_i * in_b + tiles * (w_b + o_b),           # IS
        dist_w * w_b + dist_i * in_b + tiles * o_b,    # RS
    ])
    ws = 2.0 * (in_b + w_b + o_b)  # double buffered
    return ws, tiles, tile_macs, np.ceil(traffic / budget.dram_bandwidth)


def ref_dataflows(layers, gb_bytes, budget):
    """Every dataflow whose tiles fit the buffer for all layers, loop order
    major, tilings in lexicographic order; InfeasibleBudget when none does."""
    fits = [t for t in ref_tilings(layers)
            if all(ref_working_set(l, t, budget) <= gb_bytes for l in layers)]
    if not fits:
        raise InfeasibleBudget(f"no tiling fits a {gb_bytes} B buffer")
    return [Dataflow(order, t) for order in LoopOrder for t in fits]


def ref_layer_cycles(layer, chunk, gb_bytes, budget):
    """One layer's cycles on its chunk: ``ref_layer_terms`` at the chunk's
    tiling clamped to the layer's extents, then max(compute, memory) of the
    chunk's loop order, where compute is tiles times ceil(tile MACs / PE
    count). A tile set over the buffer is a TileExceedsBuffer."""
    _, tci, tco, th, tw = chunk.dataflow.tiling
    ws, tiles, tile_macs, mem = ref_layer_terms(
        layer, budget, min(tci, layer.in_channels // layer.groups),
        min(tco, layer.out_channels), min(th, layer.out_h), min(tw, layer.out_w))
    if ws > gb_bytes:
        raise TileExceedsBuffer(f"tile working set {ws:.0f} B exceeds buffer {gb_bytes} B")
    return int(max(tiles * -(-tile_macs // chunk.pe_count), mem[chunk.dataflow.loop_order]))


def ref_best_dataflow(kind, layers, pe, gb_bytes, budget):
    """Brute-force sweep over ``ref_layer_cycles``: the dataflow minimizing
    (total cycles, buffer demand, loop order, tiling), with its cycles and
    buffer demand."""
    best = None
    flows = ref_dataflows(layers, gb_bytes, budget)
    for df in flows:
        cycles = sum(ref_layer_cycles(l, ChunkConfig(kind, pe, df), gb_bytes, budget)
                     for l in layers)
        ws = max(ref_working_set(l, df.tiling, budget) for l in layers)
        key = (cycles, ws, int(df.loop_order), df.tiling)
        if best is None or key < best[0]:
            best = (key, df)
    (cycles, ws, _, _), df = best
    return ChunkEval(df, cycles, ws)


def ref_chunk_grid(kind, layers, pes, budget):
    """The whole grid a chunk's sweep picks from, term by term: at each PE
    count, loop order and tiling of ``ref_tilings``, the sum of every
    layer's ``ref_layer_cycles`` (a (PE counts, 4, tilings) float64 array),
    and at each tiling the largest ``ref_working_set`` (a (tilings,) one)."""
    tilings = ref_tilings(layers)
    flows = [[Dataflow(order, t) for t in tilings] for order in LoopOrder]
    total = np.array([[[float(sum(ref_layer_cycles(l, ChunkConfig(kind, pe, df), math.inf, budget)
                                  for l in layers))
                        for df in row] for row in flows] for pe in pes])
    ws = np.array([max(ref_working_set(l, t, budget) for l in layers) for t in tilings])
    return total, ws


def ref_cosearch(space, budget, constraint, params, coeffs):
    """The co-search loop evaluated serially over a population of genome
    digests, which ranks every pool, every retained population (for its log
    row) and the final population afresh."""
    rng = random.Random(params.seed)
    eff_budget = effective_budget(budget, constraint)
    cache = {}

    def evaluate_all(nets):
        for net in nets:
            if net.digest() not in cache:
                cache[net.digest()] = _evaluate_candidate(net, space, eff_budget, constraint,
                                                          coeffs, params)

    def dedupe_feasible(nets):
        out = []
        for net in nets:
            if net.digest() not in out and cache[net.digest()].feasible:
                out.append(net.digest())
        return out

    def rank(digests):
        return dict(zip(digests, rank_scores([(cache[d].nn_degree, cache[d].zen)
                                              for d in digests])))

    def log_row(iteration, new_evals, population):
        ranks = rank(population)
        rank_vals = [ranks[d] for d in population]
        members = [cache[d] for d in population]
        finite = [m for m in members if m.zen is not None]
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

    initial = [sample_random(space, rng) for _ in range(params.population)]
    evaluate_all(initial)
    population = dedupe_feasible(initial)
    if not population:
        raise EmptyPopulation("constraints eliminated the entire initial population")
    ranks = rank(population)
    population = sorted(population, key=lambda d: (ranks[d], d))[: params.population]
    log = [log_row(0, len(initial), population)]
    for iteration in range(1, params.iterations + 1):
        parents = [cache[d].net for d in population]
        offspring = []
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
        pool = dedupe_feasible(parents + offspring)
        ranks = rank(pool)
        population = sorted(pool, key=lambda d: (ranks[d], d))[: params.population]
        log.append(log_row(iteration, len(offspring), population))

    ranks = rank(population)
    ranked = [(ranks[d], cache[d]) for d in sorted(population, key=lambda d: (ranks[d], d))]
    return CoSearchResult(ranked[: params.top_k], ranked, log, len(cache))
