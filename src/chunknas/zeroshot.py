"""Training-free architecture scoring.

Two complementary proxies are combined by rank: a connectivity score computed
analytically from channel topology (trainability) and a perturbation-
sensitivity score measured on a randomly initialized network (expressivity).
Rank 0 is best on each metric, so lower combined values are better.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .nn import BN_EPS, HybridNet, NonFiniteScore
from .search_space import BlockInfo, LayerDescriptor

ZEN_ALPHA = 0.01
ZEN_BATCH = 16
ZEN_REPEATS = 1


class AllTied(ValueError):
    """Rank correlation is undefined: every pair is tied in x or in y."""


def nn_degree(layers: Sequence[LayerDescriptor], blocks: Sequence[BlockInfo]) -> float:
    """Connectivity score over the IRB blocks of an expanded genome
    (``expand_blocks``).

    Per block: (sum of layer output channels) / (layer count)
    + (residual channels) / (sum of layer input channels). No tensors needed;
    the value depends only on channel topology.
    """
    total = 0.0
    for blk in blocks:
        members = layers[blk.first_layer : blk.first_layer + blk.num_layers]
        out_sum = sum(l.out_channels for l in members)
        in_sum = sum(l.in_channels for l in members)
        total += out_sum / blk.num_layers
        if blk.residual_channels:
            total += blk.residual_channels / in_sum
    return total


def zen_score(
    net: HybridNet,
    alpha: float = ZEN_ALPHA,
    batch: int = ZEN_BATCH,
    repeats: int = ZEN_REPEATS,
    rng: np.random.Generator | None = None,
) -> float:
    """Gaussian-complexity score of the feature extractor.

    log E||f(x) - f(x + alpha*eps)||_F over fresh Gaussian draws, plus the
    batch-norm term: for every normalization layer i and batch sample k,
    log sqrt(mean_j var[k, j] + eps). The epsilon matches the BN stabilizer
    and keeps 1x1 feature maps finite.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if batch < 2:
        raise ValueError("batch must be >= 2")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if rng is None:
        rng = np.random.default_rng(0)
    draws = _draws(net, batch, repeats, rng)
    score = _zen_from_draws(net, draws, alpha)
    if score is None:
        # Deep stacks of contractive layers can shrink the perturbation below
        # float32 resolution; redo the same draws (and weights) in float64.
        draws64 = [(x.astype(np.float64), e.astype(np.float64)) for x, e in draws]
        score = _zen_from_draws(net, draws64, alpha)
    if score is None:
        raise NonFiniteScore("perturbation response is exactly zero")
    return score


def _draws(net: HybridNet, batch: int, repeats: int,
           rng: np.random.Generator) -> list[tuple[np.ndarray, np.ndarray]]:
    """``repeats`` float32 (input, perturbation) pairs of Gaussian draws."""
    shape = (batch, net.in_channels, net.input_resolution, net.input_resolution)
    return [(rng.standard_normal(shape, dtype=np.float32),
             rng.standard_normal(shape, dtype=np.float32)) for _ in range(repeats)]


def _zen_from_draws(net: HybridNet, draws, alpha: float) -> float | None:
    """Score for fixed input draws; None when the delta underflows to zero.
    Every x and x + alpha*eps runs in one lockstep forward; x of the first
    draw records the batch-norm statistics."""
    bn_stats: list[np.ndarray] = []
    ys = net.feature_forward(np.stack([a for x, eps in draws for a in (x, x + alpha * eps)]),
                             bn_stats)
    deltas = [float(np.linalg.norm((y0 - y1).ravel())) for y0, y1 in zip(ys[::2], ys[1::2])]
    bn_term = _bn_log_term(bn_stats)
    mean_delta = float(np.mean(deltas))
    if not math.isfinite(mean_delta) or not math.isfinite(bn_term):
        raise NonFiniteScore(f"non-finite score terms ({mean_delta}, {bn_term})")
    if mean_delta <= 0:
        return None
    score = math.log(mean_delta) + bn_term
    if not math.isfinite(score):
        raise NonFiniteScore(f"non-finite score {score}")
    return score


def _bn_log_term(sample_vars: list[np.ndarray]) -> float:
    total = 0.0
    for var in sample_vars:
        # var has shape (batch,), each sample's variance averaged over channels.
        total += float(np.sum(0.5 * np.log(var + BN_EPS)))
    return total


def combined_ranks(scores: Sequence[tuple[float, float]]) -> list[int]:
    """Combined rank for every member of a population (vector form)."""
    nn_vals = np.asarray([s[0] for s in scores], dtype=np.float64)
    zen_vals = np.asarray([s[1] for s in scores], dtype=np.float64)
    nn_rank = (nn_vals[None, :] > nn_vals[:, None]).sum(axis=1)
    zen_rank = (zen_vals[None, :] > zen_vals[:, None]).sum(axis=1)
    return [int(r) for r in nn_rank + zen_rank]


def kendall_tau(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Tie-corrected tau-b: (C - D) / sqrt((C+D+Tx) * (C+D+Ty)). NaN and
    inf values are a ValueError: a NaN would drop out of both pair counts."""
    if len(xs) != len(ys):
        raise ValueError("sequences must have equal length")
    if len(xs) < 2:
        raise ValueError("need at least two observations")
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("values must be finite")
    dx = np.sign(x[:, None] - x[None, :])
    dy = np.sign(y[:, None] - y[None, :])
    iu = np.triu_indices(len(x), k=1)
    prod = dx[iu] * dy[iu]
    concordant = int(np.sum(prod > 0))
    discordant = int(np.sum(prod < 0))
    ties_x = int(np.sum((dx[iu] == 0) & (dy[iu] != 0)))
    ties_y = int(np.sum((dy[iu] == 0) & (dx[iu] != 0)))
    denom = math.sqrt(
        (concordant + discordant + ties_x) * (concordant + discordant + ties_y)
    )
    if denom == 0:
        raise AllTied("all pairs tied; tau undefined")
    return (concordant - discordant) / denom
