"""Acceptance gate: one test per criterion, each printing a pass line with
the measured figure of merit. Run with ``pytest tests/test_acceptance.py -s``
to see the per-criterion lines.
"""

import json
import math
import random
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from chunknas import cosearch as cs
from chunknas import nn, reproduce, zeroshot
from chunknas.accel import EnergyCoeffs, HardwareBudget, chunk_lut
from chunknas.cli import main
from chunknas.refdata import bundled_workloads, reference_tables
from chunknas.search_space import (
    LayerDescriptor,
    LayerType,
    OpCounts,
    count_macs,
    default_space,
    expand,
    ops_from_macs,
    sample_random,
)

from oracles import combined_score, nn_degree_terms, ref_quantize_shift, ref_shift_weight_value


def report(criterion: int, elapsed: float, message: str) -> None:
    print(f"\ncriterion {criterion:02d}: PASS ({elapsed:.1f}s) {message}")


@pytest.fixture(scope="module")
def tables():
    return reference_tables()


@pytest.fixture(scope="module")
def workload_suite():
    return bundled_workloads()


@pytest.fixture(scope="module")
def workload_comparisons(workload_suite):
    coeffs = EnergyCoeffs(5.28e-3, 7.2e-4, 7.2e-4)
    return reproduce.compare_workloads(workload_suite, coeffs)


def test_criterion_01_op_count_identities(tables):
    t0 = time.time()
    adder_row = ops_from_macs(6.6e6, 0.0, 79.2e6)
    assert round(adder_row.adds * 100) == 16500  # 165.00 M, integer-scaled
    assert round(adder_row.mults * 100) == 660
    shift_row = ops_from_macs(6.6e6, 79.2e6, 0.0)
    assert round(shift_row.adds * 100) == 8580  # 85.8 M
    assert round(shift_row.shifts * 100) == 7920
    checks = reproduce.check_counting_identities(tables)
    assert all(c.passed for c in checks)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(1, elapsed, "adds = 2*adder_macs + conv_macs reproduces 165.00 M / 85.8 M exactly")


def test_criterion_02_throughput_fps_identities(tables):
    t0 = time.time()
    checks = reproduce.check_throughput_fps(tables, tol=0.005)
    failed = [c.name for c in checks if not c.passed]
    assert not failed, f"rows outside 0.5%: {failed}"
    # The two anchor rows from the acceptance statement.
    assert 157.24e6 / 0.44e-3 / 1e9 == pytest.approx(357.4, abs=0.05)
    assert 194.26e6 / 0.63e-3 / 1e9 == pytest.approx(308.3, abs=0.05)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(2, elapsed, f"{len(checks)} published rows consistent within 0.5% "
                       "(printed-latency rounding honored)")


def test_criterion_03_energy_model(tables):
    t0 = time.time()
    checks, coeffs = reproduce.check_energy_fit(tables, tol=0.02)
    failed = [c.name for c in checks if not c.passed]
    assert not failed, f"predictions outside 2%: {failed}"
    assert coeffs.energy_mj(OpCounts(42.26, 33.13, 81.85)) == pytest.approx(0.306, abs=0.002)
    assert coeffs.energy_mj(OpCounts(56.61, 14.14, 88.52)) == pytest.approx(0.373, abs=0.002)
    worst = max(c.residual for c in checks if c.residual is not None)
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(3, elapsed, f"all nine searched-model energies predicted within 2% "
                       f"(worst {100 * worst:.2f}%)")


def test_criterion_04_resource_accounting(tables):
    t0 = time.time()
    assert math.ceil(0.5 * 1090) == 545
    assert chunk_lut(1090, 272, 1704) == 40330 + 9248 + 49416
    checks = reproduce.check_resources(tables)
    failed = [c.name for c in checks if not c.passed]
    assert not failed, f"resource checks failed: {failed}"
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report(4, elapsed, "DSP=545 at 1090 conv PEs; balanced configs land in the "
                       "52-67 kLUT band exactly where expected")


def test_criterion_05_search_vs_oracle(workload_comparisons):
    t0 = time.time()
    randomized = [c for c in workload_comparisons if not c.equality_expected]
    assert len(randomized) >= 5
    for c in workload_comparisons:
        assert c.ratio >= 0.95, f"{c.name}: ratio {c.ratio:.4f}"
        assert c.node_ratio >= 10, f"{c.name}: node ratio {c.node_ratio:.1f}"
    constructed = [c for c in workload_comparisons if c.equality_expected]
    assert constructed and all(c.exact_equal for c in constructed)
    elapsed = time.time() - t0
    assert elapsed < 600
    worst = min(c.ratio for c in workload_comparisons)
    least_nodes = min(c.node_ratio for c in workload_comparisons)
    report(5, elapsed, f"{len(randomized)} randomized workloads at >= 95% of oracle "
                       f"(worst ratio {worst:.4f}), node savings >= x{least_nodes:.0f}, "
                       "constructed workload exactly 1.0")


def test_criterion_06_ablation_ordering(workload_comparisons):
    t0 = time.time()
    checked = 0
    for c in workload_comparisons:
        if not c.ordering_expected:
            continue
        checked += 1
        assert c.thr_full >= c.thr_fine_only - 1e-9, c.name
        assert c.thr_fine_only >= c.thr_coarse_only - 1e-9, c.name
    assert checked >= 5
    elapsed = time.time() - t0
    report(6, elapsed, f"coarse+fine >= fine-only >= coarse-only on all "
                       f"{checked} hybrid workloads")


def test_criterion_07_balanced_pe_initialization():
    t0 = time.time()
    space = default_space()
    rng = random.Random(2025)
    pe_c = 1090
    for _ in range(100):
        net = sample_random(space, rng)
        macs = count_macs(expand(space, net))
        raw_s, raw_a, pe_s, pe_a = cs.eq9_pe_init(macs, pe_c)
        assert abs(pe_s - raw_s) <= 0.5 or (pe_s == 1 and raw_s < 1)
        assert abs(pe_a - raw_a) <= 0.5 or (pe_a == 1 and raw_a < 1)
        assert macs.conv > 0  # stem and head keep the denominator positive
    elapsed = time.time() - t0
    assert elapsed < 30
    report(7, elapsed, "pe_s/pe_c and pe_a/pe_c match chunk MAC ratios within "
                       "0.5 PE on 100 random genomes")


def test_criterion_08_zero_shot_metrics():
    t0 = time.time()
    # Analytic connectivity score on three fixed toy topologies.
    assert nn_degree_terms([4, 4], [4, 4], 4) == 4 + 4 / 8
    assert nn_degree_terms([16, 32], [8, 16], 8) == pytest.approx(24 + 8 / 24)
    assert nn_degree_terms([8, 16, 8], [8, 8, 16], 8) == pytest.approx(32 / 3 + 0.25)

    # Combined rank: best on both metrics scores zero; monotone rescaling
    # leaves every rank unchanged.
    pop = [(10.0, 5.0), (8.0, 4.0), (6.0, 3.0), (4.0, 2.0)]
    assert combined_score(pop[0], pop) == 0
    base = zeroshot.combined_ranks(pop)
    rescaled = [(math.exp(a), math.tanh(b)) for a, b in pop]
    assert zeroshot.combined_ranks(rescaled) == base

    # Rank correlation fixtures.
    assert zeroshot.kendall_tau([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)
    assert zeroshot.kendall_tau([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)
    assert zeroshot.kendall_tau([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.6667, abs=1e-4)

    # Perturbation score: seed-deterministic and finite over 200 random
    # genomes (each scored twice from scratch).
    space = default_space()
    rng = random.Random(888)
    nets = [sample_random(space, rng) for _ in range(200)]

    def score(idx_net):
        idx, net = idx_net
        w_seed, z_seed = cs.derive_seeds(0, net.digest())
        h = nn.instantiate(net, space, w_seed)
        return zeroshot.zen_score(h, rng=np.random.default_rng(z_seed))

    with ThreadPoolExecutor(max_workers=2) as pool:
        first = list(pool.map(score, enumerate(nets)))
        second = list(pool.map(score, enumerate(nets)))
    assert all(map(math.isfinite, first))
    assert first == second
    elapsed = time.time() - t0
    assert elapsed < 300
    report(8, elapsed, "toy topologies exact; 200 genomes scored twice: finite "
                       "and bit-identical; rank fixtures 1.0 / -1.0 / 0.6667")


def test_criterion_09_layer_semantics():
    t0 = time.time()
    rng = np.random.default_rng(321)
    for trial in range(50):
        ci = int(rng.integers(1, 12))
        co = int(rng.integers(1, 12))
        k = int(rng.choice([1, 3, 5]))
        stride = int(rng.choice([1, 2]))
        h = int(rng.integers(k, 10))
        # Channels-last, as the forward runs.
        x = rng.standard_normal((2, ci, h, h), dtype=np.float32).transpose(0, 2, 3, 1)

        # Shift forward must equal a conv with the quantized weights,
        # to floating-point equality; the quantizer must give the float64
        # reference's weights bit for bit.
        raw = rng.standard_normal((co, ci, k, k))
        w_q = nn.quantize_shift(raw)
        assert np.array_equal(w_q, ref_shift_weight_value(*ref_quantize_shift(raw.astype(np.float32))))
        shift_layer = nn.HybridLayer(
            LayerDescriptor(LayerType.SHIFT, ci, co, k, stride, 1, h, h), w_q
        )
        conv_layer = nn.HybridLayer(
            LayerDescriptor(LayerType.CONV, ci, co, k, stride, 1, h, h),
            w_q.astype(np.float32),
        )
        assert np.array_equal(shift_layer.forward(x), conv_layer.forward(x))

        # Adder outputs are non-positive before normalization.
        w_a = rng.standard_normal((co, ci, k, k), dtype=np.float32)
        adder_layer = nn.HybridLayer(
            LayerDescriptor(LayerType.ADDER, ci, co, k, stride, 1, h, h), w_a
        )
        assert np.all(adder_layer.forward(x) <= 0)

    assert ref_quantize_shift(2.0) == (1, 1) and nn.quantize_shift(2.0) == 2.0
    assert ref_quantize_shift(-0.75) == (-1, 0) and nn.quantize_shift(-0.75) == -1.0
    assert ref_quantize_shift(0.3) == (1, -2) and nn.quantize_shift(0.3) == 0.25
    elapsed = time.time() - t0
    assert elapsed < 60
    report(9, elapsed, "shift == conv-with-quantized-weights on 50 random layers; "
                       "adder outputs non-positive; quantizer fixtures exact")


def test_criterion_10_end_to_end_determinism(tmp_path):
    t0 = time.time()
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "params": {"population": 8, "expand_size": 4, "iterations": 3,
                   "top_k": 3, "seed": 42},
    }))
    outs = [tmp_path / "run1", tmp_path / "run2"]
    for out in outs:
        rc = main(["--config", str(cfg_path), "--threads", "2",
                   "--output", str(out), "cosearch"])
        assert rc == 0
    for name in ("result.json", "log.csv", "pareto.csv", "run_config.json"):
        b1 = (outs[0] / name).read_bytes()
        b2 = (outs[1] / name).read_bytes()
        assert b1 == b2, f"{name} differs between identical runs"
    elapsed = time.time() - t0
    assert elapsed < 300
    report(10, elapsed, "default-space co-search (pop 8, expand 4, 3 iterations) "
                        "byte-identical across two runs and within the time budget")
