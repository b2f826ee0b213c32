"""Smoke test of the benchmark itself.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload at a tiny size, traced and untraced, and checks that
each run prints exactly the metrics BENCHMARK.json declares, with their
units, and that a traced run drives the layers its workload was chosen for.
Deliberately broken results (an over-budget design, an oracle ratio below
0.95, a program that yields one) must fail the checks, and so must a traced
run whose wrapped functions are gone or cover too little of the run.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
ACCEL_SEARCH = ["cosearch.search_accelerator_layers.calls", "cosearch.coarse_search.self_s",
                "cosearch.fine_search.self_s", "accel.evaluate_dataflows.calls",
                "accel.evaluate_dataflows.nodes_per_s", "accel.tiling_candidates.calls",
                "accel.pipeline_perf.calls", "accel.layer_latency.calls",
                "accel.min_gb_size.calls"]
# Per-layer metrics that must be above 0 on a traced run of each workload.
DRIVES = {
    "cosearch": ACCEL_SEARCH + [
        "search_space.expand_blocks.calls", "nn.instantiate.calls", "nn.instantiate.weights",
        *[f"nn.forward.{kind}.calls" for kind in spans.FORWARD_KINDS],
        "nn.feature_forward.calls", "zeroshot.zen_score.calls", "zeroshot.nn_degree.calls",
        "zeroshot.combined_ranks.s", "cosearch.cosearch.self_s", "cosearch.evaluations",
        "cosearch.candidate_s", "cosearch.thread_busy_frac", "config.load_run_config.s",
        "cli.cmd_cosearch.self_s"],
    "accel-corpus": ACCEL_SEARCH + ["search_space.expand_blocks.calls"],
    "oracle-suite": ACCEL_SEARCH + ["cosearch.oracle_layers.calls",
                                    "reproduce.compare_workloads.self_s"],
}


def invoke(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=root, timeout=170)


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    lines = proc.stdout.strip().splitlines()
    record = next(l.split(": ", 1)[1] for l in lines if l.startswith("record: "))
    return json.loads(lines[-1]), json.loads(Path(record).read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_declared_metric_with_its_unit(workload, trace):
    proc = invoke(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result, record = parse(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in declared]
    values = {n: m["value"] for n, m in result["metrics"].items()}
    prov = record["provenance"]
    for key in ("nproc", "cpu_model", "python", "numpy", "scipy", "blas", "blas_threads",
                "pool_threads", "git_sha", "workload", "seed", "items"):
        assert key in prov
    if not trace:
        assert all(v > 0 for v in values.values()), values
        return
    assert abs(record["accounting"]["accounted_frac"] - 1.0) <= 0.02
    assert record["accounting"]["covered_frac"] >= run.COVERED_MIN
    # Each workload drives the layers it was chosen for, and only those.
    assert [n for n in DRIVES[workload] if not values[n] > 0] == []
    if workload != "cosearch":
        assert values["nn.instantiate.calls"] == 0 and values["zeroshot.zen_score.calls"] == 0
    if workload != "oracle-suite":
        assert values["cosearch.oracle_layers.calls"] == 0


def test_over_budget_design_fails_the_accel_check():
    from chunknas import accel, config, cosearch, search_space

    cfg = config.load_run_config()
    budget = cosearch.effective_budget(cfg.budget, cfg.constraint)
    net = search_space.largest_genome(cfg.space)
    layers = search_space.expand(cfg.space, net)
    design, report = cosearch.search_accelerator(net, cfg.space, budget, cfg.coeffs)
    assert child.check_accel_design(design, report, layers, budget) == []

    big = dataclasses.replace(design.chunk_c, pe_count=4 * budget.dsp_total)
    over = accel.AcceleratorConfig(big, design.chunk_s, design.chunk_a, design.gb_bytes)
    assert any("assert_fits" in p for p in child.check_accel_design(over, report, layers, budget))
    small = dataclasses.replace(design, gb_bytes=design.gb_bytes // 2)
    assert any("min_gb_size" in p for p in child.check_accel_design(small, report, layers, budget))


def test_constraint_violation_fails_the_cosearch_check():
    from chunknas import config

    constraint = config.load_run_config().constraint
    assert child.check_constraint({"dsp": 545, "lut": 117_000}, constraint) == []
    assert len(child.check_constraint({"dsp": 546, "lut": 117_001}, constraint)) == 2


def test_low_oracle_ratio_fails_the_gate():
    from chunknas import config, refdata, reproduce

    suite = refdata.bundled_workloads()
    one = {**suite, "workloads": suite["workloads"][:1]}
    [comparison] = reproduce.compare_workloads(one, config.load_run_config().coeffs)
    assert child.check_oracle_comparison(comparison) == []
    low = dataclasses.replace(comparison, ratio=0.9)
    assert any("ratio" in p for p in child.check_oracle_comparison(low))


def copy_checkout(dest: Path, with_src: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_program_with_a_broken_oracle_ratio_exits_nonzero(tmp_path):
    root = copy_checkout(tmp_path, with_src=True)
    target = root / "src" / "chunknas" / "reproduce.py"
    source = target.read_text()
    broken = source.replace("ratio=thr / oracle.report.throughput_gops",
                            "ratio=0.9 * thr / oracle.report.throughput_gops")
    assert broken != source
    target.write_text(broken)
    proc = invoke("oracle-suite", 0, root)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    result, record = parse(proc)
    assert not result["correct"] and result["failed"] > 0
    assert any("ratio 0.9" in f for f in record["failures"])


def test_bare_benchmark_directory_exits_nonzero_without_a_result(tmp_path):
    root = copy_checkout(tmp_path, with_src=False)
    proc = invoke("accel-corpus", 0, root)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_missing_target_fails_the_tracer():
    from chunknas import accel

    with pytest.raises(spans.MissingTarget, match="no_such_function"):
        spans.Tracer().patch_function(accel, "no_such_function", "accel.no_such_function")
    with pytest.raises(spans.MissingTarget, match="ThreadPoolExecutor"):
        spans.Tracer().patch_pool(accel)


def test_renamed_function_fails_the_traced_run(tmp_path):
    root = copy_checkout(tmp_path, with_src=True)
    for path in (root / "src" / "chunknas").glob("*.py"):
        source = path.read_text()
        path.write_text(source.replace("combined_ranks", "combined_rank_order"))
    assert invoke("accel-corpus", 0, root).returncode == 0
    proc = invoke("accel-corpus", 1, root)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert '"correct"' not in proc.stdout
    assert "zeroshot.combined_ranks is gone" in proc.stderr


def test_low_span_coverage_fails_the_traced_run():
    main = 1
    covered = spans.report([(1, 0, "a", main, 0.0, 0.5, None, None)], ["a"], (0.0, 1.0), main)
    assert covered["metrics"]["a.calls"] == 1 and covered["metrics"]["a.s"] == 0.5
    with pytest.raises(run.RunFailed, match="spans cover 0.500"):
        run.check_coverage(covered["accounting"])
