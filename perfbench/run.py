"""chunknas benchmark runner.

    python3 perfbench/run.py --workload cosearch --seed 0 --seconds 25 --trace 0

Runs from the root of a checkout. Each run starts fresh child processes
(``child.py``) that import chunknas from ``src/``, with BLAS pinned to one
thread. ``--trace 0`` prints the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer metrics of a traced run. The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. The exit code is 1 when a correctness check failed and 2 when
the run could not be made; a provenance record of every run is written to
``perfbench/out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cosearch", "accel-corpus", "oracle-suite")
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# Extra fresh processes that only set up; setup_s is the median over these
# and the workload child.
SETUP_PROBES = 8
# Every child must end within this many seconds of the run's start.
DEADLINE_S = 170.0
# A traced run fails unless the spans cover at least this share of the main
# thread's timed wall: below it, work runs outside the wrapped functions and
# the per-layer metrics would miss it.
COVERED_MIN = 0.95


class RunFailed(RuntimeError):
    pass


def child_env() -> dict:
    # CHUNKNAS_* variables would override the run configuration.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CHUNKNAS_")}
    env.update(PINNED_THREADS)
    return env


def spawn(args: list[str], out: Path, deadline: float) -> dict:
    """Run child.py to completion and return the document it wrote."""
    out.mkdir(parents=True)
    t_start = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT), "--out", str(out),
           "--t-start", repr(t_start), *args]
    with open(out / "child.log", "w") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=child_env(),
                                cwd=ROOT)
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RunFailed(f"child timed out; log in {out / 'child.log'}")
    if rc != 0:
        tail = (out / "child.log").read_text()[-2000:]
        raise RunFailed(f"child exited with code {rc}:\n{tail}")
    return json.loads((out / "child.json").read_text())


def declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(main: dict, setups: list[float]) -> dict:
    return {
        "setup_s": statistics.median(setups),
        # Mean, not median, pass wall: passes of one run differ in their inputs
        # and the machine's speed drifts in phases, so the median of a few passes
        # jumps between phases (ten seeds of oracle-suite: spread 0.26 vs 0.18).
        "wall_s": main["timed_wall_s"] / main["passes"],
        "items_per_s": main["items"] / main["timed_wall_s"],
        "peak_rss_mb": main["peak_rss_mb"],
        "sim_thrpt_gops_gmean": main["sim_thrpt_gops_gmean"],
    }


def details(doc: dict) -> dict:
    """Figures reported beside the metrics: per-item latency, failure share,
    the oracle ratio, output digests."""
    out = {"passes": doc["passes"], "items": doc["items"], "failed": doc["failed"],
           "failed_frac": doc["failed"] / doc["items"] if doc["items"] else 1.0,
           "pool_threads": doc["pool_threads"], "digests": doc["digests"]}
    if doc["item_ms"]:
        out["item_ms_p50"] = statistics.median(doc["item_ms"])
        out["item_ms_n"] = len(doc["item_ms"])
        if len(doc["item_ms"]) >= 100:
            out["item_ms_p90"] = percentile(doc["item_ms"], 0.9)
    if "sim_oracle_ratio_min" in doc:
        out["sim_oracle_ratio_min"] = doc["sim_oracle_ratio_min"]
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args, doc: dict) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "passes": doc["passes"], "items": doc["items"],
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "platform": platform.platform(),
        **doc["versions"],
        "blas_threads": PINNED_THREADS, "pool_threads": doc["pool_threads"],
        "git_sha": git_sha(),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def check_coverage(accounting: dict) -> None:
    covered = accounting["covered_frac"]
    if covered < COVERED_MIN:
        raise RunFailed(f"spans cover {covered:.3f} of the main thread's timed wall, "
                        f"below {COVERED_MIN}; update perfbench/spans.py")


def measure(args, work: Path, deadline: float) -> tuple[dict, dict, list[dict]]:
    """Returns (metrics, record, checked child documents)."""
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        common.append("--tiny")
    timed = common + ["--seconds", str(args.seconds)]
    if not args.trace:
        setups = [spawn(common + ["--setup-only"], work / f"probe{i}", deadline)["setup_s"]
                  for i in range(SETUP_PROBES)]
        main = spawn(timed, work / "main", deadline)
        metrics = end_to_end(main, setups + [main["setup_s"]])
        return metrics, {"setup_s_samples": setups + [main["setup_s"]],
                         "pass_wall_s": main["pass_wall_s"], "details": details(main),
                         "provenance": provenance(args, main)}, [main]
    base = spawn(timed, work / "untraced", deadline)
    traced = spawn(common + ["--trace", "--passes", str(base["passes"])],
                   work / "traced", deadline)
    check_coverage(traced["trace"]["accounting"])
    metrics = dict(traced["trace"]["metrics"])
    metrics["trace.overhead_frac"] = traced["timed_wall_s"] / base["timed_wall_s"] - 1.0
    return metrics, {"accounting": traced["trace"]["accounting"],
                     "spans_by_name": traced["trace"]["spans_by_name"],
                     "details": details(traced), "untraced_details": details(base),
                     "provenance": provenance(args, traced)}, [base, traced]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every pass (smoke test only; not a measurement)")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "chunknas" / "__init__.py").is_file():
        print(f"error: no chunknas sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    try:
        declared = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    work = HERE / "out" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}-{time.time_ns()}"
    try:
        metrics, record, docs = measure(args, work, deadline)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    missing = sorted(set(declared) - set(metrics))
    if missing:
        print(f"error: run produced no value for {missing}", file=sys.stderr)
        return 2

    attempted = sum(d["items"] for d in docs)
    failed = sum(d["failed"] for d in docs)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }
    record.update(result=result, failures=[f for d in docs for f in d["failures"]])
    results_dir = HERE / "out" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record_path = results_dir / f"{work.name}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if failed == 0:
        shutil.rmtree(work)

    for line in report_lines(args, record):
        print(line)
    print(f"record: {record_path}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def report_lines(args, record: dict) -> list[str]:
    d = record["details"]
    lines = [f"{args.workload} seed={args.seed} trace={args.trace}: {d['passes']} passes, "
             f"{d['items']} items, failed {d['failed']} (failed_frac {d['failed_frac']:.4g}), "
             f"pool threads {d['pool_threads']}, BLAS threads 1"]
    if "item_ms_p50" in d:
        tail = f", p90 {d['item_ms_p90']:.4g} ms" if "item_ms_p90" in d else ""
        lines.append(f"  item latency p50 {d['item_ms_p50']:.4g} ms{tail} (n={d['item_ms_n']})")
    if "sim_oracle_ratio_min" in d:
        lines.append(f"  sim_oracle_ratio_min {d['sim_oracle_ratio_min']:.6g}")
    if "accounting" in record:
        a = record["accounting"]
        lines.append(f"  trace: {a['spans']} spans, spans cover {a['covered_frac']:.3f} of the "
                     f"main thread, self + uncovered = {a['accounted_frac']:.4f} of wall")
    for digest in d["digests"]:
        lines.append("  digest " + " ".join(f"{k}={v}" for k, v in digest.items()))
    lines += [f"  FAILED {f}" for f in record["failures"][:20]]
    return lines


if __name__ == "__main__":
    sys.exit(main())
