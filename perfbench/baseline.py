"""Run every workload on seeds 0 to 9 and summarise the end-to-end metrics.

    python3 perfbench/baseline.py

Each run lasts ``run_seconds`` of BENCHMARK.json. For each workload and
metric it reports the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median, next to the metric's bound, and
writes the summary to ``perfbench/baseline/BENCH_<date>_<git sha>.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
SEEDS = range(10)


def run_once(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=run.ROOT, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    record_path = next(l.split(": ", 1)[1] for l in lines if l.startswith("record: "))
    return json.loads(lines[-1]), json.loads(Path(record_path).read_text())


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {"seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for workload in run.WORKLOADS:
        values: dict[str, list[float]] = {}
        records = []
        for seed in SEEDS:
            t0 = time.monotonic()
            result, record = run_once(workload, seed, seconds)
            records.append(record)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {time.monotonic() - t0:.1f} s, "
                  + ", ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        stats = {name: summarise(v) for name, v in values.items()}
        summary["workloads"][workload] = {
            "metrics": stats,
            "item_ms_p50": [r["details"].get("item_ms_p50") for r in records],
            "provenance": records[0]["provenance"],
        }
        for name, s in stats.items():
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"  {workload:13s} {name:22s} median {s['median']:.5g}  "
                  f"spread {s['spread']:.4f}  bound {bounds[name]}{flag}")
    sha = run.git_sha()[:12]
    path = HERE / "baseline" / f"BENCH_{time.strftime('%Y-%m-%d')}_{sha}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
