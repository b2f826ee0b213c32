"""One benchmark run of one workload, in a fresh process.

Started by ``run.py``; not meant to be run by hand. Sets chunknas up from
the checkout's ``src/``, runs passes of the workload until the time is up
(or a fixed number of passes), checks every output outside the timed
region, and writes one JSON document to ``--out``.

A pass is the workload's unit of work: one co-search (``cosearch``), a
block of corpus genomes (``accel-corpus``), one sweep of the bundled suite
(``oracle-suite``). Items are what ``items_per_s`` counts.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import platform
import random
import resource
import sys
import threading
import time
from pathlib import Path

# The constraint and config of the co-search workload. ``top_k`` equals the
# population so result.json lists every design the search returns.
COSEARCH_PARAMS = {"population": 16, "expand_size": 8, "iterations": 3, "top_k": 16}
COSEARCH_TINY = {"population": 4, "expand_size": 2, "iterations": 1, "top_k": 4}
COSEARCH_THREADS = 2
# Master seed of pass i is seed + SEED_STRIDE * i, so passes are distinct searches.
SEED_STRIDE = 1000
CORPUS_BLOCK = 32
# Every run makes at least this many passes; the sim_ metric covers the
# designs of exactly these, so it does not depend on how fast a run was.
MIN_PASSES = 2
CORPUS_BLOCK_TINY = 2
ORACLE_RATIO_MIN = 0.95
NODE_RATIO_MIN = 10.0
ARTIFACTS = ("result.json", "log.csv", "pareto.csv", "run_config.json")
DIGESTED = ("result.json", "log.csv", "pareto.csv")


def gmean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def sha256_json(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


class CoSearchWorkload:
    """``chunknas.cli.main(... cosearch)`` on the stock space and constraint."""

    pool_threads = COSEARCH_THREADS

    def __init__(self, cfg, seed: int, out: Path, tiny: bool):
        from chunknas import cli

        self.cli = cli
        self.seed = seed
        self.out = out
        self.constraint = cfg.constraint
        self.params = COSEARCH_TINY if tiny else COSEARCH_PARAMS
        self.config_path = out / "cosearch_config.json"
        self.config_path.write_text(json.dumps({"params": self.params}))
        self.passes: list[tuple] = []   # (master seed, dir, exit code or error)

    def run_pass(self, i: int) -> list[float]:
        master = self.seed + SEED_STRIDE * i
        target = self.out / f"pass{i:03d}"
        argv = ["--config", str(self.config_path), "--threads", str(COSEARCH_THREADS),
                "--seed", str(master), "--output", str(target), "--json", "cosearch"]
        try:
            rc = self.cli.main(argv)
        except Exception as exc:  # counted as failed items, the run goes on
            rc = f"{type(exc).__name__}: {exc}"
        self.passes.append((master, target, rc))
        return []

    def check(self) -> dict:
        items = failed = 0
        failures, digests, sim = [], [], []
        nominal = self.params["population"] + self.params["iterations"] * self.params["expand_size"]
        for i, (master, target, rc) in enumerate(self.passes):
            problems = []
            evaluations = nominal
            try:
                if rc != 0:
                    raise ValueError(f"cosearch ended with {rc}")
                for name in ARTIFACTS:
                    if name.endswith(".json"):
                        json.loads((target / name).read_text())
                        continue
                    with open(target / name, newline="") as f:
                        if len(list(csv.reader(f))) < 2:
                            raise ValueError(f"{name} has no data rows")
                result = json.loads((target / "result.json").read_text())
                evaluations = int(result["evaluations"])
                entries = result["entries"]
                if not entries:
                    raise ValueError("result.json lists no designs")
                for e in entries:
                    problems += check_constraint(e["performance"], self.constraint)
                if i < MIN_PASSES:
                    sim += [e["performance"]["throughput_gops"] for e in entries]
                digests.append({
                    "seed": master,
                    **{name: hashlib.sha256((target / name).read_bytes()).hexdigest()
                       for name in DIGESTED},
                })
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems.append(f"artifacts: {type(exc).__name__}: {exc}")
            items += evaluations
            if problems:
                failed += evaluations
                failures += [f"cosearch seed {master}: {p}" for p in problems]
        return {"items": items, "failed": failed, "failures": failures,
                "sim_thrpt_gops_gmean": gmean(sim), "digests": digests}


def check_constraint(perf: dict, constraint) -> list[str]:
    out = []
    if constraint.max_dsp is not None and perf["dsp"] > constraint.max_dsp:
        out.append(f"dsp {perf['dsp']} > {constraint.max_dsp}")
    if constraint.max_lut is not None and perf["lut"] > constraint.max_lut:
        out.append(f"lut {perf['lut']} > {constraint.max_lut}")
    return out


class AccelCorpusWorkload:
    """``search_accelerator`` over genomes drawn by ``sample_random`` from
    ``random.Random(seed)``, one genome at a time."""

    pool_threads = 1

    def __init__(self, cfg, seed: int, out: Path, tiny: bool):
        from chunknas import cosearch, search_space

        self.cs = cosearch
        self.ss = search_space
        self.space = cfg.space
        self.coeffs = cfg.coeffs
        self.budget = cosearch.effective_budget(cfg.budget, cfg.constraint)
        self.rng = random.Random(seed)
        self.block = CORPUS_BLOCK_TINY if tiny else CORPUS_BLOCK
        self.results: list[tuple] = []   # (genome, (config, report) or error text)

    def run_pass(self, i: int) -> list[float]:
        nets = [self.ss.sample_random(self.space, self.rng) for _ in range(self.block)]
        times = []
        for net in nets:
            t0 = time.perf_counter()
            try:
                outcome = self.cs.search_accelerator(net, self.space, self.budget, self.coeffs)
            except Exception as exc:  # counted as a failed item, the run goes on
                outcome = f"{type(exc).__name__}: {exc}"
            self.results.append((net, outcome))
            times.append(time.perf_counter() - t0)
        return times

    def check(self) -> dict:
        failed, failures, docs, sim = 0, [], [], []
        for net, outcome in self.results:
            problems = [outcome] if isinstance(outcome, str) else check_accel_design(
                *outcome, self.ss.expand(self.space, net), self.budget)
            if problems:
                failed += 1
                failures += [f"genome {net.compact()}: {p}" for p in problems]
                continue
            cfg, report = outcome
            docs.append([cfg.to_dict(), report.to_dict()])
            if len(sim) < MIN_PASSES * self.block:
                sim.append(report.throughput_gops)
        return {"items": len(self.results), "failed": failed, "failures": failures,
                "sim_thrpt_gops_gmean": gmean(sim),
                "digests": [{"designs": len(docs), "to_dict_sha256": sha256_json(docs)}]}


def check_accel_design(cfg, report, layers, budget) -> list[str]:
    """The design fits the budget, its buffer admits every chosen tile set,
    and each chunk's busy cycles equal the scalar per-layer latencies."""
    from chunknas import accel

    problems = []
    try:
        cfg.assert_fits(budget)
    except accel.InfeasibleBudget as exc:
        problems.append(f"assert_fits: {exc}")
    need = accel.min_gb_size(cfg, layers, budget)
    if need > cfg.gb_bytes:
        problems.append(f"min_gb_size {need} B > gb_bytes {cfg.gb_bytes} B")
    for kind, busy_s in zip((c.chunk_kind for c in cfg.chunks()), report.per_chunk_time_s):
        chunk = cfg.chunk_for(kind)
        try:
            scalar = sum(accel.layer_latency(l, chunk, cfg.gb_bytes, budget)
                         for l in layers if l.op_type is kind)
        except accel.TileExceedsBuffer as exc:
            problems.append(f"chunk {kind.short}: {exc}")
            continue
        if scalar != round(busy_s * budget.frequency_hz):
            problems.append(f"chunk {kind.short}: busy {busy_s * budget.frequency_hz:.0f} "
                            f"cycles != scalar sum {scalar}")
    return problems


class OracleSuiteWorkload:
    """``reproduce.compare_workloads`` on the bundled suite, one suite
    workload per item. The suite is fixed; the seed is only recorded."""

    pool_threads = 1

    def __init__(self, cfg, seed: int, out: Path, tiny: bool):
        from chunknas import refdata, reproduce

        self.reproduce = reproduce
        self.coeffs = cfg.coeffs
        suite = refdata.bundled_workloads()
        self.items = [{**suite, "workloads": [wl]} for wl in suite["workloads"]]
        self.results: list = []

    def run_pass(self, i: int) -> list[float]:
        times = []
        for item in self.items:
            t0 = time.perf_counter()
            try:
                self.results.append(self.reproduce.compare_workloads(item, self.coeffs)[0])
            except Exception as exc:  # counted as a failed item, the run goes on
                self.results.append(f"{item['workloads'][0]['name']}: "
                                    f"{type(exc).__name__}: {exc}")
            times.append(time.perf_counter() - t0)
        return times

    def check(self) -> dict:
        failed, failures, rows = 0, [], []
        for c in self.results:
            problems = [c] if isinstance(c, str) else check_oracle_comparison(c)
            if problems:
                failed += 1
                failures += problems
            elif len(rows) < len(self.items):
                rows.append(c.to_dict())
        return {"items": len(self.results), "failed": failed, "failures": failures,
                "sim_thrpt_gops_gmean": gmean(r["thr_full_gops"] for r in rows),
                "sim_oracle_ratio_min": min((r["ratio_vs_oracle"] for r in rows), default=0.0),
                "digests": [{"comparisons_sha256": sha256_json(rows)}]}


def check_oracle_comparison(c) -> list[str]:
    """The ``oracle-compare`` gate for one suite workload."""
    out = []
    if not c.ratio >= ORACLE_RATIO_MIN:
        out.append(f"{c.name}: ratio {c.ratio:.4f} < {ORACLE_RATIO_MIN}")
    if not c.node_ratio >= NODE_RATIO_MIN:
        out.append(f"{c.name}: node ratio {c.node_ratio:.3g} < {NODE_RATIO_MIN}")
    if c.equality_expected and not c.exact_equal:
        out.append(f"{c.name}: search and oracle throughput differ")
    if c.ordering_expected and not c.ordering_ok:
        out.append(f"{c.name}: full >= fine-only >= coarse-only does not hold")
    return out


WORKLOADS = {
    "cosearch": CoSearchWorkload,
    "accel-corpus": AccelCorpusWorkload,
    "oracle-suite": OracleSuiteWorkload,
}


def versions() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        openblas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": openblas}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", required=True, help="checkout root holding src/chunknas")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--passes", type=int, default=0,
                   help="run exactly this many passes instead of a time budget")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--t-start", type=float, required=True,
                   help="time.monotonic() of the parent just before it started this process")
    p.add_argument("--out", required=True, help="directory for artifacts and child.json")
    args = p.parse_args(argv)

    root = Path(args.root).resolve()
    sys.path.insert(0, str(root / "src"))
    import chunknas

    if not Path(chunknas.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"chunknas imported from {chunknas.__file__}, not {root / 'src'}")
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    from chunknas import config

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = config.load_run_config()
    workload = WORKLOADS[args.workload](cfg, args.seed, out, args.tiny)
    doc: dict = {"setup_s": time.monotonic() - args.t_start}
    if not args.setup_only:
        doc.update(measure(workload, args, tracer))
        doc["versions"] = versions()
    (out / "child.json").write_text(json.dumps(doc, indent=1))
    return 0


def measure(workload, args, tracer) -> dict:
    walls, item_s = [], []
    start = time.perf_counter()
    i = 0
    while True:
        t0 = time.perf_counter()
        item_s += workload.run_pass(i)
        walls.append(time.perf_counter() - t0)
        i += 1
        if args.passes:
            if i >= args.passes:
                break
        elif i >= MIN_PASSES and time.perf_counter() - start >= args.seconds:
            break
    end = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    doc = {}
    if tracer is not None:
        tracer.uninstall()
        from spans import report

        doc["trace"] = report(tracer.spans, tracer.names, (start, end),
                             threading.main_thread().ident)
    checked = workload.check()
    items = checked.pop("items")
    doc.update({
        "passes": len(walls),
        "pass_wall_s": walls,
        "timed_wall_s": end - start,
        "items": items,
        "item_ms": [1000.0 * t for t in item_s],
        "peak_rss_mb": peak_rss_mb,
        "pool_threads": workload.pool_threads,
        **checked,
    })
    return doc


if __name__ == "__main__":
    sys.exit(main())
