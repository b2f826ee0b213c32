"""Command-line driver.

Verbs: score, kendall, search-accel, cosearch, reproduce-tables,
oracle-compare. All runs are deterministic under (config, seed); commands
refuse to overwrite a non-empty output directory unless --force is given.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import sys
import time
from pathlib import Path

from . import cosearch as cs
from . import zeroshot
from .config import ParseError, RunConfig, load_run_config, read_json, read_text
from .refdata import bundled_workloads, reference_tables
from .reproduce import compare_workloads, run_reference_checks
from .search_space import MembershipViolation, SubNetwork, validate

PERF_CSV_COLUMNS = [
    "genome", "klut", "klut_pct", "dsp", "dsp_pct", "bram_blocks", "bram_pct",
    "freq_mhz", "latency_ms", "thrpt_gops", "gops_per_klut", "gops_per_dsp",
    "fps", "energy_mj", "mults_m", "shifts_m", "adds_m",
]

SCORE_CSV_COLUMNS = ["genome_id", "genome", "nn_degree", "zen_score", "combined_rank"]


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def _write_csv(path: Path, columns: list[str], rows: list[dict]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in columns])
    path.write_text(buf.getvalue())


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _prepare_output(args) -> Path:
    out = args.output
    if out is None:
        out = Path("runs") / f"{args.verb}-{time.strftime('%Y%m%d-%H%M%S')}"
    out = Path(out)
    if out.exists() and any(out.iterdir()) and not args.force:
        raise SystemExit(
            f"output directory {out} is not empty; pass --force to overwrite"
        )
    out.mkdir(parents=True, exist_ok=True)
    return out


def _genome_flat_to_net(values, line_no: int) -> SubNetwork:
    try:
        return SubNetwork.from_flat(values)
    except (ValueError, IndexError) as exc:
        raise ParseError(str(exc), line=line_no) from exc


def _parse_genome_text(text: str, line_no: int = 1) -> SubNetwork:
    tokens = text.replace(",", " ").replace("-", " ").split()
    values = []
    for i, tok in enumerate(tokens):
        try:
            values.append(int(tok))
        except ValueError as exc:
            raise ParseError(
                f"genome token {tok!r} is not an integer",
                line=line_no, field_name=f"token {i}",
            ) from exc
    return _genome_flat_to_net(values, line_no)


def read_genome_file(path: str) -> list[SubNetwork]:
    nets = []
    for line_no, line in enumerate(read_text(path, "genome file").splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        nets.append(_parse_genome_text(line, line_no))
    if not nets:
        raise ParseError(f"{path}: no genomes found")
    return nets


def _genome_str(net: SubNetwork) -> str:
    return "-".join(str(v) for v in net.to_flat())


def _perf_row(genome: str, report, cfg, budget) -> dict:
    dsp, lut, bram = report.dsp, report.lut, report.bram_blocks
    return {
        "genome": genome,
        "klut": lut / 1000.0,
        "klut_pct": 100.0 * lut / budget.lut_total,
        "dsp": dsp,
        "dsp_pct": 100.0 * dsp / budget.dsp_total,
        "bram_blocks": bram,
        "bram_pct": 100.0 * bram * 36864 / budget.bram_bits_total,
        "freq_mhz": budget.frequency_hz / 1e6,
        "latency_ms": report.latency_s * 1e3,
        "thrpt_gops": report.throughput_gops,
        "gops_per_klut": report.gops_per_klut,
        "gops_per_dsp": report.gops_per_dsp,
        "fps": report.fps,
        "energy_mj": report.energy_mj,
        "mults_m": report.ops.mults,
        "shifts_m": report.ops.shifts,
        "adds_m": report.ops.adds,
    }


# ---------------------------------------------------------------------------
# Verbs
# ---------------------------------------------------------------------------


def cmd_score(args, cfg: RunConfig) -> int:
    import random

    if args.genomes:
        nets = read_genome_file(args.genomes)
    elif args.random:
        rng = random.Random(args.seed)
        from .search_space import sample_random

        nets = [sample_random(cfg.space, rng) for _ in range(args.random)]
    else:
        raise SystemExit("score: need --genomes FILE or --random N")
    for net in nets:
        validate(cfg.space, net)

    scores = [cs.zero_shot_scores(net, cfg.space, cfg.params, args.seed) for net in nets]
    rows = [
        {"genome_id": f"{net.digest():016x}", "genome": _genome_str(net),
         "nn_degree": nn_val, "zen_score": float("nan") if zen_val is None else zen_val,
         "combined_rank": rank}
        for net, (nn_val, zen_val), rank in zip(nets, scores, cs.rank_scores(scores))
    ]

    out = _prepare_output(args)
    _write_csv(out / "scores.csv", SCORE_CSV_COLUMNS, rows)
    if args.json:
        print(json.dumps({"scores": rows}, indent=2, sort_keys=True))
    else:
        for row in rows:
            print(f"{row['genome_id']}  nn={_fmt(row['nn_degree'])}  "
                  f"zen={_fmt(row['zen_score'])}  rank={row['combined_rank']}")
        print(f"wrote {out / 'scores.csv'}")
    return 0


def cmd_kendall(args, cfg: RunConfig) -> int:
    xs, ys = [], []
    rows = csv.reader(read_text(args.csv, "csv").splitlines())
    for line_no, row in enumerate(rows, start=1):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) < 2:
            raise ParseError("need two columns", line=line_no)
        try:
            x, y = float(row[0]), float(row[1])
        except ValueError:
            if line_no == 1:
                continue  # header
            raise ParseError("non-numeric cell", line=line_no)
        xs.append(x)
        ys.append(y)
    tau = zeroshot.kendall_tau(xs, ys)
    if args.json:
        print(json.dumps({"kendall_tau": tau, "n": len(xs)}))
    else:
        print(f"kendall_tau = {tau:.6g}  (n = {len(xs)})")
    return 0


def cmd_search_accel(args, cfg: RunConfig) -> int:
    if args.genome:
        net = _parse_genome_text(args.genome)
    elif args.genomes:
        net = read_genome_file(args.genomes)[0]
    else:
        raise SystemExit("search-accel: need --genome FLAT or --genomes FILE")
    validate(cfg.space, net)
    accel_cfg, report = cs.search_accelerator(net, cfg.space, cfg.budget, cfg.coeffs)
    out = _prepare_output(args)
    _write_json(out / "accel_config.json", accel_cfg.to_dict())
    row = _perf_row(_genome_str(net), report, accel_cfg, cfg.budget)
    _write_csv(out / "perf.csv", PERF_CSV_COLUMNS, [row])
    if args.json:
        print(json.dumps({"accelerator": accel_cfg.to_dict(),
                          "performance": report.to_dict()}, indent=2, sort_keys=True))
    else:
        print(f"pe counts: C={accel_cfg.chunk_c.pe_count} "
              f"S={accel_cfg.chunk_s.pe_count} A={accel_cfg.chunk_a.pe_count}, "
              f"gb={accel_cfg.gb_bytes} B")
        print(f"latency {report.latency_s*1e3:.4g} ms, {report.throughput_gops:.6g} GOPS, "
              f"{report.fps:.6g} FPS, {report.lut/1000:.4g} kLUT, {report.dsp} DSP")
        print(f"wrote {out / 'accel_config.json'} and {out / 'perf.csv'}")
    return 0


def cmd_cosearch(args, cfg: RunConfig) -> int:
    params = cfg.params
    if args.seed is not None and args.seed != params.seed:
        params = cs.SearchParams.from_dict({**params.to_dict(), "seed": args.seed})
    if args.dry_run:
        print(json.dumps(RunConfig(space=cfg.space, budget=cfg.budget,
                                   constraint=cfg.constraint, params=params,
                                   coeffs=cfg.coeffs).to_dict(),
                         indent=2, sort_keys=True))
        return 0
    out = _prepare_output(args)
    progress = None if args.json else (lambda msg: print(msg, file=sys.stderr))
    result = cs.cosearch(
        cfg.space, cfg.budget, cfg.constraint, params, cfg.coeffs,
        threads=args.threads, progress=progress,
    )
    resolved = RunConfig(space=cfg.space, budget=cfg.budget,
                         constraint=cfg.constraint, params=params, coeffs=cfg.coeffs)
    _write_json(out / "run_config.json", resolved.to_dict())
    _write_json(out / "result.json", {
        "entries": [r.to_dict() for r in result.entries],
        "evaluations": result.evaluations,
        "population_size": len(result.population),
    })
    log_cols = list(result.log[0].keys())
    _write_csv(out / "log.csv", log_cols, result.log)
    pareto = _pareto_rows(result)
    _write_csv(out / "pareto.csv",
               ["genome", "combined_rank", "thrpt_gops", "latency_ms", "energy_mj"],
               pareto)
    if args.json:
        print(json.dumps({"entries": [r.to_dict() for r in result.entries]},
                         indent=2, sort_keys=True))
    else:
        for i, r in enumerate(result.entries, start=1):
            print(f"#{i} rank={r.score.combined_rank} zen={r.score.zen_score:.4g} "
                  f"nn={r.score.nn_degree:.4g} thrpt={r.report.throughput_gops:.4g} GOPS "
                  f"fps={r.report.fps:.4g}")
        print(f"wrote result.json, log.csv, pareto.csv, run_config.json to {out}")
    return 0


def _pareto_rows(result: cs.CoSearchResult) -> list[dict]:
    """Non-dominated frontier of (combined rank asc, throughput desc)."""
    members = sorted(result.population,
                     key=lambda r: (r.score.combined_rank, -r.report.throughput_gops))
    rows = []
    best_thr = -1.0
    for r in members:
        thr = r.report.throughput_gops
        if thr > best_thr:
            best_thr = thr
            rows.append({
                "genome": _genome_str(r.net),
                "combined_rank": r.score.combined_rank,
                "thrpt_gops": thr,
                "latency_ms": r.report.latency_s * 1e3,
                "energy_mj": r.report.energy_mj,
            })
    return rows


def cmd_reproduce_tables(args, cfg: RunConfig) -> int:
    tables = reference_tables() if args.data is None else read_json(args.data, "reference data")
    suite = (bundled_workloads() if args.workloads is None
             else read_json(args.workloads, "workload suite"))
    if args.no_workloads:
        suite = None
    report = run_reference_checks(tables, suite)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for line in report.lines():
            print(line)
    if args.output is not None:
        out = _prepare_output(args)
        _write_json(out / "reproduce_report.json", report.to_dict())
    return 0 if report.passed else 1


def cmd_oracle_compare(args, cfg: RunConfig) -> int:
    suite = (bundled_workloads() if args.workloads is None
             else read_json(args.workloads, "workload suite"))
    comparisons = compare_workloads(suite, cfg.coeffs, node_cap=args.node_cap)
    rows = [c.to_dict() for c in comparisons]
    ok = all(
        c.ratio >= 0.95 and c.node_ratio >= 10
        and (c.exact_equal or not c.equality_expected)
        and (c.ordering_ok or not c.ordering_expected)
        for c in comparisons
    )
    if args.json:
        print(json.dumps({"passed": ok, "workloads": rows}, indent=2, sort_keys=True))
    else:
        for c in comparisons:
            print(f"{c.name:22s} ratio={c.ratio:.4f} nodes {c.nodes_search} vs "
                  f"{c.nodes_oracle:.3g} (x{c.node_ratio:.0f}) "
                  f"thr full/fine/coarse/oracle = {c.thr_full:.2f}/{c.thr_fine_only:.2f}/"
                  f"{c.thr_coarse_only:.2f}/{c.thr_oracle:.2f}")
        print("PASS" if ok else "FAIL")
    if args.output is not None:
        out = _prepare_output(args)
        _write_csv(out / "comparison.csv", list(rows[0].keys()), rows)
    return 0 if ok else 1


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chunknas",
        description="Co-search of hybrid conv/shift/adder networks and "
                    "chunk-based accelerator configurations.",
    )
    parser.add_argument("--config", help="run configuration JSON")
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                        help="parallel candidate evaluations (default: cores)")
    parser.add_argument("--output", default=None, help="output directory")
    parser.add_argument("--json", action="store_true", help="machine-readable stdout")
    parser.add_argument("--force", action="store_true",
                        help="allow writing into a non-empty output directory")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("score", help="zero-shot scores for genomes")
    p.add_argument("--genomes", help="file with one flat genome per line")
    p.add_argument("--random", type=int, default=0, help="score N random genomes")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("kendall", help="rank correlation of a two-column CSV")
    p.add_argument("csv", help="CSV file with two numeric columns")
    p.set_defaults(func=cmd_kendall)

    p = sub.add_parser("search-accel", help="coarse-to-fine accelerator search")
    p.add_argument("--genome", help="flat genome record, e.g. 16-24-4-3-0-3-...")
    p.add_argument("--genomes", help="file with a flat genome on the first line")
    p.set_defaults(func=cmd_search_accel)

    p = sub.add_parser("cosearch", help="evolutionary network/accelerator co-search")
    p.add_argument("--dry-run", action="store_true",
                   help="print the resolved configuration and exit")
    p.set_defaults(func=cmd_cosearch)

    p = sub.add_parser("reproduce-tables", help="consistency checks against the "
                                                "bundled reference measurements")
    p.add_argument("--data", help="alternative reference data JSON")
    p.add_argument("--workloads", help="alternative workload suite JSON")
    p.add_argument("--no-workloads", action="store_true",
                   help="skip the search ablation suite")
    p.set_defaults(func=cmd_reproduce_tables)

    p = sub.add_parser("oracle-compare", help="coarse-to-fine vs exhaustive oracle")
    p.add_argument("--workloads", help="workload suite JSON")
    p.add_argument("--node-cap", type=float, default=cs.DEFAULT_NODE_CAP)
    p.set_defaults(func=cmd_oracle_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = load_run_config(args.config)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Flag beats config; config (params.seed) beats the built-in default.
    if args.seed is None:
        args.seed = cfg.params.seed
    try:
        return args.func(args, cfg)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MembershipViolation as exc:
        print(f"error: invalid genome: {exc}", file=sys.stderr)
        return 2
    except cs.GridTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except cs.EmptyPopulation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # InfeasibleBudget and friends
        from .accel import EmptyFeasibleSet, InfeasibleBudget, TileExceedsBuffer

        if isinstance(exc, (InfeasibleBudget, EmptyFeasibleSet, TileExceedsBuffer)):
            print(f"error: {exc}", file=sys.stderr)
            return 5
        raise


if __name__ == "__main__":
    sys.exit(main())
