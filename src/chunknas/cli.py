"""Command-line driver.

Verbs: score, kendall, search-accel, cosearch, reproduce-tables,
oracle-compare. All runs are deterministic under (config, seed). A verb
checks its inputs, then prepares its output directory, then works: a
non-empty output directory is refused (exit 2) before any work unless
--force is given.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import os
import random
import sys
import time
from pathlib import Path

from . import cosearch as cs
from . import zeroshot
from .accel import BRAM_BITS, InfeasibleBudget
from .config import ParseError, RunConfig, load_run_config, read_json, read_text
from .refdata import bundled_workloads, reference_tables
from .reproduce import (
    check_ablation,
    check_suite,
    check_tables,
    compare_workloads,
    run_reference_checks,
)
from .search_space import (
    FINITE,
    POS_FINITE,
    POS_INT,
    MembershipViolation,
    SubNetwork,
    check_value,
    expand_blocks,
    sample_random,
    validate,
)


class OutputNotEmpty(ValueError):
    """The output directory holds files and --force was not given."""


# Declared kind of each numeric flag (argparse dest); an unset flag is not checked.
FLAG_KINDS = {"threads": POS_INT, "node_cap": POS_FINITE, "random": POS_INT}

# Exit code and message prefix of each typed failure; any other exception is a bug.
EXIT_CODES = {
    ParseError: (2, ""),
    OutputNotEmpty: (2, ""),
    MembershipViolation: (2, "invalid genome: "),
    zeroshot.AllTied: (2, ""),
    cs.GridTooLarge: (3, ""),
    cs.EmptyPopulation: (4, ""),
    InfeasibleBudget: (5, ""),
}


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def _write_csv(path: Path, rows: list[dict]) -> None:
    """Rows share their keys; the first row's key order is the header."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0])
    for row in rows:
        writer.writerow([_fmt(v) for v in row.values()])
    path.write_text(buf.getvalue())


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _prepare_output(args) -> Path:
    out = args.output
    if out is None:
        out = Path("runs") / f"{args.verb}-{time.strftime('%Y%m%d-%H%M%S')}"
    out = Path(out)
    if out.exists() and any(out.iterdir()) and not args.force:
        raise OutputNotEmpty(f"output directory {out} is not empty; pass --force to overwrite")
    out.mkdir(parents=True, exist_ok=True)
    return out


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
    try:
        return SubNetwork.from_flat(values)
    except ValueError as exc:
        raise ParseError(str(exc), line=line_no) from exc


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


def _perf_row(genome: str, report, budget) -> dict:
    dsp, lut, bram = report.dsp, report.lut, report.bram_blocks
    return {
        "genome": genome,
        "klut": lut / 1000.0,
        "klut_pct": 100.0 * lut / budget.lut_total,
        "dsp": dsp,
        "dsp_pct": 100.0 * dsp / budget.dsp_total,
        "bram_blocks": bram,
        "bram_pct": 100.0 * bram * BRAM_BITS / budget.bram_bits_total,
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
    if args.genomes:
        nets = read_genome_file(args.genomes)
    else:
        rng = random.Random(cfg.params.seed)
        nets = [sample_random(cfg.space, rng) for _ in range(args.random)]
    expansions = [expand_blocks(cfg.space, net) for net in nets]  # validates each genome
    out = _prepare_output(args)
    scores = [cs.zero_shot_scores(net, cfg.space, cfg.params, expansion)
              for net, expansion in zip(nets, expansions)]
    rows = [
        {"genome_id": f"{net.digest():016x}", "genome": _genome_str(net),
         "nn_degree": nn_val, "zen_score": float("nan") if zen_val is None else zen_val,
         "combined_rank": rank}
        for net, (nn_val, zen_val), rank in zip(nets, scores, cs.rank_scores(scores))
    ]
    _write_csv(out / "scores.csv", rows)
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
            cells = [float(c) for c in row[:2]]
        except ValueError:
            if line_no == 1:
                continue  # header
            raise ParseError("non-numeric cell", line=line_no)
        try:
            x, y = (check_value(c, FINITE, "cell") for c in cells)
        except ValueError as exc:
            raise ParseError(str(exc), line=line_no) from exc
        xs.append(x)
        ys.append(y)
    if len(xs) < 2:
        raise ParseError(f"{args.csv}: need at least two rows, got {len(xs)}")
    tau = zeroshot.kendall_tau(xs, ys)
    if args.json:
        print(json.dumps({"kendall_tau": tau, "n": len(xs)}))
    else:
        print(f"kendall_tau = {tau:.6g}  (n = {len(xs)})")
    return 0


def cmd_search_accel(args, cfg: RunConfig) -> int:
    if args.genome:
        net = _parse_genome_text(args.genome)
    else:
        net = read_genome_file(args.genomes)[0]
    validate(cfg.space, net)
    out = _prepare_output(args)
    budget = cs.effective_budget(cfg.budget, cfg.constraint)  # perf.csv's shares stay of cfg.budget
    accel_cfg, report = cs.search_accelerator(net, cfg.space, budget, cfg.coeffs)
    _write_json(out / "accel_config.json", accel_cfg.to_dict())
    row = _perf_row(_genome_str(net), report, cfg.budget)
    _write_csv(out / "perf.csv", [row])
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
    if args.dry_run:
        print(json.dumps(cfg.to_dict(), indent=2, sort_keys=True))
        return 0
    out = _prepare_output(args)
    progress = None if args.json else (lambda msg: print(msg, file=sys.stderr))
    result = cs.cosearch(
        cfg.space, cfg.budget, cfg.constraint, cfg.params, cfg.coeffs,
        threads=args.threads, progress=progress,
    )
    entries = [c.to_dict(rank) for rank, c in result.entries]
    _write_json(out / "run_config.json", cfg.to_dict())
    _write_json(out / "result.json", {
        "entries": entries,
        "evaluations": result.evaluations,
        "population_size": len(result.population),
    })
    _write_csv(out / "log.csv", result.log)
    _write_csv(out / "pareto.csv", _pareto_rows(result))
    if args.json:
        print(json.dumps({"entries": entries}, indent=2, sort_keys=True))
    else:
        for i, (rank, c) in enumerate(result.entries, start=1):
            zen = "nan" if c.zen is None else format(c.zen, ".4g")
            print(f"#{i} rank={rank} zen={zen} nn={c.nn_degree:.4g} "
                  f"thrpt={c.report.throughput_gops:.4g} GOPS fps={c.report.fps:.4g}")
        print(f"wrote result.json, log.csv, pareto.csv, run_config.json to {out}")
    return 0


def _pareto_rows(result: cs.CoSearchResult) -> list[dict]:
    """Non-dominated frontier of (combined rank asc, throughput desc)."""
    members = sorted(result.population, key=lambda rc: (rc[0], -rc[1].report.throughput_gops))
    rows = []
    best_thr = -1.0
    for rank, c in members:
        thr = c.report.throughput_gops
        if thr > best_thr:
            best_thr = thr
            rows.append({
                "genome": _genome_str(c.net),
                "combined_rank": rank,
                "thrpt_gops": thr,
                "latency_ms": c.report.latency_s * 1e3,
                "energy_mj": c.report.energy_mj,
            })
    return rows


def _read_tables(path: str) -> dict:
    tables = read_json(path, "reference data")
    check_tables(tables, f"reference data {path}")
    return tables


def _read_suite(path: str) -> dict:
    suite = read_json(path, "workload suite")
    check_suite(suite, f"workload suite {path}")
    return suite


def cmd_reproduce_tables(args, cfg: RunConfig) -> int:
    tables = reference_tables() if args.data is None else _read_tables(args.data)
    suite = bundled_workloads() if args.workloads is None else _read_suite(args.workloads)
    if args.no_workloads:
        suite = None
    out = None if args.output is None else _prepare_output(args)
    report = run_reference_checks(tables, suite)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for line in report.lines():
            print(line)
    if out is not None:
        _write_json(out / "reproduce_report.json", report.to_dict())
    return 0 if report.passed else 1


def cmd_oracle_compare(args, cfg: RunConfig) -> int:
    suite = bundled_workloads() if args.workloads is None else _read_suite(args.workloads)
    out = None if args.output is None else _prepare_output(args)
    comparisons = compare_workloads(suite, cfg.coeffs, node_cap=args.node_cap)
    rows = [c.to_dict() for c in comparisons]
    ok = all(check.passed for check in check_ablation(comparisons))
    if args.json:
        print(json.dumps({"passed": ok, "workloads": rows}, indent=2, sort_keys=True))
    else:
        for c in comparisons:
            print(f"{c.name:22s} ratio={c.ratio:.4f} nodes {c.nodes_search} vs "
                  f"{c.nodes_oracle:.3g} (x{c.node_ratio:.0f}) "
                  f"thr full/fine/coarse/oracle = {c.thr_full:.2f}/{c.thr_fine_only:.2f}/"
                  f"{c.thr_coarse_only:.2f}/{c.thr_oracle:.2f}")
        print("PASS" if ok else "FAIL")
    if out is not None:
        _write_csv(out / "comparison.csv", rows)
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
                        help="parallel candidate evaluations (default: cores); run "
                             "with OPENBLAS_NUM_THREADS=1, since BLAS threads per "
                             "worker contend for the same cores")
    parser.add_argument("--output", default=None, help="output directory")
    parser.add_argument("--json", action="store_true", help="machine-readable stdout")
    parser.add_argument("--force", action="store_true",
                        help="allow writing into a non-empty output directory")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("score", help="zero-shot scores for genomes")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--genomes", help="file with one flat genome per line")
    source.add_argument("--random", type=int, help="score N random genomes")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("kendall", help="rank correlation of a two-column CSV")
    p.add_argument("csv", help="CSV file with two numeric columns")
    p.set_defaults(func=cmd_kendall)

    p = sub.add_parser("search-accel", help="coarse-to-fine accelerator search")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--genome", help="flat genome record, e.g. 16-24-4-3-0-3-...")
    source.add_argument("--genomes", help="file with a flat genome on the first line")
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
        for name, kind in FLAG_KINDS.items():
            if getattr(args, name, None) is not None:
                try:
                    check_value(getattr(args, name), kind, "--" + name.replace("_", "-"))
                except ValueError as exc:
                    raise ParseError(str(exc)) from exc
        # Flag beats config; config (params.seed) beats the built-in default.
        seed = None if args.seed is None else {"params": {"seed": args.seed}}
        return args.func(args, load_run_config(args.config, overrides=seed))
    except tuple(EXIT_CODES) as exc:
        code, prefix = next(v for t, v in EXIT_CODES.items() if isinstance(exc, t))
        print(f"error: {prefix}{exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
