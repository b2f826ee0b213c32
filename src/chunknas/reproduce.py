"""Executable consistency checks against the bundled reference measurements.

Four arithmetic suites (operation-count identities, throughput/FPS
identities, the per-op energy fit, resource accounting) plus the search
ablation suite on the bundled workloads. Each check reports a residual so
failures are diagnosable, and the whole harness never raises on a failed
check: failures are report content.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from . import cosearch as cs
from .accel import EnergyCoeffs, HardwareBudget, chunk_lut, conv_dsp, fit_energy_coeffs
from .config import ParseError
from .refdata import energy_fit_rows, op_row, row_ops
from .search_space import (CHOICES, FINITE, INT, POS_FINITE, Kind, LayerDescriptor, MacProfile,
                           check_value, declare, dump_fields, ops_from_macs, seq)

THROUGHPUT_TOL = 0.005
ENERGY_TOL = 0.02
ORACLE_RATIO_MIN = 0.95
NODE_RATIO_MIN = 10.0


def _positive_decimal(v) -> bool:
    try:
        return isinstance(v, str) and POS_FINITE.ok(float(v))
    except ValueError:
        return False


STR = Kind("a string", lambda v: isinstance(v, str))
BOOL = Kind("true or false", lambda v: isinstance(v, bool))
# Printed latencies stay strings: their last decimal place sets the tolerance.
LATENCY = Kind("a string holding a finite number > 0", _positive_decimal)


def _rows(row: dict) -> Kind:
    return seq(row, min_size=0)


# The two input documents as nested specs (see ``check_value``).
_TABLES_SHAPE = {
    "counting_identities": _rows({"name": STR, "conv_macs_m": FINITE, "shift_macs_m": FINITE,
                                  "adder_macs_m": FINITE, "expected_adds_m": FINITE}),
    "op_energy_rows": _rows({"dataset": STR, "method": STR, "group": STR, "mults_m": FINITE,
                             "shifts_m": FINITE, "adds_m": FINITE, "energy_mj": FINITE}),
    "hw_rows": _rows({"dataset": STR, "method": STR, "latency_ms": LATENCY,
                      "gops": POS_FINITE, "fps": POS_FINITE}),
    "resource_check": {"pe_conv": INT, "expected_dsp": INT, "klut_band": seq(FINITE, 2),
                       "eq9_band_rows": _rows({"dataset": STR, "method": STR, "in_band": BOOL})},
}
_SUITE_SHAPE = {
    "budget": {},
    "grid": dict.fromkeys(("conv", "shift", "adder"), CHOICES),
    "workloads": seq({"name": STR, "layers": seq({})}),
}


def _check_shape(doc, shape, where: str) -> None:
    """Raise ParseError naming the first place where ``doc`` lacks a key or
    holds a value of the wrong kind."""
    try:
        check_value(doc, shape, where)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def check_tables(tables, where: str) -> None:
    """Raise ParseError unless ``tables`` is reference data of the expected
    shape whose hardware and band rows name existing op rows."""
    _check_shape(tables, _TABLES_SHAPE, where)
    refs = [(r["dataset"], r.get("ops_ref", r["method"])) for r in tables["hw_rows"]]
    refs += [(e["dataset"], e["method"]) for e in tables["resource_check"]["eq9_band_rows"]]
    try:
        for dataset, method in refs:
            op_row(tables, dataset, method)
    except KeyError as exc:
        raise ParseError(f"{where}: {exc.args[0]}") from exc


def check_suite(suite, where: str) -> None:
    """Raise ParseError unless ``suite`` is a workload suite of the expected
    shape whose budget and layers parse."""
    _check_shape(suite, _SUITE_SHAPE, where)
    try:
        HardwareBudget.from_dict(suite["budget"])
        for wl in suite["workloads"]:
            for d in wl["layers"]:
                LayerDescriptor.from_dict(d)
    except ValueError as exc:
        raise ParseError(f"{where}: {exc}") from exc


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str
    residual: float | None = None

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        res = f" residual={self.residual:.4g}" if self.residual is not None else ""
        return f"[{mark}] {self.suite}: {self.name}{res} ({self.detail})"


def check_counting_identities(tables: dict) -> list[CheckResult]:
    """The fixed MAC-to-op counting rules reproduce the published op columns
    of the multiplication-free rows exactly (integer-scaled)."""
    out = []
    for fix in tables["counting_identities"]:
        ops = ops_from_macs(
            fix["conv_macs_m"] * 1e6,
            fix["shift_macs_m"] * 1e6,
            fix["adder_macs_m"] * 1e6,
        )
        ok = round(ops.adds * 100) == round(fix["expected_adds_m"] * 100)
        detail = f"adds {ops.adds:.2f} M vs {fix['expected_adds_m']:.2f} M"
        if "expected_shifts_m" in fix:
            ok = ok and round(ops.shifts * 100) == round(fix["expected_shifts_m"] * 100)
            detail += f", shifts {ops.shifts:.2f} M vs {fix['expected_shifts_m']:.2f} M"
        out.append(
            CheckResult("op-count", fix["name"], ok, detail,
                        abs(ops.adds - fix["expected_adds_m"]))
        )
    # Multiplication-based rows must satisfy adds == mults, shifts == 0.
    bad = [
        f"{r['dataset']}/{r['method']}"
        for r in tables["op_energy_rows"]
        if r["group"] == "mult_based" and (r["mults_m"] != r["adds_m"] or r["shifts_m"] != 0)
    ]
    out.append(
        CheckResult("op-count", "mult_based_rows_mults_equal_adds", not bad,
                    "violations: " + (", ".join(bad) if bad else "none"))
    )
    return out


def _latency_half_ulp(printed: str) -> float:
    """Half the last printed decimal place, in ms."""
    printed = printed.strip()
    decimals = len(printed.split(".")[1]) if "." in printed else 0
    return 0.5 * 10 ** (-decimals)


def check_throughput_fps(tables: dict, tol: float = THROUGHPUT_TOL) -> list[CheckResult]:
    """Throughput = ops/latency and FPS = 1/latency against the printed
    columns, honoring the rounding precision of the printed latency: the row
    passes if a latency inside the printed value's rounding interval
    reproduces both printed columns within ``tol``."""
    out = []
    for row in tables["hw_rows"]:
        ref = op_row(tables, row["dataset"], row.get("ops_ref", row["method"]))
        ops_m = ref["mults_m"] + ref["shifts_m"] + ref["adds_m"]
        lat = float(row["latency_ms"])
        half = _latency_half_ulp(row["latency_ms"])
        gops, fps = row["gops"], row["fps"]
        # ops_m [Mops] / latency [ms] gives GOPS directly.
        lo = max(lat - half, ops_m / (gops * (1 + tol)), 1000.0 / (fps * (1 + tol)))
        hi = min(lat + half, ops_m / (gops * (1 - tol)), 1000.0 / (fps * (1 - tol)))
        passed = lo <= hi
        mid_gops = ops_m / lat
        mid_fps = 1000.0 / lat
        residual = max(abs(mid_gops - gops) / gops, abs(mid_fps - fps) / fps)
        out.append(
            CheckResult(
                "throughput-fps",
                f"{row['dataset']}/{row['method']}",
                passed,
                f"ops {ops_m:.2f} M, lat {row['latency_ms']} ms -> "
                f"{mid_gops:.1f} GOPS vs {gops}, {mid_fps:.1f} FPS vs {fps}",
                residual,
            )
        )
    return out


def check_energy_fit(tables: dict, tol: float = ENERGY_TOL) -> tuple[list[CheckResult], EnergyCoeffs]:
    coeffs = fit_energy_coeffs(energy_fit_rows(tables))
    out = [
        CheckResult(
            "energy-fit", "coefficients", True,
            f"e_mult={coeffs.e_mult:.4g}, e_shift={coeffs.e_shift:.4g}, "
            f"e_add={coeffs.e_add:.4g} mJ/Mop",
        )
    ]
    for row in tables["op_energy_rows"]:
        if row["group"] == "cosearched":
            row_tol = tol  # held-out predictions
        elif row["group"] == "mult_based":
            row_tol = 0.01  # fit residuals on the multiplication-based rows
        else:
            continue
        pred = coeffs.energy_mj(row_ops(row))
        rel = abs(pred - row["energy_mj"]) / row["energy_mj"]
        out.append(
            CheckResult(
                "energy-fit",
                f"{row['dataset']}/{row['method']}",
                rel <= row_tol,
                f"predicted {pred:.4f} mJ vs {row['energy_mj']:.3f} mJ",
                rel,
            )
        )
    return out, coeffs


def _mac_profile_from_ops(row: dict) -> MacProfile:
    adder_macs = (row["adds_m"] - row["mults_m"] - row["shifts_m"]) / 2.0
    return MacProfile(
        int(round(row["mults_m"] * 1e6)),
        int(round(row["shifts_m"] * 1e6)),
        int(round(adder_macs * 1e6)),
    )


def check_resources(tables: dict) -> list[CheckResult]:
    """Per-PE cost accounting plus the LUT range of MAC-balanced full-size
    configurations under the default LUT overhead."""
    lut_overhead = HardwareBudget().lut_overhead
    rc = tables["resource_check"]
    pe_c = rc["pe_conv"]
    dsp = conv_dsp(pe_c)
    out = [
        CheckResult(
            "resources", "dsp_packing", dsp == rc["expected_dsp"],
            f"{pe_c} conv PEs -> {dsp} DSP (expect {rc['expected_dsp']})",
        )
    ]
    lo, hi = rc["klut_band"]
    for entry in rc["eq9_band_rows"]:
        row = op_row(tables, entry["dataset"], entry["method"])
        macs = _mac_profile_from_ops(row)
        _, _, pe_s, pe_a = cs.eq9_pe_init(macs, pe_c)
        klut = chunk_lut(pe_c, pe_s, pe_a, lut_overhead) / 1000.0
        in_band = lo <= klut <= hi
        out.append(
            CheckResult(
                "resources",
                f"eq9_band/{entry['dataset']}/{entry['method']}",
                in_band == entry["in_band"],
                f"pe_s={pe_s}, pe_a={pe_a} -> {klut:.2f} kLUT "
                f"({'in' if in_band else 'out of'} [{lo}, {hi}], expected "
                f"{'in' if entry['in_band'] else 'out'})",
            )
        )
    return out


@dataclass
class WorkloadComparison:
    name: str
    thr_full: float = declare(None, key="thr_full_gops")
    thr_fine_only: float = declare(None, key="thr_fine_only_gops")
    thr_coarse_only: float = declare(None, key="thr_coarse_only_gops")
    thr_oracle: float = declare(None, key="thr_oracle_gops")
    ratio: float = declare(None, key="ratio_vs_oracle")
    exact_equal: bool
    nodes_search: int
    nodes_oracle: int
    node_ratio: float
    ordering_ok: bool
    equality_expected: bool
    ordering_expected: bool

    def to_dict(self) -> dict:
        return dump_fields(self)


def compare_workloads(
    suite: dict,
    coeffs: EnergyCoeffs,
    node_cap: int = cs.DEFAULT_NODE_CAP,
) -> list[WorkloadComparison]:
    """Run full / fine-only / coarse-only search and the joint oracle on
    every workload of a suite file. The four designs of a workload read
    their rows from one sweep per chunk (``comparison_tables``)."""
    budget = HardwareBudget.from_dict(suite["budget"])
    grid = suite["grid"]
    results = []
    for wl in suite["workloads"]:
        layers = [LayerDescriptor.from_dict(d) for d in wl["layers"]]
        swept = cs.comparison_tables(layers, budget, grid, node_cap)
        full = cs.search_accelerator_layers(layers, budget, coeffs, swept=swept)
        fine_only = cs.search_accelerator_layers(layers, budget, coeffs, coarse_phase=False,
                                                 swept=swept)
        coarse_only = cs.search_accelerator_layers(layers, budget, coeffs, fine_phase=False,
                                                   swept=swept)
        oracle = cs.oracle_layers(layers, budget, coeffs, grid, node_cap, swept=swept)
        thr = full.report.throughput_gops
        ordering_ok = (
            thr >= fine_only.report.throughput_gops - 1e-9
            and fine_only.report.throughput_gops >= coarse_only.report.throughput_gops - 1e-9
        )
        results.append(
            WorkloadComparison(
                name=wl["name"],
                thr_full=thr,
                thr_fine_only=fine_only.report.throughput_gops,
                thr_coarse_only=coarse_only.report.throughput_gops,
                thr_oracle=oracle.report.throughput_gops,
                ratio=thr / oracle.report.throughput_gops,
                exact_equal=thr == oracle.report.throughput_gops,
                nodes_search=full.evaluated_nodes,
                nodes_oracle=oracle.joint_space_nodes,
                node_ratio=oracle.joint_space_nodes / full.evaluated_nodes,
                ordering_ok=ordering_ok,
                equality_expected=wl.get("equality_expected", False),
                ordering_expected=wl.get("ordering_expected", True),
            )
        )
    return results


def check_ablation(comparisons: Sequence[WorkloadComparison]) -> list[CheckResult]:
    out = []
    for c in comparisons:
        if c.ordering_expected:
            out.append(
                CheckResult(
                    "ablation-ordering", c.name, c.ordering_ok,
                    f"full {c.thr_full:.2f} >= fine-only {c.thr_fine_only:.2f} "
                    f">= coarse-only {c.thr_coarse_only:.2f} GOPS",
                )
            )
        out.append(
            CheckResult(
                "oracle-ratio", c.name,
                c.ratio >= ORACLE_RATIO_MIN and c.node_ratio >= NODE_RATIO_MIN
                and (c.exact_equal or not c.equality_expected),
                f"ratio {c.ratio:.4f}, nodes {c.nodes_search} vs {c.nodes_oracle:.3g} "
                f"(x{c.node_ratio:.0f})" + (", exact equality" if c.exact_equal else ""),
                1.0 - c.ratio,
            )
        )
    return out


@dataclass
class Report:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = [c.line() for c in self.checks]
        n_fail = sum(not c.passed for c in self.checks)
        out.append(f"{len(self.checks) - n_fail}/{len(self.checks)} checks passed")
        return out

    def to_dict(self) -> dict:
        return {"passed": self.passed, "checks": [dump_fields(c) for c in self.checks]}


def run_reference_checks(tables: dict, workload_suite: dict | None = None) -> Report:
    report = Report()
    report.checks += check_counting_identities(tables)
    report.checks += check_throughput_fps(tables)
    energy_checks, coeffs = check_energy_fit(tables)
    report.checks += energy_checks
    report.checks += check_resources(tables)
    if workload_suite is not None:
        comparisons = compare_workloads(workload_suite, coeffs)
        report.checks += check_ablation(comparisons)
    return report
