"""Bundled data: reference measurement rows and the oracle-comparison suite."""

from __future__ import annotations

import json
from functools import lru_cache
from importlib import resources

from .accel import EnergyCoeffs, fit_energy_coeffs
from .search_space import OpCounts


@lru_cache(maxsize=None)
def _data_text(name: str) -> str:
    return resources.files("chunknas").joinpath("data", name).read_text()


def reference_tables() -> dict:
    """The bundled reference rows, parsed afresh on each call so a caller
    may edit its copy without changing what later callers read."""
    return json.loads(_data_text("reference_results.json"))


def bundled_workloads() -> dict:
    """The bundled oracle-comparison suite, a fresh copy on each call."""
    return json.loads(_data_text("workloads.json"))


def op_row(tables: dict, dataset: str, method: str) -> dict:
    for row in tables["op_energy_rows"]:
        if row["dataset"] == dataset and row["method"] == method:
            return row
    raise KeyError(f"no op row for {dataset}/{method}")


def row_ops(row: dict) -> OpCounts:
    return OpCounts(row["mults_m"], row["shifts_m"], row["adds_m"])


def energy_fit_rows(tables: dict):
    return [
        (row_ops(r), r["energy_mj"])
        for r in tables["op_energy_rows"]
        if r["group"] in ("mult_based", "mult_free")
    ]


@lru_cache(maxsize=None)
def default_energy_coeffs() -> EnergyCoeffs:
    """Per-op energy calibrated by least squares on the reference rows."""
    return fit_energy_coeffs(energy_fit_rows(reference_tables()))
