"""Run configuration: one JSON document describing a full reproducible run.

Resolution order for every key: built-in defaults, then the config file,
then ``CHUNKNAS_<SECTION>_<KEY>`` environment variables, then CLI flags.
Units are spelled out in field names (``gb_bytes``, ``frequency_hz``).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from .accel import EnergyCoeffs, HardwareBudget, fit_energy_coeffs
from .cosearch import Constraint, SearchParams
from .refdata import default_energy_coeffs
from .search_space import FINITE, OpCounts, SearchSpace, check_keys, check_value, default_space, seq

ENV_PREFIX = "CHUNKNAS"


class ParseError(ValueError):
    """Malformed input file; carries the offending location."""

    def __init__(self, message: str, line: int | None = None, field_name: str | None = None):
        self.line = line
        self.field_name = field_name
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if field_name is not None:
            loc.append(f"field {field_name!r}")
        suffix = f" ({', '.join(loc)})" if loc else ""
        super().__init__(message + suffix)


# The record type of each section of a run configuration document. The
# energy section is not one: it holds coefficients or rows to fit them from.
SECTIONS = {"space": SearchSpace, "budget": HardwareBudget, "constraint": Constraint,
            "params": SearchParams}


@dataclass
class RunConfig:
    space: SearchSpace = field(default_factory=default_space)
    budget: HardwareBudget = field(default_factory=HardwareBudget)
    constraint: Constraint = field(default_factory=lambda: Constraint(max_dsp=545, max_lut=117_000))
    params: SearchParams = field(default_factory=SearchParams)
    coeffs: EnergyCoeffs = field(default_factory=default_energy_coeffs)

    def to_dict(self) -> dict:
        return {**{s: getattr(self, s).to_dict() for s in SECTIONS},
                "energy": {"coeffs": self.coeffs.to_dict()}}

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        cfg = cls(**{s: record.from_dict(d[s]) for s, record in SECTIONS.items() if s in d})
        if "energy" in d:
            cfg.coeffs = _energy_from_dict(d["energy"])
        return cfg


def _energy_from_dict(d: dict) -> EnergyCoeffs:
    """Either explicit coefficients or rows to fit them from:
    {"coeffs": {...}} or {"fit_rows": [[mults_m, shifts_m, adds_m, mj], ...]}."""
    check_keys(d, ("coeffs", "fit_rows"), "energy")
    if "coeffs" in d:
        return EnergyCoeffs.from_dict(d["coeffs"])
    if "fit_rows" in d:
        # Rows of [mults_m, shifts_m, adds_m, mj].
        rows = check_value(d["fit_rows"], seq(seq(FINITE, 4)), "fit_rows")
        return fit_energy_coeffs([(OpCounts(*r[:3]), r[3]) for r in rows])
    raise ParseError("energy section needs 'coeffs' or 'fit_rows'", field_name="energy")


def _parse_env_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def apply_env_overrides(doc: dict, environ: dict | None = None) -> dict:
    """Fold CHUNKNAS_<SECTION>_<KEY> variables into a config document.

    The section is the first underscore-delimited token (budget, constraint,
    params, space, energy); the rest, lowercased, is the key. Values parse
    as JSON literals, falling back to plain strings. An unknown section or
    key is passed on for ``load_run_config`` to report.
    """
    environ = os.environ if environ is None else environ
    for name, raw in sorted(environ.items()):
        if not name.startswith(ENV_PREFIX + "_"):
            continue
        section, _, key = name[len(ENV_PREFIX) + 1 :].lower().partition("_")
        doc.setdefault(section, {})[key] = _parse_env_value(raw)
    return doc


def read_text(path: str, what: str = "file") -> str:
    """Contents of an input file; a missing or unreadable file is a ParseError."""
    try:
        with open(path) as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{what} {path}: {getattr(exc, 'strerror', None) or exc}") from exc


def read_json(path: str, what: str = "file"):
    """Parsed JSON document of an input file; malformed JSON is a ParseError
    naming the offending line."""
    try:
        return json.loads(read_text(path, what))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{what} {path}: {exc.msg}", line=exc.lineno) from exc


def load_run_config(
    path: str | None = None,
    environ: dict | None = None,
    overrides: dict | None = None,
) -> RunConfig:
    """defaults < config file < environment < explicit overrides. Every
    value the file or the environment gives is checked, also one that an
    override replaces."""
    doc: dict = {}
    if path is not None:
        raw = read_json(path, "config")
        if not isinstance(raw, dict):
            raise ParseError(f"config {path}: expected a JSON object")
        doc = raw
    base = RunConfig().to_dict()
    try:
        check_keys(doc, base, "top level")
        for section in doc:
            check_value(doc[section], {}, section)  # a JSON object, before anything folds in
        doc = apply_env_overrides(doc, environ)
        check_keys(doc, base, "environment")
        # Fill defaults for sections the document omits, then validate via
        # from_dict. The energy section is a choice (coeffs or fit_rows), not
        # field-wise.
        for section, defaults in base.items():
            given = doc.get(section, defaults)
            doc[section] = given if section == "energy" else {**defaults, **given}
        cfg = RunConfig.from_dict(doc)
        if not overrides:
            return cfg
        for section, values in overrides.items():
            doc[section] = {**doc[section], **values}
        return RunConfig.from_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(f"invalid config: {exc}") from exc
