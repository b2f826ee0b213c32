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
from .search_space import OpCounts, SearchSpace, default_space

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


@dataclass
class RunConfig:
    space: SearchSpace = field(default_factory=default_space)
    budget: HardwareBudget = field(default_factory=HardwareBudget)
    constraint: Constraint = field(default_factory=lambda: Constraint(max_dsp=545, max_lut=117_000))
    params: SearchParams = field(default_factory=SearchParams)
    coeffs: EnergyCoeffs = field(default_factory=default_energy_coeffs)

    def to_dict(self) -> dict:
        return {
            "space": self.space.to_dict(),
            "budget": self.budget.to_dict(),
            "constraint": self.constraint.to_dict(),
            "params": self.params.to_dict(),
            "energy": {"coeffs": self.coeffs.to_dict()},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        cfg = cls()
        if "space" in d:
            cfg.space = SearchSpace.from_dict(d["space"])
        if "budget" in d:
            cfg.budget = HardwareBudget.from_dict(d["budget"])
        if "constraint" in d:
            cfg.constraint = Constraint.from_dict(d["constraint"])
        if "params" in d:
            cfg.params = SearchParams.from_dict(d["params"])
        if "energy" in d:
            cfg.coeffs = _energy_from_dict(d["energy"])
        return cfg


def _energy_from_dict(d: dict) -> EnergyCoeffs:
    """Either explicit coefficients or rows to fit them from:
    {"coeffs": {...}} or {"fit_rows": [[mults_m, shifts_m, adds_m, mj], ...]}."""
    if "coeffs" in d:
        return EnergyCoeffs.from_dict(d["coeffs"])
    if "fit_rows" in d:
        rows = [(OpCounts(r[0], r[1], r[2]), r[3]) for r in d["fit_rows"]]
        return fit_energy_coeffs(rows)
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
    as JSON literals, falling back to plain strings.
    """
    environ = os.environ if environ is None else environ
    sections = ("space", "budget", "constraint", "params", "energy")
    for name, raw in sorted(environ.items()):
        if not name.startswith(ENV_PREFIX + "_"):
            continue
        rest = name[len(ENV_PREFIX) + 1 :].lower()
        section, _, key = rest.partition("_")
        if section not in sections or not key:
            continue
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
    """defaults < config file < environment < explicit overrides."""
    doc: dict = {}
    if path is not None:
        raw = read_json(path, "config")
        if not isinstance(raw, dict):
            raise ParseError(f"config {path}: expected a JSON object")
        doc = raw
    doc = apply_env_overrides(doc, environ)
    if overrides:
        for section, values in overrides.items():
            doc.setdefault(section, {}).update(values)
    # Fill defaults for sections the document omits, then validate via from_dict.
    # The energy section is a choice (coeffs or fit_rows), not field-wise.
    base = RunConfig().to_dict()
    for section, defaults in base.items():
        if section == "energy":
            doc.setdefault(section, defaults)
            continue
        merged = dict(defaults)
        merged.update(doc.get(section, {}))
        doc[section] = merged
    try:
        return RunConfig.from_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(f"invalid config: {exc}") from exc
