"""Property test of run-config resolution: random ``CHUNKNAS_<SECTION>_<KEY>``
environment overrides either load or raise ``ParseError`` (CLI exit 2),
never another exception; a config that loads runs the constraint-shrunk
budget, a genome expansion and a JSON energy figure without a traceback;
and a budget that loads drives the accelerator search to a design that
fits it, or to ``InfeasibleBudget`` (CLI exit 5). Also the stage values of
a config file: integer choices > 0, layer-type codes, strides 1 or 2, or
exit 2."""

import json
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from chunknas.accel import InfeasibleBudget
from chunknas.cli import main
from chunknas.config import ParseError, RunConfig, load_run_config
from chunknas.cosearch import effective_budget, search_accelerator
from chunknas.search_space import count_ops, default_space, expand_blocks, sample_random

# Each section's keys (energy: the coeffs/fit_rows choice) plus an unknown
# key, and an unknown section.
KEYS = {section: sorted(doc) + ["nosuch"] for section, doc in RunConfig().to_dict().items()}
KEYS["energy"].append("fit_rows")
KEYS["nosuch"] = ["nosuch"]
# JSON literals as they appear after the ``=`` of an environment variable.
SCALARS = ["0", "1", "8", "-1", "-8", "1.5", "0.5", "1e309", "-1e309", "NaN",
           '"x"', '""', "null", "true", "false", "4096", "117000"]
VALUES = st.one_of(
    st.sampled_from(SCALARS),
    st.lists(st.sampled_from(SCALARS), max_size=4).map(lambda xs: f"[{','.join(xs)}]"),
    st.lists(st.lists(st.sampled_from(SCALARS), max_size=4), min_size=1, max_size=4).map(
        lambda rows: "[" + ",".join(f"[{','.join(r)}]" for r in rows) + "]"),
    st.sampled_from(['{}', '{"a": 1}', '{"e_mult": 1}', '[{}]', "x y"]),
)
names = st.sampled_from(sorted(KEYS)).flatmap(
    lambda section: st.sampled_from(KEYS[section]).map(
        lambda key: f"CHUNKNAS_{section}_{key}".upper()))
overrides = st.dictionaries(names, VALUES, min_size=1, max_size=3)
NET = sample_random(default_space(), random.Random(0))


@settings(max_examples=150)
@given(overrides)
@example({"CHUNKNAS_BUDGET_DSP_RESERVE_FRAC": "0"})  # once a ZeroDivisionError
@example({"CHUNKNAS_BUDGET_DSP_RESERVE_FRAC": "5e-324"})  # once an OverflowError
def test_env_overrides_load_or_raise_parse_error(environ):
    try:
        cfg = load_run_config(environ=environ)
    except ParseError:
        return
    effective_budget(cfg.budget, cfg.constraint)
    layers, _ = expand_blocks(cfg.space, sample_random(cfg.space, random.Random(0)))
    json.dumps(cfg.coeffs.energy_mj(count_ops(layers)), allow_nan=False)


@settings(max_examples=150)
@given(overrides)
def test_loaded_budget_fits_or_is_infeasible(environ):
    try:
        cfg = load_run_config(environ=environ)
    except ParseError:
        return
    if cfg.space != default_space():
        return
    try:
        config, _ = search_accelerator(NET, cfg.space, cfg.budget, cfg.coeffs)
    except InfeasibleBudget:
        return
    config.assert_fits(cfg.budget)


def _space_config(tmp_path, stage, key, choices):
    doc = default_space().to_dict()
    doc["stages"][stage][key] = choices
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"space": doc}))
    return path


@pytest.mark.parametrize("key,value", [
    pytest.param("channels", [0, 16], id="channels-0"),
    pytest.param("types", [5], id="types-5"),
    pytest.param("types", [None], id="types-null"),
    pytest.param("types", [-1], id="types-neg1"),
    pytest.param("types", [True], id="types-true"),
    pytest.param("stride", True, id="stride-true"),
    pytest.param("stride", 1.0, id="stride-float"),
])
def test_zero_channel_choice_exits_2(tmp_path, capsys, key, value):
    # Once a traceback: ZeroDivisionError in LayerDescriptor (channel 0),
    # IndexError (type 5), AttributeError (type null). Type -1 once read as
    # adder, type true as shift, and stride true or 1.0 as 1.
    path = _space_config(tmp_path, 0, key, value)
    rc = main(["--config", str(path), "--seed", "0", "--output", str(tmp_path / "o"),
               "score", "--random", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"stages[0]: {key}" in err


def test_fractional_expansion_choice_rejected(tmp_path):
    # Once silently truncated to 2 by int().
    with pytest.raises(ParseError, match="expansions"):
        load_run_config(str(_space_config(tmp_path, 1, "expansions", [2.7, 4])), environ={})
