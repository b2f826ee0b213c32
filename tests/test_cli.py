import csv
import json
import random
import re
from importlib import resources

import pytest

from chunknas.cli import main, read_genome_file
from chunknas.config import ParseError, RunConfig, apply_env_overrides, load_run_config
from chunknas.refdata import bundled_workloads, reference_tables
from chunknas.search_space import default_space, sample_random


def flat_genome_str(seed=0, space=None):
    net = sample_random(space or default_space(), random.Random(seed))
    return "-".join(str(v) for v in net.to_flat())


def tiny_run_config(tmp_path, **params):
    from test_cosearch import small_budget, tiny_space

    cfg = {
        "space": tiny_space().to_dict(),
        "budget": small_budget().to_dict(),
        "constraint": {"max_dsp": 32, "max_lut": 12000},
        "params": {"population": 5, "expand_size": 4, "iterations": 1,
                   "top_k": 2, "seed": 1, **params},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestScore:
    def test_random_deterministic(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cfg = tiny_run_config(tmp_path)
        for out in (out1, out2):
            rc = main(["--config", str(cfg), "--seed", "3",
                       "--output", str(out), "score", "--random", "4"])
            assert rc == 0
        assert (out1 / "scores.csv").read_bytes() == (out2 / "scores.csv").read_bytes()

    def test_genome_file_single_row(self, tmp_path):
        gfile = tmp_path / "g.txt"
        gfile.write_text(flat_genome_str(1) + "\n")
        out = tmp_path / "out"
        rc = main(["--output", str(out), "score", "--genomes", str(gfile)])
        assert rc == 0
        lines = (out / "scores.csv").read_text().strip().splitlines()
        assert len(lines) == 2  # header + one row

    def test_malformed_genome_reports_location(self, tmp_path, capsys):
        gfile = tmp_path / "g.txt"
        gfile.write_text("16-24-xyz-3\n")
        rc = main(["--output", str(tmp_path / "o"), "score", "--genomes", str(gfile)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "xyz" in err

    def test_out_of_space_genome_rejected(self, tmp_path, capsys):
        vals = flat_genome_str(0).split("-")
        vals[0] = "999"
        gfile = tmp_path / "g.txt"
        gfile.write_text("-".join(vals))
        rc = main(["--output", str(tmp_path / "o"), "score", "--genomes", str(gfile)])
        assert rc == 2
        assert "invalid genome" in capsys.readouterr().err


class TestKendall:
    def test_fixture(self, tmp_path, capsys):
        f = tmp_path / "k.csv"
        f.write_text("x,y\n1,1\n2,3\n3,2\n4,4\n")
        assert main(["kendall", str(f)]) == 0
        assert "0.666667" in capsys.readouterr().out

    def test_json_flag(self, tmp_path, capsys):
        f = tmp_path / "k.csv"
        f.write_text("1,2\n2,1\n")
        assert main(["--json", "kendall", str(f)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["kendall_tau"] == -1.0

    @pytest.mark.parametrize("content,where", [
        pytest.param("1,2\nbad,3\n", "line 2", id="non-numeric"),
        # Once a ValueError traceback.
        pytest.param("x,y\n", "two rows", id="header-only"),
        # Once an AllTied traceback.
        pytest.param("1,2\n1,3\n", "tied", id="all-tied"),
        # Once accepted: tau 1 for nan, 0.333 and a RuntimeWarning for inf.
        pytest.param("1,2\nnan,3\n4,5\n", "line 2", id="nan"),
        pytest.param("1,2\ninf,3\n4,5\n", "line 2", id="inf"),
    ])
    def test_bad_cell(self, tmp_path, capsys, content, where):
        f = tmp_path / "k.csv"
        f.write_text(content)
        assert main(["kendall", str(f)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and where in err


class TestSearchAccel:
    def test_default_budget_dsp_column(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["--output", str(out), "search-accel", "--genome", flat_genome_str(4)])
        assert rc == 0
        header, row = (out / "perf.csv").read_text().strip().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert cols["dsp"] == "545"
        assert float(cols["dsp_pct"]) == pytest.approx(43.67, abs=0.05)

    def test_repeat_byte_identical(self, tmp_path):
        g = flat_genome_str(5)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert main(["--output", str(out), "search-accel", "--genome", g]) == 0
        for name in ("perf.csv", "accel_config.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_no_dsp_share_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CHUNKNAS_BUDGET_DSP_RESERVE_FRAC", "0")
        rc = main(["--output", str(tmp_path / "o"), "search-accel", "--genome", flat_genome_str(6)])
        assert rc == 5
        assert capsys.readouterr().err.startswith("error: ")

    def test_tiny_lut_budget_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"budget": {"lut_total": 560, "lut_overhead": 500}}))
        rc = main(["--config", str(cfg), "--output", str(tmp_path / "o"),
                   "search-accel", "--genome", flat_genome_str(6)])
        assert rc == 5
        assert "budget" in capsys.readouterr().err


    def test_searches_within_the_constraint(self, tmp_path):
        # Once searched the platform budget: a 545-DSP design under max_dsp 1.
        from chunknas.cosearch import effective_budget, search_accelerator
        from chunknas.search_space import SubNetwork

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"constraint": {"max_dsp": 100}}))
        out, genome = tmp_path / "out", flat_genome_str(4)
        assert main(["--config", str(cfg), "--output", str(out),
                     "search-accel", "--genome", genome]) == 0
        run = load_run_config(str(cfg), environ={})
        expected, _ = search_accelerator(SubNetwork.from_flat(map(int, genome.split("-"))),
                                         run.space, effective_budget(run.budget, run.constraint),
                                         run.coeffs)
        assert json.loads((out / "accel_config.json").read_text()) == expected.to_dict()
        header, row = (out / "perf.csv").read_text().strip().splitlines()
        cols = dict(zip(header.split(","), row.split(",")))
        assert int(cols["dsp"]) <= 100
        # Shares stay against the platform's 1248 DSPs.
        assert float(cols["dsp_pct"]) == pytest.approx(100 * int(cols["dsp"]) / 1248, abs=1e-3)


def _suite_with(edit) -> dict:
    suite = bundled_workloads()
    edit(suite)
    return suite


def _stage_key_typo() -> dict:
    space = default_space().to_dict()
    space["stages"][2]["chanels"] = space["stages"][2].pop("channels")
    return {"space": space}


def _equality_key_typo(suite: dict) -> None:
    wl = next(w for w in suite["workloads"] if w["name"] == "conv-only-equality")
    wl["equality_expectd"] = wl.pop("equality_expected")


# Each misspelled key or section once loaded silently: the key ignored, or
# the layer read with the default groups of 1. (input, document, key named)
UNKNOWN_KEYS = {
    "budget key": ("config", {"budget": {"lut_totl": 1000}}, "lut_totl"),
    "section": ("config", {"parms": {"population": 2}}, "parms"),
    "stage key": ("config", _stage_key_typo(), "chanels"),
    "energy key": ("config", {"energy": {"fit_row": [[1, 0, 0, 1]]}}, "fit_row"),
    "env key": ("env", {"CHUNKNAS_BUDGET_DRAM_BANDWIDTH": "16"}, "dram_bandwidth"),
    "env section": ("env", {"CHUNKNAS_PARMS_POPULATION": "2"}, "parms"),
    "suite budget key": ("suite", _suite_with(lambda s: s["budget"].update(lut_totl=1)),
                         "lut_totl"),
    "suite layer key": ("suite", _suite_with(lambda s: s["workloads"][0]["layers"].append(
        {"op_type": "adder", "in_channels": 8, "out_channels": 8, "kernel": 3, "stride": 1,
         "group": 8, "in_h": 4, "in_w": 4})), "group"),
    "suite workload key": ("suite", _suite_with(_equality_key_typo), "equality_expectd"),
}


@pytest.mark.parametrize("case", UNKNOWN_KEYS)
def test_unknown_key_exits_2(tmp_path, capsys, monkeypatch, case):
    source, doc, key = UNKNOWN_KEYS[case]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    if source == "env":
        for name, raw in doc.items():
            monkeypatch.setenv(name, raw)
    argv = ["oracle-compare", "--workloads", str(path)] if source == "suite" else \
        ["--config", str(path), "cosearch", "--dry-run"] if source == "config" else \
        ["cosearch", "--dry-run"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and f"unknown key {key!r}" in captured.err


class TestCosearchCmd:
    def test_dry_run_document_loads_as_config(self, tmp_path, capsys):
        assert main(["--config", str(tiny_run_config(tmp_path)), "cosearch", "--dry-run"]) == 0
        printed = capsys.readouterr().out
        path = tmp_path / "resolved.json"
        path.write_text(printed)
        assert main(["--config", str(path), "cosearch", "--dry-run"]) == 0
        assert capsys.readouterr().out == printed

    def test_dry_run_touches_nothing(self, tmp_path, capsys):
        cfg = tiny_run_config(tmp_path)
        out = tmp_path / "never"
        rc = main(["--config", str(cfg), "--output", str(out), "cosearch", "--dry-run"])
        assert rc == 0
        assert not out.exists()
        doc = json.loads(capsys.readouterr().out)
        assert doc["params"]["population"] == 5

    def test_creates_output_dir_and_artifacts(self, tmp_path):
        cfg = tiny_run_config(tmp_path)
        out = tmp_path / "nested" / "run"
        rc = main(["--config", str(cfg), "--threads", "1", "--output", str(out), "cosearch"])
        assert rc == 0
        for name in ("result.json", "log.csv", "pareto.csv", "run_config.json"):
            assert (out / name).exists()
        result = json.loads((out / "result.json").read_text())
        assert len(result["entries"]) == 2

    def test_degenerate_candidate_through_every_output(self, tmp_path, capsys, monkeypatch):
        # The first genome scored gets a degenerate Zen score. With top_k
        # equal to the population, result.json lists every member; seed 7
        # ties two pairs of ranks, so the frontier's throughput order counts.
        from chunknas import cosearch as cs

        scored = cs.zero_shot_scores
        degenerate = []

        def zero_shot_scores(net, *args):
            nn_val, zen_val = scored(net, *args)
            if not degenerate:
                degenerate.append(net.digest())
            return nn_val, (None if net.digest() == degenerate[0] else zen_val)

        monkeypatch.setattr(cs, "zero_shot_scores", zero_shot_scores)
        cfg = tiny_run_config(tmp_path, iterations=0, top_k=5, seed=7)
        argv = ["--config", str(cfg), "--threads", "1", "--output"]
        assert main([*argv, str(tmp_path / "json"), "--json", "cosearch"]) == 0
        stdout_entries = json.loads(capsys.readouterr().out)["entries"]
        assert main([*argv, str(tmp_path / "text"), "cosearch"]) == 0
        summary = capsys.readouterr().out.splitlines()

        result = json.loads((tmp_path / "json" / "result.json").read_text())
        entries = result["entries"]
        assert stdout_entries == entries
        assert len(entries) == result["population_size"] == 5
        assert len({e["combined_rank"] for e in entries}) < 5
        assert [e["zen_score"] for e in entries].count(None) == 1
        assert entries[-1]["zen_score"] is None
        assert all(e["combined_rank"] < entries[-1]["combined_rank"] for e in entries[:-1])
        assert (tmp_path / "text" / "result.json").read_text() == json.dumps(
            result, indent=2, sort_keys=True) + "\n"
        assert [line.split()[2] for line in summary[:5]].count("zen=nan") == 1
        assert summary[4].startswith(f"#5 rank={entries[-1]['combined_rank']} zen=nan ")

        frontier, best = [], -1.0
        for e in sorted(entries, key=lambda e: (e["combined_rank"],
                                                -e["performance"]["throughput_gops"])):
            perf = e["performance"]
            if perf["throughput_gops"] > best:
                best = perf["throughput_gops"]
                frontier.append(["-".join(map(str, e["genome"])), str(e["combined_rank"]),
                                 *(format(v, ".6g") for v in (perf["throughput_gops"],
                                                              perf["latency_s"] * 1e3,
                                                              perf["energy_mj"]))])
        with open(tmp_path / "json" / "pareto.csv", newline="") as f:
            assert list(csv.reader(f))[1:] == frontier

    @pytest.mark.parametrize("verb", ["score", "search-accel", "cosearch"])
    def test_refuses_nonempty_output_without_force(self, tmp_path, capsys, monkeypatch, verb):
        from chunknas import cosearch as cs
        from test_cosearch import tiny_space

        argv = {"score": ["score", "--random", "2"],
                "search-accel": ["search-accel", "--genome", flat_genome_str(4, tiny_space())],
                "cosearch": ["cosearch"]}[verb]
        cfg = tiny_run_config(tmp_path)
        out = tmp_path / "occupied"
        out.mkdir()
        (out / "keep.txt").write_text("x")

        def no_work(*args, **kwargs):
            raise AssertionError("work ran before the output directory was checked")

        with monkeypatch.context() as m:
            m.setattr(cs, "zero_shot_scores", no_work)
            m.setattr(cs, "search_accelerator_layers", no_work)
            rc = main(["--config", str(cfg), "--threads", "1", "--output", str(out), *argv])
        assert rc == 2
        assert "error: output directory" in capsys.readouterr().err
        assert [f.name for f in out.iterdir()] == ["keep.txt"]
        rc = main(["--config", str(cfg), "--force", "--threads", "1",
                   "--output", str(out), *argv])
        assert rc == 0


def schema_columns() -> dict[str, list[str]]:
    """Column lists of data/csv_schema.md: a table's first column, or else
    the section's first back-quoted comma list."""
    text = resources.files("chunknas").joinpath("data", "csv_schema.md").read_text()
    out = {}
    for section in text.split("\n## ")[1:]:
        name = section.split()[0]
        cells = [line.split("|")[1].strip() for line in section.splitlines()
                 if line.startswith("| ")][2:]  # past the header and rule rows
        listed = ", ".join(cells) if cells else next(
            span for span in re.findall(r"`([^`]*)`", section) if "," in span)
        out[name] = [c.strip() for c in listed.split(",")]
    return out


def test_csv_headers_match_schema(tmp_path):
    from test_cosearch import tiny_space

    cfg = tiny_run_config(tmp_path)
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({**bundled_workloads(),
                                 "workloads": bundled_workloads()["workloads"][:1]}))
    runs = [["score", "--random", "2"],
            ["search-accel", "--genome", flat_genome_str(4, tiny_space())],
            ["cosearch"],
            ["oracle-compare", "--workloads", str(suite)]]
    for i, verb in enumerate(runs):
        rc = main(["--config", str(cfg), "--threads", "1", "--output", str(tmp_path / str(i)),
                   *verb])
        assert rc == 0, verb
    schema = schema_columns()
    written = {f.name: f for f in tmp_path.glob("*/*.csv")}
    assert sorted(written) == sorted(schema)
    for name, columns in schema.items():
        assert written[name].read_text().splitlines()[0].split(",") == columns, name


class TestReproduceTables:
    def test_bundled_data_passes(self, capsys):
        rc = main(["reproduce-tables", "--no-workloads"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_corrupted_cell_isolated(self, tmp_path, capsys):
        tables = reference_tables()
        for row in tables["op_energy_rows"]:
            if row["dataset"] == "cifar10" and row["method"] == "CoSearch-C":
                row["energy_mj"] = 0.9
        data = tmp_path / "tables.json"
        data.write_text(json.dumps(tables))
        rc = main(["--json", "reproduce-tables", "--no-workloads", "--data", str(data)])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        failing = [c for c in doc["checks"] if not c["passed"]]
        assert all(c["suite"] == "energy-fit" for c in failing)
        assert any(c["name"] == "cifar10/CoSearch-C" for c in failing)
        ok_ops = [c for c in doc["checks"] if c["suite"] == "op-count"]
        assert all(c["passed"] for c in ok_ops)

    def test_edited_copy_leaves_bundled_data_intact(self):
        data = resources.files("chunknas").joinpath("data")
        reference_tables()["hw_rows"][0]["fps"] = 0
        bundled_workloads()["budget"]["dsp_total"] = 0
        assert reference_tables() == json.loads(data.joinpath("reference_results.json").read_text())
        assert bundled_workloads() == json.loads(data.joinpath("workloads.json").read_text())
        assert main(["reproduce-tables"]) == 0


class TestOracleCompareCmd:
    def test_bundled_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        rc = main(["--output", str(out), "oracle-compare"])
        assert rc == 0
        assert (out / "comparison.csv").exists()
        assert capsys.readouterr().out.rstrip().endswith("PASS")
        # A one-PE-per-chunk oracle grid spans fewer than 10x the search's
        # nodes, so the same gate as reproduce-tables' oracle-ratio fails.
        suite = tmp_path / "small_grid.json"
        suite.write_text(json.dumps({**bundled_workloads(),
                                     "grid": {"conv": [1], "shift": [1], "adder": [1]}}))
        rc = main(["--output", str(tmp_path / "cmp2"), "oracle-compare", "--workloads", str(suite)])
        assert rc == 1
        assert capsys.readouterr().out.rstrip().endswith("FAIL")


SUITE_HEAD = '{"budget": {}, "grid": {"conv": [8], "shift": [1], "adder": [1]}, "workloads": '


@pytest.mark.parametrize("argv,content", [
    (["oracle-compare", "--workloads", "{f}"], "{not json"),
    (["reproduce-tables", "--data", "{f}"], "[1, 2,"),
    (["reproduce-tables", "--workloads", "{f}"], "{not json"),
    (["--config", "{f}", "kendall", "x.csv"], None),
    (["oracle-compare", "--workloads", "{f}"], None),
    (["kendall", "{f}"], None),
    (["score", "--genomes", "{f}"], None),
    (["search-accel", "--genomes", "{f}"], None),
    (["oracle-compare", "--workloads", "{f}"], "{}"),
    (["oracle-compare", "--workloads", "{f}"], "[]"),
    (["reproduce-tables", "--data", "{f}"], "{}"),
    (["reproduce-tables", "--data", "{f}"], "[]"),
    (["reproduce-tables", "--workloads", "{f}"], "{}"),
    pytest.param(["oracle-compare", "--workloads", "{f}"],
                 SUITE_HEAD + '[{"name": "w"}]}', id="workload-without-layers"),
    pytest.param(["oracle-compare", "--workloads", "{f}"],
                 SUITE_HEAD + '[{"name": "w", "layers": [{}]}]}', id="layer-without-keys"),
    pytest.param(["oracle-compare", "--workloads", "{f}"], SUITE_HEAD + "[]}", id="no-workloads"),
    pytest.param(["oracle-compare", "--workloads", "{f}"],
                 SUITE_HEAD + json.dumps([{"name": "w", "ordering_expected": "no", "layers": [
                     {"op_type": "conv", "in_channels": 4, "out_channels": 4, "kernel": 3,
                      "stride": 1, "in_h": 8, "in_w": 8}]}]) + "}",
                 id="string-workload-flag"),
    pytest.param(["oracle-compare", "--workloads", "{f}"],
                 json.dumps({**bundled_workloads(), "grid": {"conv": [], "shift": [1],
                                                             "adder": [1]}}),
                 id="empty-grid"),
    pytest.param(["reproduce-tables", "--data", "{f}"],
                 json.dumps({**reference_tables(), "hw_rows": [
                     {**reference_tables()["hw_rows"][0], "method": "unknown"}]}),
                 id="dangling-op-row"),
    pytest.param(["reproduce-tables", "--data", "{f}"],
                 json.dumps({**reference_tables(), "resource_check": {
                     **reference_tables()["resource_check"], "klut_band": [1.0]}}),
                 id="one-number-klut-band"),
    pytest.param(["reproduce-tables", "--data", "{f}"],
                 json.dumps({**reference_tables(), "hw_rows": [
                     {**reference_tables()["hw_rows"][0], "latency_ms": "abc"}]}),
                 id="unparsable-latency"),
])
def test_bad_input_file_exits_2(tmp_path, capsys, argv, content):
    # Malformed JSON, valid JSON of the wrong shape (content given) or a
    # missing file (None) is a typed error naming the file, not a traceback.
    f = tmp_path / "input"
    if content is not None:
        f.write_text(content)
    argv = [a.replace("{f}", str(f)) for a in argv]
    rc = main(["--output", str(tmp_path / "out"), *argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(f) in err


LAYER = {"op_type": "conv", "in_channels": 4, "out_channels": 4, "kernel": 3, "stride": 1,
         "groups": 1, "in_h": 8, "in_w": 8}


@pytest.mark.parametrize("key,value", [
    ("op_type", 5), ("stride", 0), ("groups", 0), ("kernel", 0), ("kernel", 2.5),
    ("in_h", -4), ("in_w", True),
])
def test_bad_workload_layer_exits_2(tmp_path, capsys, key, value):
    # Once a traceback (op_type 5, stride 0, groups 0) or a PASS on a layer
    # that does not exist (the others).
    f = tmp_path / "suite.json"
    f.write_text(SUITE_HEAD + json.dumps([{"name": "w", "layers": [{**LAYER, key: value}]}]) + "}")
    rc = main(["--output", str(tmp_path / "out"), "oracle-compare", "--workloads", str(f)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(f) in err and key in err


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exits_2(tmp_path, capsys, threads):
    rc = main(["--threads", threads, "--output", str(tmp_path / "out"), "cosearch"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: --threads")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["oracle-compare", "--node-cap", "nan"], ["oracle-compare", "--node-cap", "inf"],
    ["oracle-compare", "--node-cap", "-1"], ["score", "--random", "-3"],
    ["score", "--random", "0"],
], ids=["node-cap-nan", "node-cap-inf", "node-cap-neg", "random-neg", "random-0"])
def test_bad_numeric_flag_exits_2(tmp_path, capsys, argv):
    # Once a PASS with the node cap off (nan, inf), exit 3 for a grid too
    # large (-1), a header-only scores.csv (-3) or exit 1 (0).
    rc = main(["--output", str(tmp_path / "out"), *argv])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {argv[1]} must be ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["score"], ["search-accel"], ["score", "--genomes", "g.txt", "--random", "2"],
    ["search-accel", "--genome", "16", "--genomes", "g.txt"],
], ids=["score-none", "search-accel-none", "score-both", "search-accel-both"])
def test_missing_or_second_input_exits_2(tmp_path, capsys, argv):
    # A verb takes exactly one source of genomes; a missing one once exited 1.
    with pytest.raises(SystemExit) as exc:
        main(["--output", str(tmp_path / "out"), *argv])
    assert exc.value.code == 2
    assert "error: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


STAGES_WITH_TYPE_5 = [{**s, "types": [5]} for s in default_space().to_dict()["stages"]]


class TestConfigResolution:
    def test_env_override(self, tmp_path):
        doc = apply_env_overrides({}, {"CHUNKNAS_BUDGET_LUT_TOTAL": "90000"})
        assert doc["budget"]["lut_total"] == 90000

    def test_config_beats_default_env_beats_config(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"budget": {"lut_total": 80000}}))
        loaded = load_run_config(str(cfg), environ={})
        assert loaded.budget.lut_total == 80000
        loaded = load_run_config(str(cfg), environ={"CHUNKNAS_BUDGET_LUT_TOTAL": "70000"})
        assert loaded.budget.lut_total == 70000

    def test_bad_config_reports_parse_error(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("{not json")
        with pytest.raises(ParseError):
            load_run_config(str(cfg))

    def test_defaults_roundtrip(self):
        cfg = RunConfig()
        again = RunConfig.from_dict(cfg.to_dict())
        assert again.budget == cfg.budget
        assert again.space == cfg.space
        assert again.params == cfg.params

    @pytest.mark.parametrize("name,raw", [
        ("ZEN_BATCH", "1"), ("ZEN_BATCH", "2.5"), ("ZEN_ALPHA", "0"), ("ZEN_ALPHA", '"x"'),
        ("ZEN_ALPHA", "NaN"), ("ZEN_REPEATS", "0"), ("ITERATIONS", "1.5"),
        ("POPULATION", "4.5"), ("EXPAND_SIZE", "2.5"), ("SEED", '"x"'),
    ])
    def test_bad_zen_params_exit_2(self, monkeypatch, capsys, tmp_path, name, raw):
        monkeypatch.setenv(f"CHUNKNAS_PARAMS_{name}", raw)
        with pytest.raises(ParseError, match=name.lower()):
            load_run_config()
        rc = main(["--output", str(tmp_path / "out"), "--seed", "0", "score", "--random", "2"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("section,key,raw", [
        ("energy", "fit_rows", '"x"'), ("energy", "fit_rows", "[[1,2]]"),
        ("energy", "fit_rows", '["abc"]'), ("energy", "fit_rows", "[[1,2,3,NaN]]"),
        ("budget", "act_bits", '"x"'), ("budget", "act_bits", "null"),
        ("budget", "act_bits", "0"), ("budget", "act_bits", "-8"),
        ("budget", "act_bits", "1.5"), ("budget", "act_bits", "true"),
        ("budget", "lut_overhead", "-5"), ("budget", "dram_bandwidth_bytes_per_cycle", "1e309"),
        ("budget", "dsp_reserve_frac", "NaN"),
    ])
    def test_bad_budget_or_energy_exit_2(self, monkeypatch, capsys, tmp_path,
                                         section, key, raw):
        cfg = tmp_path / "c.json"
        cfg.write_text(f'{{"{section}": {{"{key}": {raw}}}}}')
        with pytest.raises(ParseError, match=key.removesuffix("_bytes_per_cycle")):
            load_run_config(str(cfg), environ={})
        monkeypatch.setenv(f"CHUNKNAS_{section}_{key}".upper(), raw)
        rc = main(["--output", str(tmp_path / "o"), "search-accel", "--genome", flat_genome_str(0)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("name,raw,command", [
        ("ENERGY_COEFFS", '{"e_mult": NaN, "e_shift": 1, "e_add": 1}', "search-accel"),
        ("ENERGY_COEFFS", '{"e_mult": 5e-3, "e_shift": Infinity, "e_add": 1e-3}', "search-accel"),
        ("CONSTRAINT_MAX_DSP", '"x"', "cosearch"), ("CONSTRAINT_MAX_DSP", "1.5", "cosearch"),
        ("CONSTRAINT_MAX_LUT", "0", "cosearch"), ("CONSTRAINT_MAX_LATENCY_S", "NaN", "cosearch"),
        ("CONSTRAINT_MIN_GOPS", "-1", "cosearch"), ("CONSTRAINT_MIN_GOPS", "true", "cosearch"),
        ("SPACE_STEM_STRIDE", "0", "search-accel"), ("SPACE_INPUT_RESOLUTION", '"x"', "search-accel"),
        ("SPACE_NUM_CLASSES", "2.5", "search-accel"), ("SPACE_STEM_KERNEL", "null", "search-accel"),
        pytest.param("SPACE_STAGES", json.dumps(STAGES_WITH_TYPE_5), "search-accel",
                     id="SPACE_STAGES-types-5"),
    ])
    def test_bad_energy_constraint_or_space_exit_2(self, monkeypatch, capsys, tmp_path,
                                                   name, raw, command):
        monkeypatch.setenv(f"CHUNKNAS_{name}", raw)
        field = name.split("_", 1)[1].lower()
        with pytest.raises(ParseError, match="energy coefficient" if field == "coeffs" else field):
            load_run_config()
        argv = ["search-accel", "--genome", flat_genome_str(0)] if command == "search-accel" \
            else ["cosearch"]
        rc = main(["--json", "--output", str(tmp_path / "o"), *argv])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""

    @pytest.mark.parametrize("section", ["budget", "energy"])
    def test_section_not_an_object_exits_2(self, tmp_path, capsys, section):
        # Once a TypeError traceback for the budget.
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({section: 5}))
        rc = main(["--config", str(cfg), "--output", str(tmp_path / "o"), "cosearch", "--dry-run"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: invalid config: {section}: ")

    def test_genome_file_comments_and_blanks(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text(f"# comment\n\n{flat_genome_str(7)}\n")
        assert len(read_genome_file(str(f))) == 1
