import json
import random

import pytest

from chunknas.cli import main, read_genome_file
from chunknas.config import ParseError, RunConfig, apply_env_overrides, load_run_config
from chunknas.refdata import reference_tables
from chunknas.search_space import default_space, sample_random


def flat_genome_str(seed=0):
    net = sample_random(default_space(), random.Random(seed))
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

    def test_bad_cell(self, tmp_path, capsys):
        f = tmp_path / "k.csv"
        f.write_text("1,2\nbad,3\n")
        assert main(["kendall", str(f)]) == 2
        assert "line 2" in capsys.readouterr().err


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

    def test_tiny_lut_budget_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"budget": {"lut_total": 560, "lut_overhead": 500}}))
        rc = main(["--config", str(cfg), "--output", str(tmp_path / "o"),
                   "search-accel", "--genome", flat_genome_str(6)])
        assert rc == 5
        assert "budget" in capsys.readouterr().err


class TestCosearchCmd:
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

    def test_refuses_nonempty_output_without_force(self, tmp_path):
        cfg = tiny_run_config(tmp_path)
        out = tmp_path / "occupied"
        out.mkdir()
        (out / "keep.txt").write_text("x")
        with pytest.raises(SystemExit):
            main(["--config", str(cfg), "--output", str(out), "cosearch"])
        rc = main(["--config", str(cfg), "--force", "--threads", "1",
                   "--output", str(out), "cosearch"])
        assert rc == 0


class TestReproduceTables:
    def test_bundled_data_passes(self, capsys):
        rc = main(["reproduce-tables", "--no-workloads"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_corrupted_cell_isolated(self, tmp_path, capsys):
        tables = json.loads(json.dumps(reference_tables()))  # deep copy
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


class TestOracleCompareCmd:
    def test_bundled_suite_passes(self, tmp_path):
        out = tmp_path / "cmp"
        rc = main(["--output", str(out), "oracle-compare"])
        assert rc == 0
        assert (out / "comparison.csv").exists()


@pytest.mark.parametrize("argv,content", [
    (["oracle-compare", "--workloads", "{f}"], "{not json"),
    (["reproduce-tables", "--data", "{f}"], "[1, 2,"),
    (["reproduce-tables", "--workloads", "{f}"], "{not json"),
    (["--config", "{f}", "kendall", "x.csv"], None),
    (["oracle-compare", "--workloads", "{f}"], None),
    (["kendall", "{f}"], None),
    (["score", "--genomes", "{f}"], None),
    (["search-accel", "--genomes", "{f}"], None),
])
def test_bad_input_file_exits_2(tmp_path, capsys, argv, content):
    # Malformed JSON (content given) or a missing file (None) is a typed
    # error naming the file, not a traceback.
    f = tmp_path / "input"
    if content is not None:
        f.write_text(content)
    argv = [a.replace("{f}", str(f)) for a in argv]
    rc = main(["--output", str(tmp_path / "out"), *argv])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(f) in err


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

    def test_genome_file_comments_and_blanks(self, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text(f"# comment\n\n{flat_genome_str(7)}\n")
        assert len(read_genome_file(str(f))) == 1
