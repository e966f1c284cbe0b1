import json
import subprocess
import sys

import pytest

from conftest import GOLDEN
from wowaopt import read_instance, wowa_value, read_solution


def cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "wowaopt.cli", *[str(a) for a in args]],
        capture_output=True,
        text=True,
        **kwargs,
    )


def report_fields(stdout: str) -> dict:
    line = [l for l in stdout.strip().splitlines() if l.startswith("value=")][-1]
    return dict(part.split("=", 1) for part in line.split())


class TestGenerate:
    def test_writes_valid_instance(self, tmp_path):
        out = tmp_path / "inst.json"
        res = cli("generate", "--kind", "selection", "--n", 20, "--q", 5, "-K", 4,
                  "--alpha", 0.01, "--seed", 7, "--out", out)
        assert res.returncode == 0
        inst = read_instance(out.read_text())
        assert inst.n == 20 and inst.K == 4 and inst.kind.q == 5

    def test_missing_alpha_is_usage_error(self, tmp_path):
        res = cli("generate", "--kind", "selection", "--n", 20, "-K", 4,
                  "--seed", 7, "--out", tmp_path / "x.json")
        assert res.returncode == 2

    def test_same_flags_identical_files(self, tmp_path):
        args = ["generate", "--kind", "assignment", "--m", 4, "-K", 3,
                "--alpha", 0.001, "--seed", 11]
        cli(*args, "--out", tmp_path / "a.json")
        cli(*args, "--out", tmp_path / "b.json")
        assert (tmp_path / "a.json").read_text() == (tmp_path / "b.json").read_text()

    def test_kind_size_flag_mismatch(self, tmp_path):
        res = cli("generate", "--kind", "selection", "--m", 4, "-K", 2,
                  "--alpha", 0.01, "--seed", 0, "--out", tmp_path / "x.json")
        assert res.returncode == 2

    def test_single_element_selection(self, tmp_path):
        out = tmp_path / "one.json"
        res = cli("generate", "--kind", "selection", "--n", 1, "-K", 2,
                  "--alpha", 0.01, "--seed", 0, "--out", out)
        assert res.returncode == 0, res.stderr
        assert read_instance(out.read_text()).kind.q == 1

    def test_uniform_alpha(self, tmp_path):
        out = tmp_path / "u.json"
        res = cli("generate", "--kind", "selection", "--n", 8, "-K", 4,
                  "--alpha", "uniform", "--seed", 0, "--out", out)
        assert res.returncode == 0
        assert read_instance(out.read_text()).v.values == tuple([0.25] * 4)


class TestSolve:
    def test_brute_on_paths_example(self):
        res = cli("solve", "--in", GOLDEN / "paths_example.json", "--method", "brute")
        assert res.returncode == 0
        fields = report_fields(res.stdout)
        assert float(fields["value"]) == pytest.approx(6.0, abs=1e-9)
        assert fields["status"] == "optimal"

    def test_bb_equals_brute(self, tmp_path):
        inst_path = tmp_path / "i.json"
        cli("generate", "--kind", "selection", "--n", 12, "--q", 3, "-K", 5,
            "--alpha", 0.001, "--seed", 3, "--out", inst_path)
        bb = report_fields(cli("solve", "--in", inst_path, "--method", "bb").stdout)
        brute = report_fields(cli("solve", "--in", inst_path, "--method", "brute").stdout)
        assert bb["value"] == brute["value"]

    def test_approx_reports_guarantee_one_for_uniform_v(self, tmp_path):
        inst_path = tmp_path / "u.json"
        cli("generate", "--kind", "selection", "--n", 10, "-K", 4,
            "--alpha", "uniform", "--seed", 5, "--out", inst_path)
        fields = report_fields(cli("solve", "--in", inst_path, "--method", "approx").stdout)
        assert fields["status"] == "guaranteed"
        assert float(fields["bound"]) == pytest.approx(1.0, abs=1e-9)

    def test_writes_solution_file(self, tmp_path):
        out = tmp_path / "sol.json"
        res = cli("solve", "--in", GOLDEN / "paths_example.json", "--method", "brute",
                  "--out", out)
        assert res.returncode == 0
        inst = read_instance((GOLDEN / "paths_example.json").read_text())
        sol = read_solution(out.read_text())
        assert wowa_value(inst, sol) == pytest.approx(6.0, abs=1e-9)

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli("solve", "--in", bad, "--method", "brute").returncode == 2


class TestEval:
    def test_path1_omegas_and_value(self):
        res = cli("eval", "--in", GOLDEN / "paths_example.json",
                  "--solution", GOLDEN / "paths_x1.json")
        assert res.returncode == 0
        lines = dict(l.split("=", 1) for l in res.stdout.strip().splitlines())
        omegas = [float(x) for x in lines["omegas"].split(",")]
        assert omegas == pytest.approx([0.8, 0.08, 0.12, 0.0], abs=1e-9)
        assert float(lines["value"]) == pytest.approx(8.28, abs=1e-9)
        costs = [float(x) for x in lines["scenario_costs"].split(",")]
        assert costs == [10.0, 1.0, 1.0, 2.0]

    def test_path2_value(self):
        res = cli("eval", "--in", GOLDEN / "paths_example.json",
                  "--solution", GOLDEN / "paths_x2.json")
        lines = dict(l.split("=", 1) for l in res.stdout.strip().splitlines())
        assert float(lines["value"]) == pytest.approx(6.32, abs=1e-9)

    def test_path3_value(self):
        res = cli("eval", "--in", GOLDEN / "paths_example.json",
                  "--solution", GOLDEN / "paths_x3.json")
        lines = dict(l.split("=", 1) for l in res.stdout.strip().splitlines())
        assert float(lines["value"]) == pytest.approx(6.0, abs=1e-9)

    def test_infeasible_solution_exit_code(self, tmp_path):
        bad = tmp_path / "bad_sol.json"
        bad.write_text(json.dumps({"format": 1, "chosen": [0, 4]}))
        res = cli("eval", "--in", GOLDEN / "paths_example.json", "--solution", bad)
        assert res.returncode == 3


class TestExportMip:
    def test_matches_golden(self, tmp_path):
        out = tmp_path / "tiny.lp"
        res = cli("export-mip", "--in", GOLDEN / "selection_tiny.json", "--out", out)
        assert res.returncode == 0
        assert out.read_bytes() == (GOLDEN / "selection_tiny.lp").read_bytes()

    def test_non_monotone_weights_exit_code(self, tmp_path):
        inst_path = tmp_path / "nm.json"
        doc = json.loads((GOLDEN / "selection_tiny.json").read_text())
        doc["v"] = [0.3, 0.7]
        inst_path.write_text(json.dumps(doc))
        res = cli("export-mip", "--in", inst_path, "--out", tmp_path / "x.lp")
        assert res.returncode == 4
        assert "nonincreasing" in res.stderr


    def test_bb_non_monotone_weights_exit_code(self, tmp_path):
        inst_path = tmp_path / "nm.json"
        doc = json.loads((GOLDEN / "selection_tiny.json").read_text())
        doc["v"] = [0.3, 0.7]
        inst_path.write_text(json.dumps(doc))
        res = cli("solve", "--in", inst_path, "--method", "bb")
        assert res.returncode == 4
        assert "nonincreasing" in res.stderr


class TestBench:
    def test_single_cell_single_instance(self, tmp_path):
        cfg = {"kind": "selection", "size": 10, "K": [2], "alpha": [0.01],
               "instances": 1, "seed": 3, "method": "brute"}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "records.csv"
        summary = tmp_path / "summary.csv"
        res = cli("bench", "--config", cfg_path, "--out-csv", out,
                  "--summary-csv", summary)
        assert res.returncode == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[0].startswith("kind,size,K,alpha,instance,seed,")
        assert "cell kind=selection" in res.stderr
        assert summary.read_text().count("\n") == 2

    def test_rerun_reproduces_value_columns(self, tmp_path):
        cfg = {"kind": "assignment", "size": 3, "K": [2], "alpha": [0.01, "uniform"],
               "instances": 2, "seed": 9, "method": "bb"}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli("bench", "--config", cfg_path, "--out-csv", first).returncode == 0
        assert cli("bench", "--config", cfg_path, "--out-csv", second).returncode == 0

        def values(path):
            return [",".join(line.split(",")[:10]) for line in path.read_text().splitlines()]

        assert values(first) == values(second)

    def test_bad_config_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "nope", "size": 5}))
        res = cli("bench", "--config", cfg_path, "--out-csv", tmp_path / "x.csv")
        assert res.returncode == 2


    @pytest.mark.parametrize("cfg, named", [
        ({"kind": "selection", "size": 5, "q_fraction": 0.5}, "q_fraction"),
        ([1], "JSON object"),
    ], ids=["unknown-key", "not-an-object"])
    def test_rejected_config_exit_code(self, tmp_path, cfg, named):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        res = cli("bench", "--config", cfg_path, "--out-csv", tmp_path / "x.csv")
        assert res.returncode == 2
        assert named in res.stderr


def test_help_documents_zero_based_indices():
    res = cli("--help")
    assert res.returncode == 0
    assert "0-based" in res.stdout
