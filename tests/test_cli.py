import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import GOLDEN
from wowaopt import read_instance, wowa_value, read_solution
from wowaopt.cli import main


SRC = str(Path(__file__).resolve().parent.parent / "src")


def cli(*args, **kwargs):
    # pytest's pythonpath setting does not reach a child process
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, "-m", "wowaopt.cli", *[str(a) for a in args]],
        capture_output=True,
        text=True,
        env=env,
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

    @pytest.mark.parametrize("flags, named", [
        (["--kind", "assignment", "--m", "3", "--q", "5"], "q"),
        (["--kind", "assignment", "--m", "3", "--q", "5", "--n", "7"], "--n"),
        (["--kind", "selection", "--n", "9", "--m", "3"], "--m"),
    ], ids=["assignment-q", "assignment-n", "selection-m"])
    def test_other_kinds_flag_is_usage_error(self, tmp_path, flags, named, capsys):
        out = tmp_path / "x.json"
        with pytest.raises(SystemExit) as exc:
            main(["generate", *flags, "-K", "2", "--alpha", "0.1", "--seed", "1",
                  "--out", str(out)])
        assert exc.value.code == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_output_is_io_error(self, tmp_path):
        res = cli("generate", "--kind", "selection", "--n", 6, "-K", 2, "--alpha", 0.01,
                  "--seed", 1, "--out", tmp_path / "missing" / "x.json")
        assert res.returncode == 1
        assert "cannot write" in res.stderr and "Traceback" not in res.stderr

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

    def test_missing_input_is_io_error(self, tmp_path):
        res = cli("solve", "--in", tmp_path / "missing.json", "--method", "brute")
        assert res.returncode == 1
        assert "cannot read" in res.stderr and "Traceback" not in res.stderr

    def test_ragged_costs_exit_code(self, tmp_path):
        bad = tmp_path / "ragged.json"
        doc = json.loads((GOLDEN / "selection_tiny.json").read_text())
        doc["costs"][0] = doc["costs"][0][:-1]
        bad.write_text(json.dumps(doc))
        res = cli("solve", "--in", bad, "--method", "brute")
        assert res.returncode == 2
        assert "costs" in res.stderr and "Traceback" not in res.stderr


    def test_repeated_element_in_explicit_solution_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "repeated.json"
        doc = json.loads((GOLDEN / "paths_example.json").read_text())
        doc["kind"] = {"explicit": {"solutions": [[0, 0], [1, 1]]}}
        bad.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--in", str(bad), "--method", "brute"])
        assert exc.value.code == 2
        assert "kind: explicit solution 0 repeats an element" in capsys.readouterr().err

    @pytest.mark.parametrize("limit", ["nan", "-5", "0", "ten"])
    def test_bad_time_limit_is_usage_error(self, limit, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--in", str(GOLDEN / "paths_example.json"), "--method", "bb",
                  "--time-limit", limit])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert "argument --time-limit" in err and "value=" not in out

    def test_infinite_time_limit_solves_to_optimality(self):
        res = cli("solve", "--in", GOLDEN / "paths_example.json", "--method", "bb",
                  "--time-limit", "inf")
        assert res.returncode == 0, res.stderr
        assert report_fields(res.stdout)["status"] == "optimal"


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
        ({"kind": "selection", "size": 5, "K": [2.9]}, "K:"),
        ({"kind": "selection", "size": 5, "K": ["2"]}, "K:"),
        ({"kind": "selection", "size": 5, "K": [True]}, "K:"),
        ({"kind": "selection", "size": 5, "K": [0]}, "K:"),
        ({"kind": "selection", "size": 5, "K": 2}, "K:"),
        ({"kind": "selection", "size": 5, "K": [2, 2]}, "K:"),
        ({"kind": "selection", "size": 5, "alpha": [None, "uniform"]}, "alpha:"),
        ({"kind": "selection", "size": 5, "alpha": ["0.01"]}, "alpha:"),
        ({"kind": "selection", "size": 5, "alpha": [1.5]}, "alpha:"),
        ({"kind": "selection", "size": 6.0}, "size:"),
        ({"kind": "selection", "n": "6"}, "n:"),
        ({"kind": "selection", "size": 5, "method": "bb", "time_limit": "10"}, "time_limit:"),
        ({"kind": "selection", "size": 5, "seed": "3"}, "seed:"),
        ({"kind": "selection", "size": 5, "seed": 1.5}, "seed:"),
        ({"kind": "selection", "size": 5, "instances": 1.5}, "instances:"),
        ({"kind": 1, "size": 5}, "kind:"),
        ({"kind": "selection", "size": 5, "method": ["bb"]}, "method:"),
        ({"kind": "selection", "size": 5, "method": "lp-only", "lp_dir": 3}, "lp_dir:"),
        ({"kind": "selection", "size": 5, "method": "bb", "lp_dir": "out"}, "lp_dir:"),
    ], ids=["unknown-key", "not-an-object", "K-float", "K-string", "K-bool", "K-zero",
            "K-not-a-list", "K-repeated", "alpha-repeated", "alpha-string",
            "alpha-out-of-range", "size-float", "n-string", "time-limit-string", "seed-string",
            "seed-float", "instances-float", "kind-int", "method-list", "lp-dir-int",
            "lp-dir-with-bb"])
    def test_rejected_config_exit_code(self, tmp_path, cfg, named):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        res = cli("bench", "--config", cfg_path, "--out-csv", tmp_path / "x.csv")
        assert res.returncode == 2
        assert named in res.stderr


    @pytest.mark.parametrize("jobs", ["0", "-3", "two"])
    def test_bad_jobs_is_usage_error(self, tmp_path, jobs, capsys):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--config", str(tmp_path / "cfg.json"), "--out-csv", str(out),
                  "--jobs", jobs])
        assert exc.value.code == 2
        assert "argument --jobs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("limit", [-1, 0, float("nan")], ids=["negative", "zero", "nan"])
    def test_bad_time_limit_exit_code(self, tmp_path, limit, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"kind": "selection", "size": 5, "method": "bb",
                                        "time_limit": limit}))  # NaN is written as NaN
        assert main(["bench", "--config", str(cfg_path), "--out-csv", str(tmp_path / "x.csv")]) == 2
        assert "time_limit:" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


def test_help_documents_zero_based_indices():
    res = cli("--help")
    assert res.returncode == 0
    assert "0-based" in res.stdout
