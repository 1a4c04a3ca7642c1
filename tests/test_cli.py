import json

import numpy as np
import pytest

from scalefit.cli import main
from scalefit.harness import load_task, save_task
from scalefit.models import M2Params
from scalefit.synthetic import generate_from_model
from scalefit.curve import LearningCurve

FAST_FLAGS = ["--rate-multiplier", "1e6", "--max-iters", "2000", "--backtracking"]


@pytest.fixture
def task_file(tmp_path):
    xs = np.geomspace(1, 4096, 13)
    curve = generate_from_model(M2Params(0.2, 1.0, -0.5), xs, eps0=2.0)
    curve = LearningCurve(curve.xs, curve.eps, curve.eps0, name="demo")
    path = tmp_path / "demo.json"
    save_task(curve, path)
    return path


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFitCommand:
    def test_fit_single_model(self, capsys, task_file):
        code, out, _ = run_cli(capsys, "fit", task_file, "--model", "m2", *FAST_FLAGS)
        assert code == 0
        doc = json.loads(out)
        assert doc["task"] == "demo"
        assert doc["fits"]["M2"]["params"]["c"] == pytest.approx(-0.5, abs=0.05)

    def test_fit_default_models(self, capsys, task_file):
        code, out, _ = run_cli(capsys, "fit", task_file, *FAST_FLAGS)
        assert code == 0
        assert set(json.loads(out)["fits"]) == {"M1", "M2", "M3", "M4"}

    def test_cutoff_flag(self, capsys, task_file):
        code, out, _ = run_cli(capsys, "fit", task_file, "--model", "m1",
                               "--cutoff", "100")
        assert code == 0

    def test_unknown_model_usage_error(self, capsys, task_file):
        code, _, err = run_cli(capsys, "fit", task_file, "--model", "m9")
        assert code == 1

    def test_missing_file_data_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "fit", tmp_path / "nope.json")
        assert code == 2


class TestEvaluateCommand:
    def test_reports_rmse_and_winners(self, capsys, task_file):
        code, out, _ = run_cli(capsys, "evaluate", task_file,
                               "--model", "m1", "--model", "m2", *FAST_FLAGS)
        assert code == 0
        doc = json.loads(out)
        assert doc["rmse"]["M2"] < doc["rmse"]["M1"]
        assert "M2" in doc["winners"]


class TestBenchmarkCommand:
    def test_directory_table(self, capsys, task_file):
        code, out, _ = run_cli(capsys, "benchmark", task_file.parent,
                               "--model", "m1", "--model", "m2", *FAST_FLAGS)
        assert code == 0
        assert out.startswith("task\tM1\tM2")
        assert "best_fraction" in out

    def test_json_format(self, capsys, task_file):
        code, out, _ = run_cli(capsys, "benchmark", task_file,
                               "--model", "m2", "--format", "json", *FAST_FLAGS)
        assert code == 0
        assert json.loads(out)["best_fraction"]["M2"] == 1.0

    def test_unloadable_first_task_is_skipped(self, capsys, task_file):
        bad = task_file.parent / "a-bad.json"
        bad.write_text("{not json")
        code, out, _ = run_cli(capsys, "benchmark", task_file.parent, "--model", "m1",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert [t["task"] for t in doc["tasks"]] == ["demo"]
        assert [s[0] for s in doc["skipped"]] == [str(bad)]

    def test_bad_cutoff_is_data_error(self, capsys, task_file):
        code, _, _ = run_cli(capsys, "benchmark", task_file, "--cutoff", "banana")
        assert code == 2

    def test_strict_fit_failure_exit_code(self, capsys, tmp_path):
        # tau = 8, so the train side holds 3 points, below M4's minimum
        xs = [1, 2, 3, 9, 12, 16]
        curve = generate_from_model(M2Params(0.1, 0.5, -0.3), xs, eps0=1.0)
        path = tmp_path / "small.json"
        save_task(curve, path)
        code, _, _ = run_cli(capsys, "benchmark", path, "--model", "m4", "--strict")
        assert code == 3


class TestCutoffAutoPerTask:
    """--cutoff auto resolves from each task's own train side, so benchmark
    and evaluate agree task by task even when x ranges differ widely."""

    def test_benchmark_matches_evaluate(self, capsys, tmp_path):
        ranges = {"a-small": (1, 64), "b-large": (1e3, 1e6)}
        for name, (lo, hi) in ranges.items():
            c = generate_from_model(M2Params(0.05, 1.0, -0.3), np.geomspace(lo, hi, 12),
                                    noise_sigma=0.02, rng=np.random.default_rng(5),
                                    eps0=2.0)
            save_task(LearningCurve(c.xs, c.eps, c.eps0, name=name),
                      tmp_path / f"{name}.json")
        code, out, _ = run_cli(capsys, "benchmark", tmp_path, "--model", "m1",
                               "--cutoff", "auto", "--format", "json")
        assert code == 0
        bench = {t["task"]: t["rmse"]["M1"] for t in json.loads(out)["tasks"]}
        for name in ranges:
            code, out, _ = run_cli(capsys, "evaluate", tmp_path / f"{name}.json",
                                   "--model", "m1", "--cutoff", "auto")
            assert code == 0
            assert bench[name] == json.loads(out)["rmse"]["M1"]


class TestSynthCommand:
    def test_generates_loadable_tasks(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "synth", "--d", "10", "--delta", "0.2",
                               "--sizes", "8,16,32,64", "--test-size", "500",
                               "--trials", "2", "--seed", "3",
                               "--out-dir", tmp_path)
        assert code == 0
        paths = list(tmp_path.glob("*.json"))
        assert len(paths) == 1
        curve = load_task(paths[0])
        assert curve.eps0 == 0.5


class TestPlotdataCommand:
    def test_csv_output(self, capsys, task_file, tmp_path):
        out_path = tmp_path / "plot.csv"
        code, _, _ = run_cli(capsys, "plotdata", task_file, "--model", "m2",
                             "--grid-points", "5", "--out", out_path, *FAST_FLAGS)
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "x,pred_M2,observed,split"
        assert len(lines) > 5


class TestUsageErrors:
    def test_no_command(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 1

    def test_bad_cutoff_is_data_error(self, capsys, task_file):
        code, _, _ = run_cli(capsys, "fit", task_file, "--cutoff", "banana")
        assert code == 2
