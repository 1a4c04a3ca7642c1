import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import scalefit
from scalefit.cli import _cfg_from, build_parser, main
from scalefit.evaluation import TieRule
from scalefit.fitting import FitConfig
from scalefit.harness import load_task, save_task
from scalefit.models import M2Params
from scalefit.synthetic import SphereTaskSpec, generate_from_model
from scalefit.curve import LearningCurve

# a descent under which every model's holdout prediction overflows (fit on
# 1 < x < 1.005, scored at 300); the default fit scores M3 there
OVERFLOW_FLAGS = ["--lr", "0.1", "--max-iters", "5000"]
BAD_TIE_FLAGS = [("--tie-abs", "nan"), ("--tie-rel", "nan"), ("--tie-abs", "-1"),
                 ("--tie-rel", "-1"), ("--tie-abs", "inf")]


@pytest.fixture
def task_file(tmp_path):
    xs = np.geomspace(1, 4096, 13)
    curve = generate_from_model(M2Params(0.2, 1.0, -0.5), xs, eps0=2.0)
    curve = LearningCurve(curve.xs, curve.eps, curve.eps0, name="demo")
    path = tmp_path / "demo.json"
    save_task(curve, path)
    return path


@pytest.fixture
def overflow_file(tmp_path):
    path = tmp_path / "overflow.json"
    curve = LearningCurve((1, 1.001, 1.002, 1.003, 1.004, 300),
                          (0.2, 0.3, 0.4, 0.45, 0.47, 0.48), 1.0, name="overflow")
    save_task(curve, path)
    return path


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def run_on_closed_stdout(unbuffered, *argv):
    """Run `python -m scalefit.cli ARGV` with stdout on a pipe whose reader has
    already gone, stdout block-buffered (Python's default on a pipe) or not;
    return the exit code and stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(scalefit.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, *(["-u"] if unbuffered else []),
                               "-m", "scalefit.cli", *map(str, argv)],
                              stdout=write, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    return proc.returncode, proc.stderr


class TestFitCommand:
    def test_fit_single_model(self, capsys, task_file):
        code, out, _ = run_cli(capsys, "fit", task_file, "--model", "m2")
        assert code == 0
        doc = json.loads(out)
        assert doc["task"] == "demo"
        assert doc["fits"]["M2"]["params"]["c"] == pytest.approx(-0.5, abs=0.05)

    def test_fit_default_models(self, capsys, task_file):
        code, out, _ = run_cli(capsys, "fit", task_file)
        assert code == 0
        assert set(json.loads(out)["fits"]) == {"M1", "M2", "M3", "M4"}

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_closed_stdout_is_not_an_error(self, task_file, unbuffered):
        assert run_on_closed_stdout(unbuffered, "fit", task_file) == (0, b"")

    def test_truncate_at_peak_fits_the_prefix(self, capsys, tmp_path):
        xs, eps = (1, 2, 4, 8, 16, 32), (0.5, 0.4, 0.3, 0.2, 0.25, 0.3)
        save_task(LearningCurve(xs, eps, 1.0, name="peak"), tmp_path / "peak.json")
        save_task(LearningCurve(xs[:4], eps[:4], 1.0, name="peak"), tmp_path / "pre.json")
        code, out, _ = run_cli(capsys, "fit", tmp_path / "peak.json", "--model", "m1",
                               "--truncate-at-peak")
        assert code == 0
        code, prefix, _ = run_cli(capsys, "fit", tmp_path / "pre.json", "--model", "m1")
        assert code == 0
        assert json.loads(out) == json.loads(prefix)

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
        code, out, _ = run_cli(capsys, "evaluate", task_file, "--model", "m1", "--model", "m2")
        assert code == 0
        doc = json.loads(out)
        assert doc["rmse"]["M2"] < doc["rmse"]["M1"]
        assert "M2" in doc["winners"]

    def test_nan_cutoff_is_data_error(self, capsys, task_file):
        code, _, err = run_cli(capsys, "evaluate", task_file, "--cutoff", "nan")
        assert code == 2
        assert "cutoff must be nonnegative" in err

    def test_task_no_model_scored_has_no_winner(self, capsys, overflow_file):
        code, out, _ = run_cli(capsys, "evaluate", overflow_file, *OVERFLOW_FLAGS)
        assert code == 0
        doc = json.loads(out)
        assert set(doc["diagnostics"]) == {"M1", "M2", "M3", "M4"}
        assert doc["winners"] == []

    @pytest.mark.parametrize("flag,value", BAD_TIE_FLAGS)
    def test_bad_tie_tolerance_is_data_error(self, capsys, task_file, flag, value):
        code, out, err = run_cli(capsys, "evaluate", task_file, flag, value)
        assert code == 2
        assert out == ""
        assert "tie tolerances must be finite and nonnegative" in err


class TestBenchmarkCommand:
    def test_directory_table(self, capsys, task_file):
        code, out, _ = run_cli(capsys, "benchmark", task_file.parent,
                               "--model", "m1", "--model", "m2")
        assert code == 0
        assert out.startswith("task\tM1\tM2")
        assert "best_fraction" in out

    def test_json_format(self, capsys, task_file):
        code, out, _ = run_cli(capsys, "benchmark", task_file,
                               "--model", "m2", "--format", "json")
        assert code == 0
        assert json.loads(out)["best_fraction"]["M2"] == 1.0

    def test_unloadable_first_task_is_skipped(self, capsys, task_file):
        bad = [task_file.parent / name for name in ("a-bad.json", "b-not-utf8.json",
                                                    "c-too-deep.json")]
        bad[0].write_text("{not json")
        bad[1].write_bytes(b"\xff\xfe\x00")
        bad[2].write_text("[" * 100_000 + "]" * 100_000)
        code, out, _ = run_cli(capsys, "benchmark", task_file.parent, "--model", "m1",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert [t["task"] for t in doc["tasks"]] == ["demo"]
        assert [s[0] for s in doc["skipped"]] == [str(p) for p in bad]

    def test_bad_cutoff_is_data_error(self, capsys, task_file):
        code, _, _ = run_cli(capsys, "benchmark", task_file, "--cutoff", "banana")
        assert code == 2

    def test_unloadable_task_is_listed_in_the_table(self, capsys, task_file):
        bad = task_file.parent / "a-bad.json"
        bad.write_text("{not json")
        code, out, _ = run_cli(capsys, "benchmark", task_file.parent, "--model", "m1")
        assert code == 0
        assert out.splitlines()[1].startswith("demo\t")
        skipped = [line.split("\t") for line in out.splitlines()
                   if line.startswith("skipped\t")]
        assert [row[:2] for row in skipped] == [["skipped", str(bad)]]
        assert skipped[0][2].startswith("not valid JSON")

    @staticmethod
    def benchmark_cafe_in_an_ascii_locale(tmp_path, task_file, fmt):
        """`scalefit benchmark` in a subprocess whose locale, and so stdout, is
        ASCII, over one task named café written as UTF-8."""
        doc = json.loads(task_file.read_text())
        (tmp_path / "demo.json").write_text(json.dumps({**doc, "name": "café"},
                                                       ensure_ascii=False), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(Path(scalefit.__file__).parents[1]),
               "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
        proc = subprocess.run([sys.executable, "-m", "scalefit.cli", "benchmark",
                               str(tmp_path), "--model", "m1", "--format", fmt],
                              capture_output=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_task_is_read_as_utf8_in_an_ascii_locale(self, tmp_path, task_file):
        out = self.benchmark_cafe_in_an_ascii_locale(tmp_path, task_file, "json")
        assert [t["task"] for t in json.loads(out)["tasks"]] == ["café"]

    def test_table_escapes_what_an_ascii_stdout_cannot_encode(self, tmp_path, task_file):
        # the data is valid, so the name is written, not reported as a data error
        out = self.benchmark_cafe_in_an_ascii_locale(tmp_path, task_file, "table")
        assert b"caf\\xe9" in out

    def test_negative_cutoff_is_data_error(self, capsys, task_file):
        # rejected up front, rather than as a cutoff that no task survives
        code, _, err = run_cli(capsys, "benchmark", task_file, "--cutoff", "-1")
        assert code == 2
        assert "cutoff must be nonnegative" in err

    def test_nan_cutoff_is_data_error(self, capsys, task_file):
        code, _, err = run_cli(capsys, "benchmark", task_file, "--cutoff", "nan")
        assert code == 2
        assert "cutoff must be nonnegative" in err

    @pytest.mark.parametrize("flag,value", BAD_TIE_FLAGS)
    def test_bad_tie_tolerance_is_data_error(self, capsys, task_file, flag, value):
        code, _, err = run_cli(capsys, "benchmark", task_file, flag, value)
        assert code == 2
        assert "tie tolerances must be finite and nonnegative" in err

    def test_task_no_model_scored_counts_for_no_model(self, capsys, overflow_file):
        code, out, _ = run_cli(capsys, "benchmark", overflow_file, "--format", "json",
                               *OVERFLOW_FLAGS)
        assert code == 0
        fractions = json.loads(out)["best_fraction"]
        assert fractions == dict.fromkeys(["M1", "M2", "M3", "M4"], 0.0)

    def test_strict_fit_failure_exit_code(self, capsys, tmp_path):
        # tau = 8, so the train side holds 3 points, below M4's minimum
        xs = [1, 2, 3, 9, 12, 16]
        curve = generate_from_model(M2Params(0.1, 0.5, -0.3), xs, eps0=1.0)
        path = tmp_path / "small.json"
        save_task(curve, path)
        code, _, _ = run_cli(capsys, "benchmark", path, "--model", "m4", "--strict")
        assert code == 3
        assert run_on_closed_stdout(False, "benchmark", path, "--model", "m4",
                                    "--strict") == (3, b"")


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


class TestFitFailurePolicy:
    """fit, plotdata and evaluate record a model that cannot be fit (here M3,
    whose beta underflows to 0) and still report the others."""

    FLAGS = ["--model", "M1", "--model", "M3", "--lr", "1e5", "--max-iters", "50"]

    @pytest.fixture
    def path(self, tmp_path):
        curve = LearningCurve((1, 10, 100, 1000, 4000, 8000),
                              (0.5, 0.3, 0.2, 0.1, 0.09, 0.085), 1.0, name="six")
        save_task(curve, tmp_path / "six.json")
        return tmp_path / "six.json"

    def test_fit_records_the_failed_model(self, capsys, path):
        code, out, _ = run_cli(capsys, "fit", path, *self.FLAGS)
        assert code == 0
        fits = json.loads(out)["fits"]
        assert fits["M1"]["converged"] and fits["M1"]["params"]["model_form"] == "M1Params"
        assert fits["M3"] == {"error": "fitted beta underflows to 0"}

    def test_plotdata_keeps_the_fitted_model(self, capsys, path):
        code, out, err = run_cli(capsys, "plotdata", path, *self.FLAGS)
        assert code == 0
        assert out.splitlines()[0] == "x,pred_M1,observed,split"
        assert 'not fit: {"M3": "fitted beta underflows to 0"}' in err

    def test_plotdata_exits_3_when_no_model_fits(self, capsys, path):
        code, out, err = run_cli(capsys, "plotdata", path, *self.FLAGS[2:])
        assert code == 3
        assert out == ""
        assert 'not fit: {"M3": "fitted beta underflows to 0"}' in err

    def test_evaluate_records_the_failed_model(self, capsys, path):
        code, out, _ = run_cli(capsys, "evaluate", path, *self.FLAGS)
        assert code == 0
        doc = json.loads(out)
        assert doc["winners"] == ["M1"]
        assert doc["diagnostics"] == {"M3": "fitted beta underflows to 0"}


class TestEvaluateMatchesBenchmark:
    def test_evaluate_is_the_benchmark_entry_plus_tau(self, capsys, task_file):
        code, out, _ = run_cli(capsys, "evaluate", task_file, "--cutoff", "auto")
        assert code == 0
        doc = json.loads(out)
        assert doc.pop("tau") == 2048.0
        code, out, _ = run_cli(capsys, "benchmark", task_file, "--format", "json",
                               "--cutoff", "auto")
        assert code == 0
        assert json.loads(out)["tasks"] == [doc]


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

    @pytest.mark.parametrize("curves", ["0", "-1"])
    def test_fewer_than_one_curve_is_data_error(self, capsys, tmp_path, curves):
        code, out, err = run_cli(capsys, "synth", "--curves", curves, "--out-dir",
                                 tmp_path / "tasks")
        assert (code, out) == (2, "")
        assert "data error" in err
        assert not (tmp_path / "tasks").exists()

    @pytest.mark.parametrize("flag, value", [("--test-size", "0"), ("--trials", "0"),
                                             ("--d", "0"), ("--delta", "0.5"),
                                             ("--sizes", "4:4096:0")])
    def test_invalid_spec_makes_no_out_dir(self, capsys, tmp_path, flag, value):
        code, out, err = run_cli(capsys, "synth", flag, value, "--out-dir", tmp_path / "tasks")
        assert (code, out) == (2, "")
        assert "data error" in err
        assert not (tmp_path / "tasks").exists()

    @pytest.mark.parametrize("sizes", ["4:4096", "a:b:c", "4:inf:3"])
    def test_malformed_sizes_name_the_flag_and_its_form(self, capsys, tmp_path, sizes):
        code, out, err = run_cli(capsys, "synth", "--sizes", sizes, "--out-dir", tmp_path / "tasks")
        assert (code, out) == (2, "")
        assert f"--sizes {sizes!r} is not LO:HI:COUNT" in err
        assert not (tmp_path / "tasks").exists()

    def test_default_geometric_sizes(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "synth", "--d", "3", "--delta", "0.1",
                               "--test-size", "200", "--trials", "1",
                               "--out-dir", tmp_path)
        assert code == 0
        curve = load_task(out.strip())
        # --sizes 4:4096:16, rounded to integers
        assert curve.xs == (4, 6, 10, 16, 25, 40, 64, 102, 161, 256, 406, 645,
                            1024, 1625, 2580, 4096)


class TestDefaults:
    """Flag defaults are read from the objects that own them."""

    def test_no_flags_build_the_default_objects(self):
        parser = build_parser()
        assert _cfg_from(parser.parse_args(["fit", "t.json"])) is None  # the profile search
        # any one descent flag selects the descent, FitConfig's defaults for the rest
        assert _cfg_from(parser.parse_args(["fit", "t.json", "--lr", "1e-7"])) == FitConfig()
        assert _cfg_from(parser.parse_args(["fit", "t.json", "--max-iters", "50"])) == FitConfig(
            max_outer_iters=50)
        args = parser.parse_args(["benchmark", "t.json"])
        assert TieRule(abs_tol=args.tie_abs, rel_tol=args.tie_rel) == TieRule()
        args = parser.parse_args(["synth"])
        spec = SphereTaskSpec(d=args.d, delta=args.delta, sample_sizes=(4, 8),
                              test_size=args.test_size, trials=args.trials)
        assert spec == SphereTaskSpec(d=args.d, delta=args.delta, sample_sizes=(4, 8))


class TestPlotdataCommand:
    def test_csv_output(self, capsys, task_file, tmp_path):
        out_path = tmp_path / "plot.csv"
        code, _, _ = run_cli(capsys, "plotdata", task_file, "--model", "m2",
                             "--grid-points", "5", "--out", out_path)
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "x,pred_M2,observed,split"
        assert len(lines) > 5

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_fewer_than_one_grid_point_is_data_error(self, capsys, task_file, points):
        # 0 would print no prediction rows, and -3 fail in numpy without naming the flag
        code, out, err = run_cli(capsys, "plotdata", task_file, "--grid-points", points)
        assert (code, out) == (2, "")
        assert "data error: --grid-points must be positive" in err

    def test_overflowing_prediction_is_an_inf_cell(self, capsys, overflow_file):
        # a warning would be an error here, so empty stderr means none was shown
        code, out, err = run_cli(capsys, "plotdata", overflow_file, *OVERFLOW_FLAGS)
        assert (code, err) == (0, "")
        rows = [line.split(",") for line in out.splitlines()]
        assert rows[0] == ["x", "pred_M1", "pred_M2", "pred_M3", "pred_M4",
                           "observed", "split"]
        for column in range(1, 5):
            assert "inf" in {row[column] for row in rows[1:51]}


class TestUsageErrors:
    def test_no_command(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 1

    def test_bad_cutoff_is_data_error(self, capsys, task_file):
        code, _, _ = run_cli(capsys, "fit", task_file, "--cutoff", "banana")
        assert code == 2

    @pytest.mark.parametrize("argv", [["--help"], ["fit", "--help"]])
    def test_help_is_not_an_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage: scalefit")

    def test_benchmark_has_no_seed(self, capsys, task_file):
        # benchmark draws nothing at random; synth --seed seeds the curves
        code, out, err = run_cli(capsys, "benchmark", task_file, "--seed", "1")
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --seed 1" in err

    @pytest.mark.parametrize("command", ["fit", "evaluate", "benchmark", "plotdata"])
    @pytest.mark.parametrize("flags", [["--rate-multiplier", "1e6"], ["--backtracking"]])
    def test_removed_line_search_flags(self, capsys, task_file, command, flags):
        # --lr scales the descent's rate; the default fit needs no line search
        code, out, err = run_cli(capsys, command, task_file, *flags)
        assert (code, out) == (1, "")
        assert "unrecognized arguments" in err
