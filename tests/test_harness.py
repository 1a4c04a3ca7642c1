import io
import json
import math

import numpy as np
import pytest

from scalefit.curve import LearningCurve, split_for_extrapolation
from scalefit.fitting import FitConfig, fit_m2
from scalefit.harness import (
    BenchmarkRun,
    TaskFormatError,
    emit_plot_data,
    emit_report,
    load_task,
    run_benchmark,
    save_task,
)
from scalefit.evaluation import ExtrapolationReport, TieRule, winners_under
from scalefit.models import M2Params
from scalefit.synthetic import generate_from_model

FAST = FitConfig(rate_multiplier=1e6, convergence_tol=1e-13,
                 backtracking=True, max_outer_iters=5000)


def doc(**overrides):
    base = {
        "name": "toy",
        "domain": "test",
        "metric": "error",
        "higher_is_better": False,
        "loss_random_guess": 1.0,
        "points": [[1, 0.5], [2, 0.4], [4, 0.3]],
    }
    base.update(overrides)
    return base


def load_doc(d):
    return load_task(io.StringIO(json.dumps(d)))


class TestLoadTask:
    def test_minimal_valid(self):
        curve = load_doc(doc())
        assert len(curve) == 3
        assert curve.name == "toy"
        assert curve.eps0 == 1.0

    def test_accuracy_conversion(self):
        curve = load_doc(doc(metric="accuracy", higher_is_better=True,
                             points=[[1, 0.6], [2, 0.8], [4, 0.9]]))
        assert curve.eps == pytest.approx((0.4, 0.2, 0.1))

    def test_value_at_random_guess_rejected(self):
        with pytest.raises(TaskFormatError, match="outside"):
            load_doc(doc(points=[[1, 0.5], [2, 1.0]]))

    def test_missing_field(self):
        d = doc()
        del d["metric"]
        with pytest.raises(TaskFormatError, match="missing"):
            load_doc(d)

    def test_wrong_type(self):
        with pytest.raises(TaskFormatError, match="wrong type"):
            load_doc(doc(higher_is_better="yes"))

    def test_nonpositive_x(self):
        with pytest.raises(TaskFormatError, match="nonpositive x"):
            load_doc(doc(points=[[0, 0.5], [2, 0.4]]))

    @pytest.mark.parametrize("changes", [
        {"loss_random_guess": math.inf},
        {"points": [[1, 0.5], [math.nan, 0.4], [4, 0.3]]},
        {"points": [[1, 0.5], [math.inf, 0.4], [4, 0.3]]},
    ], ids=["inf-eps0", "nan-x", "inf-x"])
    def test_non_finite_rejected(self, changes):
        # json writes these as Infinity and NaN, which json.loads accepts
        with pytest.raises(TaskFormatError, match="finite"):
            load_doc(doc(**changes))

    @pytest.mark.parametrize("changes", [
        {"loss_random_guess": 10**400},
        {"points": [[1, 0.5], [2, 0.4], [10**400, 0.3]]},
    ], ids=["eps0", "x"])
    def test_integer_beyond_float_range_rejected(self, changes):
        # json.loads reads these as Python ints, which float() cannot convert
        with pytest.raises(TaskFormatError, match="finite"):
            load_doc(doc(**changes))

    def test_duplicate_x(self):
        with pytest.raises(TaskFormatError, match="duplicate"):
            load_doc(doc(points=[[2, 0.5], [2, 0.4]]))

    def test_malformed_point(self):
        with pytest.raises(TaskFormatError, match="pair"):
            load_doc(doc(points=[[1, 0.5], [2]]))

    def test_invalid_json(self):
        with pytest.raises(TaskFormatError, match="JSON"):
            load_task(io.StringIO("{nope"))

    def test_unsorted_points_accepted_and_sorted(self):
        curve = load_doc(doc(points=[[4, 0.3], [1, 0.5], [2, 0.4]]))
        assert curve.xs == (1.0, 2.0, 4.0)


class TestSaveLoadRoundTrip:
    def test_full_precision(self, tmp_path):
        xs = np.geomspace(1, 1000, 7)
        eps = 0.123456789012345 + 0.3 * xs**-0.456789
        curve = LearningCurve(tuple(xs), tuple(eps), 0.987654321, name="rt")
        path = tmp_path / "rt.json"
        save_task(curve, path, bayes_risk=0.1)
        again = load_task(path)
        assert again == curve
        assert json.loads(path.read_text())["bayes_risk"] == 0.1


def _make_task(tmp_path, name, params, xs, eps0=2.0):
    curve = generate_from_model(params, xs, eps0=eps0)
    curve = LearningCurve(curve.xs, curve.eps, curve.eps0, name=name)
    path = tmp_path / f"{name}.json"
    save_task(curve, path)
    return path


class TestRunBenchmark:
    def test_designed_winners(self, tmp_path):
        xs = np.geomspace(1, 4096, 13)
        paths = [
            _make_task(tmp_path, "m2-a", M2Params(0.2, 1.0, -0.5), xs),
            _make_task(tmp_path, "m2-b", M2Params(0.3, 0.8, -0.4), xs),
            _make_task(tmp_path, "m1-a", M2Params(0.0, 0.9, -0.3), xs),
        ]
        run = run_benchmark(paths, FAST, models=("M1", "M2"))
        frac = run.best_fraction
        # M2 nests M1, so it ties or wins everywhere
        assert frac["M2"] == 1.0
        assert frac["M1"] == pytest.approx(1 / 3)

    def test_single_task_fractions_binary(self, tmp_path):
        xs = np.geomspace(1, 4096, 13)
        path = _make_task(tmp_path, "solo", M2Params(0.2, 1.0, -0.5), xs)
        run = run_benchmark([path], FAST, models=("M1", "M2"))
        assert set(run.best_fraction.values()) <= {0.0, 1.0}

    def test_deterministic_and_order_independent(self, tmp_path):
        xs = np.geomspace(1, 4096, 13)
        paths = [
            _make_task(tmp_path, "a", M2Params(0.2, 1.0, -0.5), xs),
            _make_task(tmp_path, "b", M2Params(0.1, 0.7, -0.35), xs),
        ]
        r1 = run_benchmark(paths, FAST, models=("M1", "M2"))
        r2 = run_benchmark(list(reversed(paths)), FAST, models=("M1", "M2"))
        assert emit_report(r1, "json") == emit_report(r2, "json")

    def test_skipped_accounting(self, tmp_path):
        xs = np.geomspace(1, 4096, 13)
        good = _make_task(tmp_path, "good", M2Params(0.2, 1.0, -0.5), xs)
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        run = run_benchmark([good, bad], FAST, models=("M1", "M2"))
        assert len(run.reports) + len(run.skipped) == 2
        assert run.skipped[0][0].endswith("bad.json")

    def test_no_loadable_tasks(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        with pytest.raises(TaskFormatError, match="no loadable"):
            run_benchmark([bad], FAST)


def _toy_run():
    rmse_a = {"M1": 2.6e-1, "M2": 3.9e-2, "M3": 8.9e-2, "M4": 1.0e-2}
    tie = TieRule()
    reports = (
        ExtrapolationReport(task="6enc-6dec", rmse_by_model=rmse_a,
                            winners=winners_under(rmse_a, tie),
                            fitted_exponent_by_model={m: -0.3 for m in rmse_a}),
    )
    from scalefit.evaluation import rank_methods
    return BenchmarkRun(reports=reports, best_fraction=rank_methods(reports))


class TestEmitReport:
    def test_table_flags_winner(self):
        text = emit_report(_toy_run(), "table")
        row = [l for l in text.splitlines() if l.startswith("6enc-6dec")][0]
        cells = row.split("\t")
        assert cells[1:] == ["2.6e-01", "3.9e-02", "8.9e-02", "1.0e-02*"]

    def test_json_round_trip_at_full_precision(self):
        run = _toy_run()
        doc = json.loads(emit_report(run, "json"))
        assert doc["tasks"][0]["rmse"]["M4"] == 1.0e-2
        assert doc["best_fraction"]["M4"] == 1.0

    def test_table_matches_json_at_displayed_precision(self):
        run = _toy_run()
        doc = json.loads(emit_report(run, "json"))
        table = emit_report(run, "table")
        row = table.splitlines()[1].split("\t")
        for value, cell in zip(doc["tasks"][0]["rmse"].values(), row[1:]):
            assert f"{value:.1e}" == cell.rstrip("*")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_report(_toy_run(), "xml")


class TestEmitPlotData:
    def test_prediction_and_flags(self):
        xs = np.geomspace(1, 4096, 13)
        true = M2Params(0.2, 1.0, -0.5)
        curve = generate_from_model(true, xs, eps0=2.0)
        split = split_for_extrapolation(curve)
        fits = {"M2": fit_m2(split.train, FAST)}
        text = emit_plot_data(split, fits, grid_points=10)
        lines = text.strip().splitlines()
        assert lines[0] == "x,pred_M2,observed,split"
        grid_rows = [l.split(",") for l in lines[1:11]]
        for row in grid_rows:
            x, pred = float(row[0]), float(row[1])
            expect = 0.2 + x**-0.5
            assert pred == pytest.approx(expect, abs=1e-6)
        obs_rows = [l.split(",") for l in lines[11:]]
        for row in obs_rows:
            assert row[3] == ("holdout" if float(row[0]) > split.tau else "train")
