"""Tests of the benchmark's own checks and tracer.

Run with: PYTHONPATH=src python3 -m pytest -q bench
Each check must accept a correct output and reject a deliberately
corrupted one.
"""

import copy
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import checks  # noqa: E402
import workloads  # noqa: E402
import scalefit  # noqa: E402
from scalefit import evaluation, fitting  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def fit_doc(tmp_path_factory):
    """One real fit-fast pass over two task files, as check_pass sees it."""
    wl = workloads.FitFast(0, tmp_path_factory.mktemp("tasks"))
    wl.paths = wl.paths[:2]
    wl.curves = {p.stem: wl.curves[p.stem] for p in wl.paths}
    return wl.run()


def test_real_pass_is_accepted(fit_doc):
    assert workloads.check_pass([fit_doc]) == ([], 0)


def test_corrupted_m1_rmse_is_rejected(fit_doc):
    doc = copy.deepcopy(fit_doc)
    doc["tasks"][0]["rmse"]["M1"] *= 1 + 1e-7
    assert any("M1 RMSE" in f for f in workloads.check_pass([doc])[0])


def test_corrupted_curve_is_rejected(fit_doc):
    doc = copy.deepcopy(fit_doc)
    t = doc["tasks"][0]
    t["eps"] = t["eps"][:-1] + (t["eps"][-1] * 1.01,)
    assert any("M1 RMSE" in f for f in workloads.check_pass([doc])[0])


def test_corrupted_winners_are_rejected(fit_doc):
    doc = copy.deepcopy(fit_doc)
    t = doc["tasks"][0]
    t["winners"] = t["winners"][1:]
    assert any("winners" in f for f in workloads.check_pass([doc])[0])


def test_corrupted_best_fraction_is_rejected(fit_doc):
    doc = copy.deepcopy(fit_doc)
    doc["best_fraction"]["M3"] += 0.5
    assert any("best_fraction[M3]" in f for f in workloads.check_pass([doc])[0])
    del doc["best_fraction"]["M3"]
    assert any("best_fraction models" in f for f in workloads.check_pass([doc])[0])


def test_m2_and_ablation_must_agree(fit_doc):
    doc = copy.deepcopy(fit_doc)
    doc["tasks"][0]["rmse"]["M4-no-alpha"] *= 1.001
    assert any("M4-no-alpha" in f for f in workloads.check_pass([doc])[0])


def test_failed_items_are_counted(fit_doc):
    doc = copy.deepcopy(fit_doc)
    doc["tasks"][0]["diagnostics"] = {"M3": "boom"}
    doc["tasks"].pop(1)
    doc["skipped"] = [["other.json", "bad file"]]
    assert workloads.check_pass([doc])[1] == 3


def test_unexpected_task_is_rejected(fit_doc):
    doc = copy.deepcopy(fit_doc)
    doc["tasks"].append({"task": "stranger", "rmse": {}, "winners": [],
                         "diagnostics": {}})
    assert any("stranger" in f for f in workloads.check_pass([doc])[0])


def test_m1_closed_form_matches_lstsq_fit():
    xs = np.geomspace(1, 4096, 12)
    curve = scalefit.generate_from_model(scalefit.M1Params(2.0, -0.4), xs, 0.05,
                                         np.random.default_rng(0), eps0=10.0)
    rep = evaluation.evaluate_task(scalefit.split_for_extrapolation(curve),
                                   models=("M1",))
    ours = checks.m1_holdout_rmse(curve.xs, curve.eps)
    assert abs(rep.rmse_by_model["M1"] - ours) <= 1e-12 * ours


def test_tie_rule_matches_package_default():
    rule = evaluation.TieRule()
    for a, b in [(0.01, 0.0102), (0.01, 0.0106), (1e-5, 9e-5), (1e-5, 2e-4),
                 (math.inf, math.inf), (math.inf, 0.1)]:
        assert checks.tie(a, b) == rule.tie(a, b)


def test_sphere_curve_checks():
    good = (0.45, 0.35, 0.25, 0.21)
    assert checks.check_sphere_curve("c", good, 0.2, 18000) == []
    assert checks.check_sphere_curve("c", (0.45, 0.35, 0.18), 0.2, 18000)
    assert checks.check_sphere_curve("c", (0.5, 0.35, 0.25), 0.2, 18000)
    assert checks.check_sphere_curve("c", (0.3, 0.35, 0.3), 0.2, 18000)


def test_exact_risk_and_misclassification_band():
    w_star = np.array([1.0, 0.0, 0.0])
    assert checks.exact_risk(w_star, w_star, 0.2) == pytest.approx(0.2)
    assert checks.exact_risk(-w_star, w_star, 0.2) == pytest.approx(0.8)
    w = np.array([0.0, 1.0, 0.0])
    assert checks.exact_risk(w, w_star, 0.2) == pytest.approx(0.5)
    assert checks.check_misclassification(0.5, w, w_star, 0.2, 6000) == []
    assert checks.check_misclassification(0.45, w, w_star, 0.2, 6000)


def test_sphere_exact_risk_check_passes_on_the_program():
    wl = workloads.SphereSynth(7, None)
    assert wl.extra_checks() == []


def test_round_trip_check():
    assert checks.check_round_trip(-0.4, -0.4039) == []
    assert checks.check_round_trip(-0.4, -0.41)


def test_fit_fast_round_trips_pass(tmp_path):
    assert workloads.FitFast(5, tmp_path).extra_checks() == []


def test_tracer_counts_self_time_and_restores():
    curve = scalefit.generate_from_model(scalefit.M2Params(0.05, 1.0, -0.5),
                                         np.geomspace(1, 4096, 12), 0.01,
                                         np.random.default_rng(1), eps0=10.0)
    split = scalefit.split_for_extrapolation(curve)
    cfg = fitting.FitConfig(rate_multiplier=1e4, max_outer_iters=40)
    original = fitting.solve_loglinear
    tracer = Tracer()
    tracer.install(scalefit)
    try:
        assert fitting.solve_loglinear is not original
        evaluation.evaluate_task(split, cfg, models=("M2", "M4"))
    finally:
        tracer.uninstall()
    assert fitting.solve_loglinear is original
    assert evaluation.fit_m2 is fitting.fit_m2
    stats = tracer.stats(0, tracer.mark())
    assert stats["fitting.fit_m2"]["calls"] == stats["fitting.fit_m4"]["calls"] == 1
    # without backtracking each outer iteration solves the block once, and
    # fit_m4 solves it twice more whenever alpha is projected to zero
    assert stats["fitting.solve_loglinear"]["calls"] >= stats["fitting"]["outer_iters"] > 2
    fit = stats["fitting.fit_m2"]
    assert 0 < fit["self_s"] < fit["total_s"]
    # self times partition the root span
    self_sum = sum(v["self_s"] for k, v in stats.items() if k != "fitting")
    assert self_sum == pytest.approx(stats["evaluation.evaluate_task"]["total_s"], rel=1e-9)
