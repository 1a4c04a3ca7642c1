import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from strategies import curves
from scalefit import evaluation, fitting
from scalefit.curve import (
    CurveError,
    CurveSplit,
    LearningCurve,
    prepare_split,
    split_for_extrapolation,
)
from scalefit.evaluation import (
    ABLATION_NAME,
    ALL_MODEL_NAMES,
    MODEL_NAMES,
    ExtrapolationReport,
    TieRule,
    evaluate_task,
    extrapolation_rmse,
    fit_models,
    rank_methods,
    winners_under,
)
from scalefit.fitting import FitConfig
from scalefit.models import M1Params, M2Params, M4Params
from scalefit.synthetic import generate_from_model

# steep train sides whose fits extrapolate past the largest float at the holdout
# under OVERFLOW_CFG (the default fit scores M3 on the second)
OVERFLOW_CFG = FitConfig(learning_rate=0.1, max_outer_iters=5000)
OVERFLOWING = (
    LearningCurve((1, 1.0039138893383475, 54.598150033144236), (0.25, 0.5, 0.5), 1.0),
    LearningCurve((1, 1.001, 1.002, 1.003, 1.004, 300),
                  (0.2, 0.3, 0.4, 0.45, 0.47, 0.48), 1.0),
)


class TestExtrapolationRmse:
    def test_zero_on_equal(self):
        assert extrapolation_rmse([0.5, 0.2], [0.5, 0.2]) == 0.0

    def test_one_percent_footnote_pairs(self):
        assert extrapolation_rmse([1.0], [0.99]) == pytest.approx(0.01005, abs=1e-4)
        assert extrapolation_rmse([0.1], [0.099]) == pytest.approx(0.01005, abs=1e-4)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            extrapolation_rmse([1.0, -0.1], [1.0, 1.0])
        with pytest.raises(ValueError):
            extrapolation_rmse([], [])

    def test_rejects_non_finite_prediction(self):
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="not finite"):
                extrapolation_rmse([1.0, bad], [1.0, 1.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            extrapolation_rmse([1.0], [1.0, 2.0])

    @given(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=8),
           st.floats(1e-3, 1e3))
    @settings(max_examples=50, deadline=None)
    def test_symmetry_and_scale_invariance(self, vals, k):
        a = np.array(vals)
        b = a * 1.1 + 1e-3
        assert extrapolation_rmse(a, b) == pytest.approx(extrapolation_rmse(b, a))
        assert extrapolation_rmse(k * a, k * b) == pytest.approx(
            extrapolation_rmse(a, b), rel=1e-9, abs=1e-12)


class TestTieRule:
    def test_absolute_floor(self):
        tie = TieRule()
        assert tie.tie(0.0, 5e-5)
        assert not tie.tie(0.0, 2e-4)

    def test_relative_band(self):
        tie = TieRule()
        assert tie.tie(0.010, 0.0104)
        assert not tie.tie(0.010, 0.012)

    def test_infinite_rmses(self):
        tie = TieRule()
        assert tie.tie(math.inf, math.inf)
        assert not tie.tie(0.1, math.inf)

    @pytest.mark.parametrize("field", ["abs_tol", "rel_tol"])
    @pytest.mark.parametrize("value", [math.nan, -1.0, math.inf])
    def test_rejects_tolerance_outside_zero_to_inf(self, field, value):
        with pytest.raises(ValueError, match="tie tolerances"):
            TieRule(**{field: value})

    def test_winner_set_contains_argmin(self):
        rng = np.random.default_rng(12)
        tie = TieRule()
        for _ in range(50):
            rmse = {m: float(rng.uniform(0, 0.3)) for m in MODEL_NAMES}
            w = winners_under(rmse, tie)
            assert min(rmse, key=rmse.get) in w


class TestEvaluateTask:
    def _m2_split(self):
        true = M2Params(eps_inf=0.2, beta=1.0, c=-0.5)
        curve = generate_from_model(true, np.geomspace(1, 4096, 13), eps0=2.0)
        return split_for_extrapolation(curve)

    def test_generative_model_wins_with_zero_rmse(self):
        split = self._m2_split()
        report = evaluate_task(split, models=("M1", "M2"))
        assert report.rmse_by_model["M2"] < 1e-5
        assert "M2" in report.winners

    def test_records_exponents(self):
        split = self._m2_split()
        report = evaluate_task(split, models=("M1", "M2"))
        assert report.fitted_exponent_by_model["M2"] == pytest.approx(-0.5, abs=1e-3)

    def test_exponents_share_one_sign(self):
        # M3's c is the slope in log(1/x + gamma), so its exponent in x is -c
        curve = generate_from_model(M1Params(1.0, -0.5), np.geomspace(1, 4096, 24), eps0=2.0)
        report = evaluate_task(split_for_extrapolation(curve))
        for m in MODEL_NAMES:
            assert report.fitted_exponent_by_model[m] == pytest.approx(-0.5, abs=1e-9), m

    def test_no_models_give_an_empty_report(self):
        report = evaluate_task(self._m2_split(), models=())
        assert report.rmse_by_model == report.fitted_exponent_by_model == {}
        assert report.diagnostics == {}
        assert report.winners == frozenset()

    def test_failed_fit_scores_infinite(self):
        # 3 train points cannot support M4's four parameters
        curve = LearningCurve((1, 2, 3, 8), (0.5, 0.45, 0.42, 0.3), 1.0)
        split = split_for_extrapolation(curve)
        report = evaluate_task(split, models=("M1", "M4"))
        assert math.isinf(report.rmse_by_model["M4"])
        assert "M4" in report.diagnostics
        assert math.isnan(report.fitted_exponent_by_model["M4"])
        assert report.winners == frozenset({"M1"})

    @pytest.mark.parametrize("curve", OVERFLOWING)
    def test_overflowing_prediction_is_a_diagnostic(self, curve):
        # numpy's overflow warning is an error under this suite's settings
        report = evaluate_task(split_for_extrapolation(curve), OVERFLOW_CFG, ALL_MODEL_NAMES)
        assert set(report.diagnostics) == set(ALL_MODEL_NAMES)
        assert report.diagnostics["M1"] == "predicted loss is not finite"
        assert all(math.isinf(v) for v in report.rmse_by_model.values())

    def test_overflow_reads_the_same_for_every_model(self):
        report = evaluate_task(split_for_extrapolation(OVERFLOWING[1]), OVERFLOW_CFG,
                               ALL_MODEL_NAMES)
        assert report.diagnostics == dict.fromkeys(ALL_MODEL_NAMES,
                                                   "predicted loss is not finite")
        assert report.winners == frozenset()

    def test_all_models_tie(self):
        rmse = {m: 0.01 for m in MODEL_NAMES}
        assert winners_under(rmse, TieRule()) == frozenset(MODEL_NAMES)

    def test_no_winner_when_no_model_scored(self):
        rmse = dict.fromkeys(MODEL_NAMES, math.inf)
        assert winners_under(rmse, TieRule()) == frozenset()
        assert winners_under({**rmse, "M2": 0.1}, TieRule()) == {"M2"}


class TestRankMethods:
    def _report(self, task, rmse):
        return ExtrapolationReport(task=task, rmse_by_model=rmse,
                                   winners=winners_under(rmse, TieRule()),
                                   fitted_exponent_by_model={})

    def test_single_winner(self):
        reports = [self._report("a", {"M2": 0.5, "M4": 0.01}),
                   self._report("b", {"M2": 0.3, "M4": 0.02})]
        s = rank_methods(reports)
        assert s == {"M2": 0.0, "M4": 1.0}

    def test_fractions_can_sum_above_one(self):
        reports = [self._report("a", {"M3": 0.0100, "M4": 0.0101}),
                   self._report("b", {"M3": 0.5, "M4": 0.01})]
        s = rank_methods(reports)
        assert s == {"M3": 0.5, "M4": 1.0}
        assert sum(s.values()) > 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rank_methods([])

    def test_fraction_equals_indicator_mean(self):
        rng = np.random.default_rng(6)
        reports = [self._report(str(i), {m: float(rng.uniform(0, 0.2))
                                         for m in MODEL_NAMES})
                   for i in range(25)]
        s = rank_methods(reports)
        for m in MODEL_NAMES:
            expect = np.mean([m in r.winners for r in reports])
            assert s[m] == expect
            assert 0.0 <= s[m] <= 1.0


class TestFitModels:
    @staticmethod
    def _count_fits(monkeypatch):
        """The fit_m2 and fit_m4 calls fit_models makes, in order."""
        calls = []
        monkeypatch.setattr(evaluation, "fit_m2",
                            lambda *a: calls.append("M2") or fitting.fit_m2(*a))
        monkeypatch.setattr(evaluation, "fit_m4",
                            lambda *a: calls.append("M4") or fitting.fit_m4(*a))
        return calls

    def test_ablation_is_m2_fit_once(self, monkeypatch):
        # M4 with alpha = 0 is M2: the ablation is M2's fit, as M4 params
        calls = self._count_fits(monkeypatch)
        for noise in (0.0, 0.03):
            curve = generate_from_model(M2Params(0.1, 0.8, -0.4), np.geomspace(1, 2048, 12),
                                        noise_sigma=noise, rng=np.random.default_rng(11),
                                        eps0=1.0)
            for cfg in (None, FitConfig()):
                r2 = fitting.fit_m2(curve, cfg)
                for models in (("M2", ABLATION_NAME), (ABLATION_NAME,)):
                    calls.clear()
                    fits = fit_models(curve, cfg, models)
                    assert calls == ["M2"]
                    r4 = fits[ABLATION_NAME]
                    assert fits.get("M2", r2) == r2
                    assert r4.params == M4Params(curve.eps0, r2.params.eps_inf, 0.0,
                                                 r2.params.beta, r2.params.c)
                    assert (r4.train_loss, r4.iterations, r4.converged) == (
                        r2.train_loss, r2.iterations, r2.converged)

    def test_m2_failure_recorded_under_each_name(self, monkeypatch):
        calls = self._count_fits(monkeypatch)
        curve = LearningCurve((1, 2, 8), (0.5, 0.4, 0.3), 1.0)  # train side: 2 points
        report = evaluate_task(split_for_extrapolation(curve),
                               models=(ABLATION_NAME, "M2"))
        msg = "M2 needs at least 3 points, got 2"
        assert report.diagnostics == {ABLATION_NAME: msg, "M2": msg}
        assert calls == ["M2"]

    def test_unknown_name_is_recorded(self):
        curve = generate_from_model(M2Params(0.1, 0.8, -0.4), np.geomspace(1, 2048, 12),
                                    eps0=1.0)
        fits = fit_models(curve, models=("M1", "M5"))
        assert isinstance(fits["M1"], fitting.FitResult)
        assert fits["M5"] == "unknown model name: 'M5'"


class TestTotality:
    """Any valid curve gives each model finite parameters or a diagnostic,
    and a finite RMSE or a diagnostic, with no numpy warning on the way."""

    CONFIGS = (None, FitConfig(max_outer_iters=100),
               FitConfig(rate_multiplier=1e6, max_outer_iters=100))

    @given(curves())
    @example(OVERFLOWING[0])
    @example(OVERFLOWING[1])
    @example(LearningCurve((1, 2, 4), (0.5, 0.5, 5e-324), 1.0))  # 1/eps overflows
    @settings(max_examples=40, deadline=None)
    def test_fit_and_score_are_finite_or_diagnosed(self, curve):
        for cfg in self.CONFIGS:
            for name, fit in fit_models(curve, cfg, ALL_MODEL_NAMES).items():
                if not isinstance(fit, str):
                    assert np.all(np.isfinite(dataclasses.astuple(fit.params))), name
                    assert math.isfinite(fit.train_loss), name
        try:
            split = prepare_split(curve)
        except CurveError:
            return
        report = evaluate_task(split, models=ALL_MODEL_NAMES)
        for name, rmse in report.rmse_by_model.items():
            assert math.isfinite(rmse) != (name in report.diagnostics), name
