"""Extrapolation-error evaluation: log RMSE, per-task model comparison with
ties, and best-fraction ranking across task collections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .curve import CurveSplit
from .fitting import FitConfig, FitError, FitResult, fit_m1, fit_m2, fit_m3, fit_m4
from .models import M4Params, predict

# canonical model names, in reporting order
MODEL_NAMES = ("M1", "M2", "M3", "M4")
ABLATION_NAME = "M4-no-alpha"
ALL_MODEL_NAMES = MODEL_NAMES + (ABLATION_NAME,)


@dataclass(frozen=True)
class TieRule:
    """Two RMSEs tie when |a - b| <= max(abs_tol, rel_tol * min(a, b)).

    The absolute floor covers near-zero RMSEs; the relative band is a
    documented guess at the bolding pattern in published comparison tables,
    not a value taken from any source.
    """

    abs_tol: float = 1e-4
    rel_tol: float = 0.05

    def __post_init__(self):
        if not (0 <= self.abs_tol < math.inf and 0 <= self.rel_tol < math.inf):
            raise ValueError("tie tolerances must be finite and nonnegative")

    def tie(self, a: float, b: float) -> bool:
        # a == b makes two infinite RMSEs tie, where inf - inf is NaN
        return a == b or abs(a - b) <= max(self.abs_tol, self.rel_tol * min(a, b))


@dataclass(frozen=True)
class ExtrapolationReport:
    task: str
    rmse_by_model: dict
    winners: frozenset
    fitted_exponent_by_model: dict
    diagnostics: dict = field(default_factory=dict)


def extrapolation_rmse(predicted, actual) -> float:
    """sqrt(mean((log predicted - log actual)^2)).

    The log makes the metric penalize relative error, so errors at all
    loss scales weigh equally.  A non-finite prediction raises ValueError.
    """
    p = np.asarray(predicted, dtype=float)
    a = np.asarray(actual, dtype=float)
    if p.shape != a.shape or p.size == 0:
        raise ValueError("predicted and actual must be nonempty and equal length")
    if not np.all(np.isfinite(p)):
        raise ValueError("predicted loss is not finite")
    if np.any(p <= 0) or np.any(a <= 0):
        raise ValueError("all values must be strictly positive")
    return float(np.sqrt(np.mean((np.log(p) - np.log(a)) ** 2)))


def fit_models(curve, cfg: FitConfig = FitConfig(), models=MODEL_NAMES) -> dict:
    """name -> FitResult of each model on curve, in the order of models, or the
    message of the FitError, ValueError or FloatingPointError that stopped it:
    a model that cannot be fit is recorded and the others are still fit.  The
    no-alpha ablation is M2's fit, fit once, reported as
    M4Params(eps0, eps_inf, 0, beta, c)."""
    fitters = {"M1": lambda: fit_m1(curve), "M2": lambda: fit_m2(curve, cfg),
               "M3": lambda: fit_m3(curve, cfg), "M4": lambda: fit_m4(curve, cfg)}
    fits, done = {}, {}
    for name in models:
        key = "M2" if name == ABLATION_NAME else name
        if key not in done:
            try:
                if key not in fitters:
                    raise ValueError(f"unknown model name: {name!r}")
                done[key] = fitters[key]()
            except (FitError, ValueError, FloatingPointError) as exc:
                done[key] = str(exc)
        fits[name] = done[key]
        if name == ABLATION_NAME and isinstance(fits[name], FitResult):
            p = fits[name].params
            fits[name] = replace(fits[name], params=M4Params(
                curve.eps0, p.eps_inf, 0.0, p.beta, p.c))
    return fits


def winners_under(rmse_by_model: dict, tie: TieRule) -> frozenset:
    best = min(rmse_by_model.values())  # inf: no model scored, and none wins
    return frozenset(m for m, v in rmse_by_model.items()
                     if v < math.inf and tie.tie(v, best))


def evaluate_task(split: CurveSplit, cfg: FitConfig = FitConfig(),
                  models=MODEL_NAMES, tie: TieRule = TieRule()) -> ExtrapolationReport:
    """Fit each model on the train split and score it on the holdout.

    A model that fails to fit (or predicts a nonpositive loss, or one that
    overflows) scores an infinite RMSE with a diagnostic instead of aborting
    the task, so rankings stay total over tasks; if all do, none wins.
    """
    rmse = {}
    exponent = {}
    diagnostics = {}
    hold_x = split.holdout.x_array
    hold_eps = split.holdout.eps_array
    for name, fit in fit_models(split.train, cfg, models).items():
        rmse[name], exponent[name] = math.inf, math.nan
        if isinstance(fit, str):
            diagnostics[name] = fit
            continue
        try:  # a prediction can still fail to score
            rmse[name] = extrapolation_rmse(predict(fit.params, hold_x), hold_eps)
            exponent[name] = fit.params.c
        except ValueError as exc:
            diagnostics[name] = str(exc)
    return ExtrapolationReport(
        task=split.train.name,
        rmse_by_model=rmse,
        winners=winners_under(rmse, tie),
        fitted_exponent_by_model=exponent,
        diagnostics=diagnostics,
    )


def rank_methods(reports) -> dict:
    """model -> fraction of tasks in which it appears among the winners.

    Several models can tie as jointly best in one task, so fractions may
    sum to more than one.
    """
    reports = list(reports)
    if not reports:
        raise ValueError("at least one report required")
    names = dict.fromkeys(m for rep in reports for m in rep.rmse_by_model)
    return {
        m: sum(m in rep.winners for rep in reports) / len(reports) for m in names
    }

