"""End-to-end acceptance gate.

Each test covers one numbered criterion and emits a single PASS/FAIL line
in the terminal summary (see conftest.VERDICTS). Criteria 7 and 10 share one expensive module-scoped family of synthetic
sphere curves; everything else runs in seconds.
"""

import math

import numpy as np
import pytest

import conftest
from oracles import grid_fit_m2, grid_fit_m3, grid_fit_m4, relerr
from scalefit.curve import CurveSplit, apply_cutoff, split_for_extrapolation
from scalefit.evaluation import (
    ABLATION_NAME,
    ExtrapolationReport,
    TieRule,
    evaluate_task,
    extrapolation_rmse,
    fit_models,
    rank_methods,
    winners_under,
)
from scalefit.fitting import (
    FitConfig,
    dloss_m3_dgamma,
    dloss_m4_deps_inf,
    fit_m1,
    fit_m4,
    loss_m3,
    loss_m4,
)
from scalefit.models import (
    M1Params,
    M2Params,
    M3Params,
    M4Params,
    m4_asymptotic_excess,
    predict_m2,
    predict_m4,
)
from scalefit.synthetic import SphereTaskSpec, generate_from_model, generate_sphere_curve

FAST = FitConfig(rate_multiplier=1e6, convergence_tol=1e-13,
                 backtracking=True, max_outer_iters=5000)

XS12 = np.geomspace(1, 4096, 12)


def _verdict(number, description, ok):
    line = f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {description}"
    conftest.VERDICTS.append(line)
    assert ok, line


# --------------------------------------------------------------------------
# shared synthetic-sphere curve family (criteria 7 and 10)

SPHERE_SIZES = tuple(sorted({int(round(v)) for v in np.geomspace(4, 8192, 18)}))
SPHERE_SEEDS = range(10)
DEEP_CUTOFF = 512.0


@pytest.fixture(scope="module")
def sphere_reports():
    """Per-seed extrapolation reports on the d=100, delta=0.2 sphere task.

    For each seed: one report on the plain tau = x_max/2 split (models M2,
    M4, and the no-alpha ablation) and one on the same split with the train
    side additionally restricted to x >= 512, deep in the power-law stage.
    """
    zero, deep = [], []
    for seed in SPHERE_SEEDS:
        spec = SphereTaskSpec(d=100, delta=0.2, sample_sizes=SPHERE_SIZES,
                              test_size=6000, trials=12, seed=seed)
        curve = generate_sphere_curve(spec).curve
        split = split_for_extrapolation(curve)
        zero.append(evaluate_task(split, FAST,
                                  models=("M2", "M4", "M4-no-alpha")))
        deep_split = CurveSplit(train=apply_cutoff(split.train, DEEP_CUTOFF),
                                holdout=split.holdout, tau=split.tau)
        deep.append(evaluate_task(deep_split, FAST, models=("M2", "M4")))
    return zero, deep


# --------------------------------------------------------------------------


def test_criterion_01_footnote_rmse():
    a = extrapolation_rmse([1.0], [0.99])
    b = extrapolation_rmse([0.1], [0.099])
    ok = abs(a - 0.01005) < 1e-4 and abs(b - 0.01005) < 1e-4
    _verdict(1, "one-percent log-RMSE footnote pairs", ok)


def test_criterion_02_reduction_exactness():
    rng = np.random.default_rng(2)
    worst_pred = 0.0
    for _ in range(1000):
        eps0 = rng.uniform(0.5, 3.0)
        eps_inf = rng.uniform(0.0, 0.4 * eps0)
        beta = rng.uniform(0.01, 0.2)
        c = rng.uniform(-1.0, -0.2)
        x = rng.uniform(1.0, 1e4)
        p4 = M4Params(eps0, eps_inf, 0.0, beta, c)
        p2 = M2Params(eps_inf, beta, c)
        worst_pred = max(worst_pred, abs(predict_m4(p4, x) - predict_m2(p2, x)))
    pinned = FitConfig(learning_rate=0.0, eps_inf_init_fraction=0.0)
    worst_fit = 0.0
    for seed in range(50):
        r = np.random.default_rng(seed)
        curve = generate_from_model(
            M1Params(r.uniform(0.3, 1.5), r.uniform(-0.9, -0.2)), XS12,
            noise_sigma=0.05, rng=r, eps0=10.0)
        f4 = fit_models(curve, pinned, (ABLATION_NAME,))[ABLATION_NAME].params
        f1 = fit_m1(curve).params
        worst_fit = max(worst_fit, abs(f4.beta - f1.beta), abs(f4.c - f1.c),
                        f4.eps_inf, f4.alpha)
    ok = worst_pred < 1e-12 and worst_fit < 1e-9
    _verdict(2, "alpha=0 reduces M4 to M2 (predict) and to M1 (pinned fit)", ok)


def test_criterion_03_round_trip_recovery():
    from scalefit.fitting import fit_m2, fit_m3

    worst_truth = 0.0
    worst_oracle = 0.0
    for seed in range(20):
        r = np.random.default_rng(1000 + seed)

        p2 = M2Params(r.uniform(0.02, 0.12), r.uniform(0.5, 2.0),
                      r.uniform(-0.5, -0.2))
        c2 = generate_from_model(p2, XS12, eps0=p2.eps_inf + 3 * p2.beta)
        f2 = fit_m2(c2, FAST).params
        g2 = grid_fit_m2(c2, n_grid=4000)
        worst_truth = max(worst_truth, relerr(f2.eps_inf, p2.eps_inf),
                          relerr(f2.beta, p2.beta), relerr(f2.c, p2.c))
        worst_oracle = max(worst_oracle, relerr(f2.eps_inf, g2.eps_inf),
                           relerr(f2.beta, g2.beta), relerr(f2.c, g2.c))

        p3 = M3Params(r.uniform(0.5, 2.0), r.uniform(0.2, 0.8),
                      r.uniform(1e-4, 1e-2))
        c3 = generate_from_model(p3, XS12, eps0=3 * p3.beta)
        f3 = fit_m3(c3, FAST).params
        g3 = grid_fit_m3(c3)
        worst_truth = max(worst_truth, relerr(f3.beta, p3.beta),
                          relerr(f3.c, p3.c), relerr(f3.gamma, p3.gamma))
        worst_oracle = max(worst_oracle, relerr(f3.beta, g3.beta),
                           relerr(f3.c, g3.c), relerr(f3.gamma, g3.gamma))

        p4 = M4Params(1.0, r.uniform(0.01, 0.06), r.uniform(0.2, 1.2),
                      r.uniform(0.1, 0.3), r.uniform(-0.45, -0.2))
        c4 = generate_from_model(p4, XS12, eps0=1.0)
        f4 = fit_m4(c4, FAST).params
        g4 = grid_fit_m4(c4, n_grid=4000)
        worst_truth = max(worst_truth, relerr(f4.eps_inf, p4.eps_inf),
                          relerr(f4.alpha, p4.alpha),
                          relerr(f4.beta, p4.beta), relerr(f4.c, p4.c))
        worst_oracle = max(worst_oracle, relerr(f4.eps_inf, g4.eps_inf),
                           relerr(f4.alpha, g4.alpha),
                           relerr(f4.beta, g4.beta), relerr(f4.c, g4.c))

        p1 = M1Params(r.uniform(0.5, 2.0), r.uniform(-0.8, -0.2))
        c1 = generate_from_model(p1, XS12, eps0=3 * p1.beta)
        f1 = fit_m1(c1).params
        worst_truth = max(worst_truth, relerr(f1.beta, p1.beta),
                          relerr(f1.c, p1.c))

    # the oracle grids resolve eps_inf/gamma to roughly 0.5% of their range
    ok = worst_truth < 1e-2 and worst_oracle < 2e-2
    _verdict(3, "noiseless round trips within 1e-2, matching grid oracles", ok)


def test_criterion_04_gradient_correctness():
    worst = 0.0
    for seed in range(100):
        r = np.random.default_rng(200 + seed)
        base = M4Params(1.0, 0.1, r.uniform(0.0, 1.5), r.uniform(0.05, 0.3),
                        r.uniform(-0.8, -0.2))
        curve = generate_from_model(base, XS12, noise_sigma=0.05, rng=r, eps0=1.0)
        e_inf = r.uniform(0.01, 0.8 * min(curve.eps))
        # alternate between the alpha=0 (M2) and alpha>0 (M4) gradients
        alpha = base.alpha if seed % 2 else 0.0
        p = M4Params(1.0, e_inf, alpha, base.beta, base.c)
        h = 1e-6 * max(e_inf, 1e-3)
        fd = (loss_m4(curve, M4Params(1.0, e_inf + h, alpha, p.beta, p.c))
              - loss_m4(curve, M4Params(1.0, e_inf - h, alpha, p.beta, p.c))) / (2 * h)
        worst = max(worst, relerr(dloss_m4_deps_inf(curve, p), fd, 1e-8))
    for seed in range(100):
        r = np.random.default_rng(300 + seed)
        base = M3Params(r.uniform(0.5, 2.0), r.uniform(0.2, 0.8),
                        r.uniform(1e-4, 1e-2))
        curve = generate_from_model(base, XS12, noise_sigma=0.05, rng=r, eps0=6.0)
        gamma = r.uniform(1e-4, 0.1)
        p = M3Params(base.beta, base.c, gamma)
        h = 1e-6 * max(gamma, 1.0)
        fd = (loss_m3(curve, M3Params(p.beta, p.c, gamma + h))
              - loss_m3(curve, M3Params(p.beta, p.c, gamma - h))) / (2 * h)
        worst = max(worst, relerr(dloss_m3_dgamma(curve, p), fd, 1e-8))
    _verdict(4, "analytic eps_inf and gamma gradients match central "
                "differences", worst < 1e-5)


def test_criterion_05_monotonicity_and_range():
    rng = np.random.default_rng(5)
    ok = True
    for k in range(1000):
        eps0 = rng.uniform(0.5, 3.0)
        eps_inf = rng.uniform(0.0, 0.5 * eps0)
        alpha = 0.0 if k % 5 == 0 else rng.uniform(0.1, 3.0)
        beta = rng.uniform(0.05, 5.0)
        c = rng.uniform(-1.0, -0.1)
        p = M4Params(eps0, eps_inf, alpha, beta, c)
        xs = np.geomspace(1.0, 10 ** rng.uniform(2, 5), 12)
        pred = predict_m4(p, xs)
        if not np.all(np.diff(pred) < 0):
            ok = False
        if alpha > 0 and not (np.all(pred > eps_inf) and np.all(pred < eps0)):
            ok = False
    _verdict(5, "M4 predictions strictly decreasing and inside "
                "(eps_inf, eps0) for alpha > 0", ok)


def test_criterion_06_asymptotic_expansion():
    ok = True
    for seed in range(50):
        r = np.random.default_rng(400 + seed)
        p = M4Params(1.0, r.uniform(0.0, 0.3), r.uniform(0.2, 2.0),
                     r.uniform(0.02, 0.1), r.uniform(-0.5, -0.3))

        def expansion_relerr(x):
            exact = predict_m4(p, x) - p.eps_inf
            return abs(m4_asymptotic_excess(p, x) - exact) / exact

        if not expansion_relerr(1e4) < expansion_relerr(1e2):
            ok = False
    _verdict(6, "two-term expansion error shrinks from x0*1e2 to x0*1e4", ok)


@pytest.mark.slow
def test_criterion_07_sphere_extrapolation(sphere_reports):
    zero, deep = sphere_reports
    tie = TieRule()
    m4_le_m2 = sum(rep.rmse_by_model["M4"] <= rep.rmse_by_model["M2"]
                   for rep in zero)
    deep_ties = sum(tie.tie(rep.rmse_by_model["M2"], rep.rmse_by_model["M4"])
                    for rep in deep)
    ok = m4_le_m2 >= 8 and deep_ties >= 8
    _verdict(7, f"sphere curves: M4 <= M2 on {m4_le_m2}/10 transitional "
                f"splits, M2/M4 tie on {deep_ties}/10 deep cutoffs", ok)


def test_criterion_08_interpolation_vs_extrapolation():
    true = M4Params(eps0=1.0, eps_inf=0.1, alpha=2.0, beta=5.0, c=-0.6)
    curve = generate_from_model(true, np.geomspace(1, 1e6, 25), eps0=1.0)
    split = split_for_extrapolation(curve)
    eps = split.train.eps_array
    logx = np.log(split.train.x_array)
    hold_x = split.holdout.x_array
    hold_eps = split.holdout.eps_array

    def profile(c):
        """Best (eps_inf, beta) under M2 for a pinned exponent c."""
        best = (np.inf, None)
        for e_inf in np.linspace(0.0, eps.min() * (1 - 1e-9), 800,
                                 endpoint=False):
            y = np.log(eps - e_inf)
            b0 = float(np.mean(y - c * logx))
            loss = float(np.mean((y - b0 - c * logx) ** 2))
            if loss < best[0]:
                best = (loss, (e_inf, math.exp(b0)))
        loss, (e_inf, beta) = best
        pred = e_inf + beta * hold_x**c
        rmse = (extrapolation_rmse(pred, hold_eps) if np.all(pred > 0)
                else math.inf)
        return loss, rmse

    cs = np.linspace(-1.4, -0.05, 136)
    losses, rmses = zip(*(profile(c) for c in cs))
    c_train = cs[int(np.argmin(losses))]
    c_holdout = cs[int(np.argmin(rmses))]
    ok = not TieRule().tie(abs(c_train), abs(c_holdout))
    _verdict(8, f"best interpolating exponent {c_train:.2f} differs from "
                f"best extrapolating exponent {c_holdout:.2f}", ok)


def test_criterion_09_ranking_arithmetic():
    tie = TieRule()
    tasks = {
        "t1": {"M2": 0.30, "M3": 0.20, "M4": 0.01},
        "t2": {"M2": 0.01, "M3": 0.30, "M4": 0.20},
        "t3": {"M2": 0.0100, "M3": 0.0102, "M4": 0.50},  # M2/M3 tie
        "t4": {"M2": 0.40, "M3": 0.30, "M4": 0.02},
        "t5": {"M2": 0.20, "M3": 0.50, "M4": 0.01},
        "t6": {"M2": 0.03, "M3": 0.50, "M4": 0.50},
    }
    reports = [
        ExtrapolationReport(task=name, rmse_by_model=rmse,
                            winners=winners_under(rmse, tie),
                            fitted_exponent_by_model={})
        for name, rmse in tasks.items()
    ]
    frac = rank_methods(reports)
    expected = {"M2": 3 / 6, "M3": 1 / 6, "M4": 3 / 6}
    ok = frac == expected and sum(frac.values()) > 1.0
    _verdict(9, "designed 6-task set gives exact best fractions with a "
                "double-counted tie", ok)


@pytest.mark.slow
def test_criterion_10_ablation_direction(sphere_reports):
    zero, _ = sphere_reports
    tie = TieRule()
    violations = sum(
        rep.rmse_by_model["M4-no-alpha"] < rep.rmse_by_model["M4"]
        and not tie.tie(rep.rmse_by_model["M4-no-alpha"],
                        rep.rmse_by_model["M4"])
        for rep in zero)
    strict_wins = sum(
        rep.rmse_by_model["M4"] < rep.rmse_by_model["M4-no-alpha"]
        and not tie.tie(rep.rmse_by_model["M4"],
                        rep.rmse_by_model["M4-no-alpha"])
        for rep in zero)
    ok = violations == 0 and strict_wins >= 6
    _verdict(10, f"no-alpha ablation never beats full M4 beyond tolerance "
                 f"({violations} violations), M4 strictly better on "
                 f"{strict_wins}/10 seeds", ok)
