import dataclasses

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import grid_fit_m2, grid_fit_m3, grid_fit_m4, relerr
from strategies import curves, small_alpha_m4_curves, top_gamma_m3_curves
from scalefit.curve import LearningCurve, split_for_extrapolation
from scalefit import fitting
from scalefit.evaluation import ABLATION_NAME, ALL_MODEL_NAMES, fit_models
from scalefit.fitting import (
    EPS_INF_GRID,
    EPS_INF_MARGIN,
    GAMMA_GRID,
    DegenerateDesignError,
    FitConfig,
    FitError,
    FitResult,
    _descend,
    _Separable,
    dloss_m3_dgamma,
    dloss_m4_deps_inf,
    factor_design,
    fit_m1,
    fit_m2,
    fit_m3,
    fit_m4,
    loglinear_coefficients,
    loss_m3,
    loss_m4,
    solve_loglinear,
)
from scalefit.models import M2Params, M3Params, M4Params
from scalefit.synthetic import generate_from_model

XS12 = tuple(np.geomspace(1, 2048, 12))

# the paper's descent with a 1e6 times larger rate and a backtracking line
# search: aggressive but monotone, for the descent's own recovery tests
FAST = FitConfig(rate_multiplier=1e6, convergence_tol=1e-13,
                 backtracking=True, max_outer_iters=5000)


def curve_of(xs, eps, eps0=1.0):
    return LearningCurve(tuple(xs), tuple(eps), eps0)


class TestLosses:
    def test_loss_m4_zero_on_generative_curve(self):
        p = M4Params(eps0=1, eps_inf=0.1, alpha=0.8, beta=1.2, c=-0.4)
        curve = generate_from_model(p, XS12)
        assert loss_m4(curve, p) < 1e-18

    def test_loss_m4_reduces_to_m1_residual(self):
        curve = curve_of([1, 4, 16], [0.8, 0.5, 0.3])
        p = M4Params(eps0=1, eps_inf=0, alpha=0, beta=1.0, c=-0.5)
        logx = np.log(curve.x_array)
        expect = np.mean((np.log(curve.eps_array) - 0.0 - (-0.5) * logx) ** 2)
        assert loss_m4(curve, p) == pytest.approx(expect, rel=1e-12)

    def test_loss_m4_hand_computed(self):
        curve = curve_of([1, 10, 100], [0.6, 0.4, 0.25])
        p = M4Params(eps0=1, eps_inf=0.2, alpha=0.5, beta=0.45, c=-0.3)
        total = 0.0
        for x, e in zip(curve.xs, curve.eps):
            r = (np.log(e - 0.2) - 0.5 * np.log(1 - e)
                 - np.log(0.45) - (-0.3) * np.log(x))
            total += r * r
        assert loss_m4(curve, p) == pytest.approx(total / 3, rel=1e-12)

    def test_loss_m4_rejects_infeasible_eps_inf(self):
        curve = curve_of([1, 4, 16], [0.8, 0.5, 0.3])
        with pytest.raises(FitError, match="eps_inf"):
            loss_m4(curve, M4Params(eps0=1, eps_inf=0.3, alpha=0, beta=1, c=-0.5))

    def test_loss_m3_zero_on_generative_curve(self):
        p = M3Params(beta=0.9, c=0.5, gamma=0.01)
        curve = generate_from_model(p, XS12, eps0=2.0)
        assert loss_m3(curve, p) < 1e-18

    def test_loss_m3_gamma_zero_matches_m1_form(self):
        curve = curve_of([1, 4, 16], [0.8, 0.5, 0.3])
        p3 = M3Params(beta=0.7, c=0.5, gamma=0.0)
        # log(1/x) = -log x, so this equals the M1 residual at (beta, -c)
        p4 = M4Params(eps0=1, eps_inf=0, alpha=0, beta=0.7, c=-0.5)
        assert loss_m3(curve, p3) == pytest.approx(loss_m4(curve, p4), rel=1e-12)

    def test_loss_m3_hand_computed(self):
        curve = curve_of([2, 20, 200], [0.5, 0.3, 0.2])
        p = M3Params(beta=0.4, c=0.35, gamma=0.02)
        rs = [np.log(e) - np.log(0.4) - 0.35 * np.log(1 / x + 0.02)
              for x, e in zip(curve.xs, curve.eps)]
        assert loss_m3(curve, p) == pytest.approx(np.mean(np.square(rs)), rel=1e-12)

    def test_loss_m4_on_a_degenerate_design(self):
        # log(eps0 - eps) = log 0.5 - 0.3 log x, in the span of 1 and log x
        xs = np.array([1.0, 2.0, 4.0, 8.0])
        curve = curve_of(xs, 1 - 0.5 * xs ** -0.3)
        p = M4Params(eps0=1, eps_inf=0.1, alpha=0.5, beta=0.8, c=-0.2)
        gap = curve.eps_array - 0.1
        r = np.log(gap) - 0.5 * np.log(1 - curve.eps_array) - np.log(0.8) + 0.2 * np.log(xs)
        assert loss_m4(curve, p) == pytest.approx(np.mean(r * r), rel=1e-12)
        assert dloss_m4_deps_inf(curve, p) == pytest.approx(np.mean(-2 * r / gap), rel=1e-12)

    def test_losses_of_a_one_point_curve(self):
        curve = curve_of([3.0], [0.4])
        r4 = np.log(0.4 - 0.1) - 0.5 * np.log(0.6) - np.log(0.8) + 0.2 * np.log(3.0)
        assert loss_m4(curve, M4Params(1, 0.1, 0.5, 0.8, -0.2)) == pytest.approx(r4 * r4,
                                                                                  rel=1e-12)
        r3 = np.log(0.4) - np.log(0.5) - 0.3 * np.log(1 / 3 + 0.01)
        assert loss_m3(curve, M3Params(0.5, 0.3, 0.01)) == pytest.approx(r3 * r3, rel=1e-12)


def solve(targets, features):
    factor = factor_design(features)
    projection, resid = solve_loglinear(targets, factor)
    return loglinear_coefficients(projection, factor), resid


@st.composite
def designs(draw):
    """targets and an (n, p) feature matrix, p in {0, 1, 2} and n in p+1..100:
    log x with a random, a nearly collinear or an M4-like log(eps0 - eps)
    second column.  The collinear column leaves the span of 1 and log x at
    an angle of 0.5 to 5 degrees, whatever n, which bounds the design's
    condition number near 1e3: both solvers then agree to 1e-9."""
    p = draw(st.integers(0, 2))
    n = draw(st.integers(p + 1, 100))
    kind = draw(st.sampled_from(["random", "collinear", "m4"])) if p == 2 else "random"
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    logx = rng.uniform(0, draw(st.floats(1, 14)), n)
    if kind == "random":
        second = rng.normal(draw(st.floats(-50, 50)), draw(st.floats(1e-3, 1e3)), n)
    elif kind == "collinear":
        span = np.column_stack([np.ones(n), logx])
        away = rng.normal(size=n)
        away -= span @ np.linalg.lstsq(span, away, rcond=None)[0]
        tilt = np.linalg.norm(logx - logx.mean()) * draw(st.floats(1e-2, 1e-1))
        second = draw(st.floats(-5, 5)) * logx + 2.0 + tilt * away / np.linalg.norm(away)
    else:
        eps0 = 10 ** draw(st.floats(-3, 3))
        second = np.log(eps0 - rng.uniform(0, eps0, n))
    y = rng.normal(draw(st.floats(-10, 10)), draw(st.floats(1e-3, 10)), n)
    return y, np.column_stack([logx, second])[:, :p]


class TestSolveLoglinear:
    """The intercept is implied: solve(y, Z) fits y ~ b0 + Z . b."""

    def test_exactly_determined(self):
        assert np.allclose(solve([2.0, 5.0], [[0.0], [1.0]])[0], [2.0, 3.0])

    def test_matches_grid_search(self):
        rng = np.random.default_rng(3)
        A = np.column_stack([np.ones(5), rng.uniform(-1, 1, 5)])
        y = rng.uniform(-1, 1, 5)
        coef, _ = solve(y, A[:, 1:])
        grid = np.arange(-2, 2, 1e-3)
        best = (np.inf, None, None)
        for a_block in np.array_split(grid, 40):
            # residuals for every (a, b) pair in the block, literally evaluated
            r = y[None, None, :] - a_block[:, None, None] - np.outer(
                grid, A[:, 1])[None, :, :]
            loss = np.mean(r**2, axis=2)
            i, j = np.unravel_index(np.argmin(loss), loss.shape)
            if loss[i, j] < best[0]:
                best = (loss[i, j], a_block[i], grid[j])
        assert abs(coef[0] - best[1]) <= 1e-3 and abs(coef[1] - best[2]) <= 1e-3

    def test_optimality_under_perturbation(self):
        rng = np.random.default_rng(5)
        A = np.column_stack([np.ones(8), rng.uniform(0, 3, 8)])
        y = rng.uniform(-1, 1, 8)
        coef, resid = solve(y, A[:, 1:])
        base = np.mean((y - A @ coef) ** 2)
        assert np.allclose(resid, y - A @ coef, rtol=0, atol=1e-15)
        for i in range(2):
            for sign in (-1, 1):
                other = np.array(coef)
                other[i] += sign * 1e-3
                assert np.mean((y - A @ other) ** 2) >= base

    def test_collinear_rejected(self):
        with pytest.raises(DegenerateDesignError):
            solve([1.0, 2.0, 3.0], [[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])

    @pytest.mark.parametrize("Z", [[[0.3], [0.3], [0.3], [0.3]],  # constant: the intercept
                                   [[1.0, 1.0], [2.0, 2.0], [5.0, 5.0], [9.0, 9.0]]])
    def test_constant_and_duplicated_columns_rejected(self, Z):
        with pytest.raises(DegenerateDesignError, match="degenerate design"):
            factor_design(Z)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_feature_rejected(self, bad):
        Z = np.log(np.arange(1.0, 7.0))[:, None] * [1.0, 2.0] + [0.0, 1.0]
        Z[3, 1] = bad
        with pytest.raises(DegenerateDesignError, match="non-finite"):
            solve(np.arange(6.0), Z)

    def test_underdetermined_rejected(self):
        with pytest.raises(DegenerateDesignError):
            solve([1.0], [[2.0]])

    @given(designs())
    @settings(max_examples=300, deadline=None)
    def test_matches_lstsq_and_residual_is_orthogonal(self, design):
        """One target vector, and each column of a batch of three."""
        y, Z = design
        A = np.column_stack([np.ones(len(y)), Z])
        Y = np.column_stack([y, 3 - 2 * y, y ** 2])
        coefs, resids = solve(Y, Z)
        for target, coef, resid in [(y, *solve(y, Z)),
                                    *zip(Y.T, np.transpose(coefs), resids.T)]:
            ref = np.linalg.lstsq(A, target, rcond=None)[0]
            scale = np.linalg.norm(target)
            assert np.linalg.norm(np.subtract(coef, ref)) <= 1e-9 * np.linalg.norm(ref)
            assert np.linalg.norm(resid - (target - A @ ref)) <= 1e-9 * scale
            assert np.all(np.abs(A.T @ resid) <= 1e-9 * np.linalg.norm(A, axis=0) * scale)

    @given(small_alpha_m4_curves())
    @settings(max_examples=50, deadline=None)
    def test_m4_grid_batch_matches_each_scalar_solve(self, curve):
        """solve(grid) and solve(theta) score one function, also where the
        batch takes some columns from the solve without alpha and keeps the others."""
        eps = curve.eps_array
        problem = fitting._eps_inf_problem(curve, alpha=True)
        grid = problem.hi * EPS_INF_GRID  # the grid fit_m4 scores
        proj, resids, losses = problem.solve(grid)
        coefs = problem.coefficients(proj)
        # alpha changes sign: it is projected to 0 at some points, not all
        assume(0 < np.count_nonzero(np.broadcast_to(coefs[-1], grid.shape)) < len(grid))
        for theta, coef, resid, loss in zip(grid, np.transpose(coefs), resids.T, losses):
            scale = np.linalg.norm(np.log(eps - theta))
            p1, r1, l1 = problem.solve(theta)
            c1 = problem.coefficients(p1)
            assert np.all(np.abs(np.subtract(c1, coef)) <= 1e-12 * scale)
            assert np.linalg.norm(r1 - resid) <= 1e-12 * scale
            assert abs(l1 - loss) <= 1e-12 * scale ** 2 / len(eps)

    @given(small_alpha_m4_curves())
    @settings(max_examples=50, deadline=None)
    def test_projected_m4_solve_is_the_m2_solve(self, curve):
        """Where alpha is projected to 0, M4's residuals and loss are M2's at
        the same eps_inf, in a batch and at one theta."""
        m4 = fitting._eps_inf_problem(curve, alpha=True)
        m2 = fitting._eps_inf_problem(curve, alpha=False)
        grid = m4.hi * EPS_INF_GRID
        proj, resids, losses = m4.solve(grid)
        projected = np.flatnonzero(m4.coefficients(proj)[-1] == 0)
        assume(len(projected) > 0)
        _, resids2, losses2 = m2.solve(grid)
        theta = grid[projected[0]]
        pairs = [(theta, m4.solve(theta)[1:], m2.solve(theta)[1:])] + [
            (grid[i], (resids[:, i], losses[i]), (resids2[:, i], losses2[i])) for i in projected]
        for t, (r4, l4), (r2, l2) in pairs:
            scale = np.linalg.norm(np.log(curve.eps_array - t))
            assert np.linalg.norm(r4 - r2) <= 1e-12 * scale
            assert abs(l4 - l2) <= 1e-12 * scale ** 2 / len(curve)


class TestFitM1:
    def test_exact_power_law(self):
        curve = curve_of([1, 4, 16], [1.0, 0.5, 0.25], eps0=2.0)
        r = fit_m1(curve)
        assert r.params.beta == pytest.approx(1.0, abs=1e-12)
        assert r.params.c == pytest.approx(-0.5, abs=1e-12)
        assert r.converged and r.iterations == 1

    def test_constant_curve(self):
        curve = curve_of([1, 10, 100], [0.3, 0.3, 0.3])
        r = fit_m1(curve)
        assert r.params.beta == pytest.approx(0.3, abs=1e-12)
        assert r.params.c == pytest.approx(0.0, abs=1e-12)

    def test_matches_normal_equations_on_noise(self):
        rng = np.random.default_rng(17)
        p = M4Params(eps0=2, eps_inf=0, alpha=0, beta=0.9, c=-0.35)
        curve = generate_from_model(
            M2Params(0.0, 0.9, -0.35), XS12, noise_sigma=0.05, rng=rng, eps0=3.0
        )
        r = fit_m1(curve)
        A = np.column_stack([np.ones(12), np.log(curve.x_array)])
        y = np.log(curve.eps_array)
        b0, c = np.linalg.solve(A.T @ A, A.T @ y)
        assert abs(np.log(r.params.beta) - b0) < 1e-9
        assert abs(r.params.c - c) < 1e-9

    def test_scale_equivariance(self):
        curve = generate_from_model(M2Params(0.0, 0.9, -0.35), XS12, eps0=3.0)
        k = 3.7
        scaled = curve_of(curve.xs, k * curve.eps_array, eps0=k * curve.eps0)
        r1, r2 = fit_m1(curve), fit_m1(scaled)
        assert r2.params.beta == pytest.approx(k * r1.params.beta, rel=1e-12)
        assert r2.params.c == pytest.approx(r1.params.c, abs=1e-12)

    def test_all_x_equal_impossible(self):
        with pytest.raises(Exception):
            curve_of([2, 2], [0.5, 0.4])  # duplicate x rejected upstream


class TestFitM2:
    def test_noiseless_recovery_vs_grid_oracle(self):
        true = M2Params(eps_inf=0.2, beta=1.0, c=-0.5)
        curve = generate_from_model(true, XS12, eps0=2.0)
        r = fit_m2(curve, FAST)
        oracle = grid_fit_m2(curve)
        for name in ("eps_inf", "beta", "c"):
            assert relerr(getattr(r.params, name), getattr(true, name)) < 1e-3
            assert relerr(getattr(oracle, name), getattr(true, name)) < 1e-2

    def test_pinned_eps_inf_reproduces_m1(self):
        curve = generate_from_model(M2Params(0.1, 1.0, -0.4), XS12, eps0=2.0)
        cfg = FitConfig(learning_rate=0.0, eps_inf_init_fraction=0.0)
        r2 = fit_m2(curve, cfg)
        r1 = fit_m1(curve)
        assert r2.params.eps_inf == 0.0
        assert r2.params.beta == pytest.approx(r1.params.beta, rel=1e-12)
        assert r2.params.c == pytest.approx(r1.params.c, abs=1e-12)

    def test_plateau_eps_inf_in_band(self):
        rng = np.random.default_rng(2)
        curve = generate_from_model(
            M2Params(0.2, 1.0, -0.6), XS12, noise_sigma=0.01, rng=rng, eps0=2.0
        )
        r = fit_m2(curve, FAST)
        assert 0.15 <= r.params.eps_inf <= 0.25
        oracle = grid_fit_m2(curve)
        assert 0.15 <= oracle.eps_inf <= 0.25

    def test_scale_equivariance(self):
        curve = generate_from_model(M2Params(0.15, 0.8, -0.45), XS12, eps0=2.0)
        k = 2.5
        scaled = curve_of(curve.xs, k * curve.eps_array, eps0=k * curve.eps0)
        r1 = fit_m2(curve, FAST)
        r2 = fit_m2(scaled, FAST)
        assert r2.params.eps_inf == pytest.approx(k * r1.params.eps_inf, rel=1e-4)
        assert r2.params.beta == pytest.approx(k * r1.params.beta, rel=1e-4)
        assert r2.params.c == pytest.approx(r1.params.c, rel=1e-4)

    def test_loss_non_increasing_without_backtracking(self):
        rng = np.random.default_rng(9)
        curve = generate_from_model(
            M2Params(0.2, 1.0, -0.5), XS12, noise_sigma=0.02, rng=rng, eps0=2.0
        )
        losses = []
        for iters in range(1, 60, 3):
            cfg = FitConfig(rate_multiplier=1e4, convergence_tol=1e-300,
                            max_outer_iters=iters)
            losses.append(fit_m2(curve, cfg).train_loss)
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_too_few_points(self):
        with pytest.raises(FitError):
            fit_m2(curve_of([1, 2], [0.5, 0.4]))

    @pytest.mark.parametrize("multiplier, iterations", [(1e6, 8), (1e8, 2)])
    def test_plain_descent_that_raised_its_loss_is_not_converged(self, multiplier,
                                                                  iterations):
        # the plain step overshoots to the eps_inf bound and the loss rises to 6.39
        curve = generate_from_model(M2Params(0.2, 1.0, -0.5), np.geomspace(1, 4096, 12),
                                    eps0=10.0)
        r = fit_m2(curve, FitConfig(rate_multiplier=multiplier))
        assert (r.iterations, r.converged) == (iterations, False)
        assert r.train_loss > 6
        r = fit_m2(curve, FitConfig(rate_multiplier=1e8, backtracking=True))
        assert r.converged and r.train_loss < 1e-8


class TestLineSearch:
    def test_forty_rejected_halvings_is_not_converged(self):
        # loss(theta) = theta^2, but dr has the wrong sign, so every step,
        # however often it is halved, moves theta up from 1 and the loss rises
        uphill = _Separable(solve=lambda t: ((0.0,), np.array([t, -t]), t * t),
                            coefficients=lambda p: p, dr=lambda p: np.array([-1.0, 1.0]))
        cfg = FitConfig(learning_rate=1.0, backtracking=True)
        theta, coeffs, loss, iterations, converged = _descend(uphill, 1.0, cfg)
        assert (theta, loss, iterations, converged) == (1.0, 1.0, 1, False)


class TestFitM3:
    def test_gamma_pinned_matches_m1_sign_convention(self):
        curve = generate_from_model(M2Params(0.0, 0.9, -0.35), XS12, eps0=2.0)
        cfg = FitConfig(learning_rate=0.0, gamma_init=0.0)
        r3 = fit_m3(curve, cfg)
        r1 = fit_m1(curve)
        assert r3.params.gamma == 0.0
        assert r3.params.beta == pytest.approx(r1.params.beta, rel=1e-10)
        assert r3.params.c == pytest.approx(-r1.params.c, abs=1e-10)

    def test_noiseless_recovery_vs_grid_oracle(self):
        true = M3Params(beta=0.9, c=0.5, gamma=1e-3)
        curve = generate_from_model(true, XS12, eps0=2.0)
        r = fit_m3(curve, FAST)
        oracle = grid_fit_m3(curve)
        for name in ("beta", "c", "gamma"):
            assert relerr(getattr(r.params, name), getattr(true, name)) < 1e-3
            assert relerr(getattr(oracle, name), getattr(true, name)) < 1e-2

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(21)
        curve = generate_from_model(
            M3Params(0.8, 0.4, 0.01), XS12, noise_sigma=0.02, rng=rng, eps0=2.0
        )
        for _ in range(30):
            p = M3Params(beta=rng.uniform(0.3, 2), c=rng.uniform(0.1, 1),
                         gamma=rng.uniform(1e-4, 0.5))
            h = 1e-6 * max(p.gamma, 1.0)
            fd = (
                loss_m3(curve, M3Params(p.beta, p.c, p.gamma + h))
                - loss_m3(curve, M3Params(p.beta, p.c, p.gamma - h))
            ) / (2 * h)
            assert relerr(dloss_m3_dgamma(curve, p), fd, floor=1e-8) < 1e-5


class TestFitM4:
    def test_noiseless_recovery_vs_grid_oracle(self):
        true = M4Params(eps0=1.0, eps_inf=0.1, alpha=1.0, beta=2.0, c=-0.5)
        curve = generate_from_model(true, XS12)
        r = fit_m4(curve, FAST)
        oracle = grid_fit_m4(curve)
        for name in ("eps_inf", "alpha", "beta", "c"):
            assert relerr(getattr(r.params, name), getattr(true, name)) < 1e-2
            assert relerr(getattr(oracle, name), getattr(true, name)) < 1e-2
        assert r.params.eps0 == 1.0

    def test_reduction_chain_to_m1(self):
        curve = generate_from_model(M2Params(0.0, 1.1, -0.3), XS12, eps0=2.0)
        cfg = FitConfig(learning_rate=0.0, eps_inf_init_fraction=0.0)
        r4 = fit_models(curve, cfg, (ABLATION_NAME,))[ABLATION_NAME]
        r1 = fit_m1(curve)
        assert r4.params.eps_inf == 0.0 and r4.params.alpha == 0.0
        assert r4.params.beta == pytest.approx(r1.params.beta, rel=1e-12)
        assert r4.params.c == pytest.approx(r1.params.c, abs=1e-12)

    def test_alpha_projection_keeps_alpha_nonnegative(self):
        # an exactly power-law curve with tiny noise drives alpha negative
        # in the unconstrained solve about half the time
        rng = np.random.default_rng(4)
        seen_zero = False
        for _ in range(10):
            curve = generate_from_model(
                M2Params(0.0, 0.6, -0.5), XS12, noise_sigma=0.02, rng=rng, eps0=1.0
            )
            r = fit_m4(curve, FAST)
            assert r.params.alpha >= 0.0
            seen_zero = seen_zero or r.params.alpha == 0.0
        assert seen_zero

    def test_gradient_matches_finite_difference(self):
        rng = np.random.default_rng(33)
        curve = generate_from_model(
            M4Params(1.0, 0.15, 0.7, 1.1, -0.45), XS12, noise_sigma=0.02, rng=rng
        )
        min_eps = min(curve.eps)
        for _ in range(30):
            p = M4Params(eps0=1.0, eps_inf=rng.uniform(0.01, 0.9) * min_eps,
                         alpha=rng.uniform(0, 2), beta=rng.uniform(0.3, 2),
                         c=rng.uniform(-1, -0.1))
            h = 1e-7 * min_eps
            fd = (
                loss_m4(curve, M4Params(1.0, p.eps_inf + h, p.alpha, p.beta, p.c))
                - loss_m4(curve, M4Params(1.0, p.eps_inf - h, p.alpha, p.beta, p.c))
            ) / (2 * h)
            assert relerr(dloss_m4_deps_inf(curve, p), fd, floor=1e-8) < 1e-5

    def test_too_few_points(self):
        with pytest.raises(FitError):
            fit_m4(curve_of([1, 2, 4], [0.5, 0.4, 0.3]))
        # but three points suffice with alpha pinned
        fit = fit_models(curve_of([1, 2, 4], [0.5, 0.4, 0.3]),
                         FitConfig(max_outer_iters=5), (ABLATION_NAME,))[ABLATION_NAME]
        assert isinstance(fit, FitResult)


class TestProfileSolve:
    """The default fit (cfg None): a grid over eps_inf or gamma, then a
    bracketed secant on the slope dL/dtheta from the best grid point toward its
    neighbour downhill, reaching the optimum where the lr-1e-7 descent stalls
    and FAST stops at a local minimum.  iterations counts the grid points and
    each scalar solve of the refinement."""

    XS = np.geomspace(1, 4096, 12)

    def test_eps_inf_grid_spans_the_unit_interval(self):
        # in units of hi: 63 linear points, 32 geometric ones in the top interval, then 1
        assert len(EPS_INF_GRID) == 96
        assert (EPS_INF_GRID[0], EPS_INF_GRID[-1]) == (0.0, 1.0)
        assert np.all(np.diff(EPS_INF_GRID) > 0)

    def test_recovers_eps_inf_where_the_recipe_stalls(self):
        # FitConfig() stops here after 2 iterations at its initial 0.10781
        curve = generate_from_model(M2Params(0.2, 1.0, -0.5), self.XS, eps0=10.0)
        r = fit_m2(curve)
        assert relerr(r.params.eps_inf, 0.2) < 1e-9
        assert r.converged

    def test_noisy_m4_reaches_the_oracle_loss(self):
        # FAST stops at eps_inf 0.0381 with loss 3.222e-3
        pts = [[1, 0.149438], [2, 0.133251], [4, 0.117521], [8, 0.0988232],
               [16, 0.0908962], [32, 0.084755], [64, 0.0756065], [128, 0.0713609],
               [256, 0.0702027], [512, 0.0616358], [1024, 0.0604147]]
        curve = curve_of(*zip(*pts))
        oracle = loss_m4(curve, grid_fit_m4(curve))
        assert oracle == pytest.approx(2.774e-3, rel=1e-3)
        assert fit_m4(curve).train_loss == pytest.approx(oracle, rel=1e-9)

    def test_recovers_m4_where_fast_collapses(self):
        # FAST collapses to eps_inf 0, alpha 0 and c -0.109 here
        true = M4Params(1.0, 0.05394, 1.1182, 0.10926, -0.39848)
        fit = fit_m4(generate_from_model(true, self.XS, eps0=1.0)).params
        for name in ("eps_inf", "alpha", "beta", "c"):
            assert relerr(getattr(fit, name), getattr(true, name)) < 1e-8, name

    def test_criterion_3_m4_draws_all_recovered(self):
        # criterion 3's M4 ranges and tolerance; FAST misses 3 of these 200
        rng = np.random.default_rng(1000)
        misses = []
        for _ in range(200):
            true = M4Params(1.0, rng.uniform(0.01, 0.06), rng.uniform(0.2, 1.2),
                            rng.uniform(0.1, 0.3), rng.uniform(-0.45, -0.2))
            fit = fit_m4(generate_from_model(true, self.XS, eps0=1.0)).params
            if any(relerr(getattr(fit, f), getattr(true, f)) >= 1e-2
                   for f in ("eps_inf", "alpha", "beta", "c")):
                misses.append(true)
        assert misses == []

    def test_a_bound_sloping_out_ends_the_search_at_one_solve(self):
        # a power law less a constant: M2's loss rises from eps_inf = 0
        curve = curve_of(self.XS, self.XS ** -0.3 - 0.05, eps0=2.0)
        problem = fitting._eps_inf_problem(curve, alpha=False)
        proj, resid, _ = problem.solve(0.0)
        assert fitting._slope(resid, problem.dr(proj)) > 0
        r = fit_m2(curve)
        assert r.params.eps_inf == 0.0
        assert r.iterations == len(EPS_INF_GRID) + 1

    def test_every_gamma_degenerate_is_degenerate_design(self):
        # log x is one float for all three x, so log(1/x + gamma) is constant too
        curve = curve_of([1e10, 1e10 + 2e-6, 1e10 + 4e-6], [0.5, 0.4, 0.3])
        with pytest.raises(DegenerateDesignError, match="degenerate design .* every grid point"):
            fit_m3(curve)

    def test_iterations_count_the_grid_and_each_solve(self, monkeypatch):
        calls = []  # the thetas of each of the problem's solves
        profile = fitting._profile

        def counted(problem, thetas):
            def solve(t):
                calls.append(t)
                return problem.solve(t)
            return profile(dataclasses.replace(problem, solve=solve), thetas)

        monkeypatch.setattr(fitting, "_profile", counted)
        rng = np.random.default_rng(14)
        m4 = generate_from_model(M4Params(1.0, 0.05, 0.5, 0.3, -0.4), self.XS, 0.02, rng)
        # a true gamma of 1e3 above the grid's top 1e2: the grid is widened once
        m3 = generate_from_model(M3Params(1.0, 0.4, 1e3), np.geomspace(1e-6, 0.1, 12),
                                 0.02, rng, eps0=1e5)
        for fit, curve, grid in ((fit_m2, m4, [len(EPS_INF_GRID)]),
                                 (fit_m4, m4, [len(EPS_INF_GRID)]),
                                 (fit_m3, m4, [len(GAMMA_GRID)]),
                                 (fit_m3, m3, [len(GAMMA_GRID), 50])):
            calls.clear()
            r = fit(curve)
            batches = [np.size(t) for t in calls if np.ndim(t) == 1]
            solves = [t for t in calls if np.ndim(t) == 0]
            assert batches == grid, fit.__name__  # one batch for the grid and each widening
            assert 0 < len(solves) < 60, fit.__name__
            assert r.iterations == sum(grid) + len(solves), fit.__name__

    # each fitter with the fields it fits besides beta and c
    FORMS = ((fit_m1, ()), (fit_m2, ("eps_inf",)), (fit_m3, ("gamma",)),
             (fit_m4, ("eps_inf", "alpha")))

    @pytest.mark.parametrize("k", [3.7, 0.4])
    @pytest.mark.parametrize("scaled", ["x", "eps"])
    def test_scale_equivariance(self, k, scaled):
        """x -> kx keeps c, eps_inf and alpha and scales beta by k^-c, and M3's
        gamma by 1/k and beta by k^c, since 1/kx + gamma/k = (1/x + gamma)/k;
        eps, eps0 -> k eps, k eps0 scales eps_inf by k and beta by k^(1 - alpha),
        and keeps gamma."""
        rng = np.random.default_rng(7)
        xs = np.geomspace(1, 4096, 60)
        for i in range(40):
            true = (M4Params(1.0, rng.uniform(0, 0.1), rng.uniform(0, 1),
                             rng.uniform(0.2, 0.5), rng.uniform(-0.6, -0.2)) if i % 2 else
                    M2Params(rng.uniform(0, 0.1), rng.uniform(0.2, 0.5), rng.uniform(-0.6, -0.2)))
            curve = generate_from_model(true, xs, 0.02, rng, eps0=1.0)
            if scaled == "x":
                other = curve_of(k * curve.x_array, curve.eps)
            else:
                other = curve_of(curve.xs, k * curve.eps_array, eps0=k)
            for fit, fields in self.FORMS:
                p, q = fit(curve).params, fit(other).params
                alpha = getattr(p, "alpha", 0.0)
                gamma = getattr(p, "gamma", 0.0)
                want = {"c": p.c, "alpha": alpha}
                if scaled == "x":
                    power = p.c if fit is fit_m3 else -p.c  # of k in beta
                    want.update(beta=p.beta * k ** power, eps_inf=getattr(p, "eps_inf", 0.0),
                                gamma=gamma / k)
                else:
                    want.update(beta=p.beta * k ** (1 - alpha),
                                eps_inf=k * getattr(p, "eps_inf", 0.0), gamma=gamma)
                # the loss is flat to rounding within about sqrt(machine eps)
                # * min eps of its best eps_inf, and the slope search keeps the
                # lowest loss it scores there; this dominates for an eps_inf
                # near or at its 0 bound
                slack = {"eps_inf": 1e-7 * min(other.eps)}
                for name in ("c", "beta", *fields):
                    got = getattr(q, name)
                    assert abs(got - want[name]) <= 1e-5 * abs(want[name]) + slack.get(name, 0.0), \
                        (i, fit.__name__, name)

    @staticmethod
    def _loss(curve, p):
        """The square-log loss of oracle params, computed apart from loss_*."""
        x, eps = curve.x_array, curve.eps_array
        if isinstance(p, M3Params):
            r = np.log(eps) - np.log(p.beta) - p.c * np.log(1 / x + p.gamma)
        else:
            r = (np.log(eps - p.eps_inf) - getattr(p, "alpha", 0.0) * np.log(curve.eps0 - eps)
                 - np.log(p.beta) - p.c * np.log(x))
        return float(np.mean(r * r))

    @staticmethod
    def _m3_oracle(curve):
        """grid_fit_m3 on its own gammas and 300 more per decade from 10 up to
        100 / min x, past top_gamma_m3_curves' truths.  Not to a fixed top: at
        gamma 1e8 and x >= 1, log(1/x + gamma) is constant to rounding, and the
        oracle's singular normal equations would skip the M3 check."""
        decades = np.log10(10 / curve.x_array.min())
        extra = np.geomspace(10.0, 100 / curve.x_array.min(), max(int(300 * decades), 1))
        return grid_fit_m3(curve, np.concatenate([[0.0], np.geomspace(1e-8, 10.0, 4000),
                                                  extra[1:]]))

    @given(st.one_of(curves(), small_alpha_m4_curves(), top_gamma_m3_curves()))
    # M2's and M4's best eps_inf within 1/64 of min eps, in a basin narrower
    # than the linear grid's spacing
    @example(curve_of((2.3050503407460945, 3.0981862824805235, 44.65483660538728,
                       3745.9286594760715), (1.6927959533944437, 1.2556652002137543,
                                             0.7990652179844702, 0.7309125304521047),
                      eps0=1.9746612355558992))
    @example(curve_of((1.0, 82491.94191178266, 842155.2977604007),
                      (336.08646990579194, 385.9551220560279, 480.43231887485507),
                      eps0=488.2115483547983))
    # M3's beta is in float range only for gamma in [0.9955, 1.0038], between
    # two points of GAMMA_GRID at which it is not: found by bisection
    @example(curve_of((225.96084270931334, 1563.6780979536404, 39828.69482315641,
                       79657.38964631282), (5e-324, 408.2554120362853, 772.1281394584614,
                                            169.4768162884457), eps0=867.5571162221886))
    # the same, for gamma in [0.9858, 1.0001], while a worse window around
    # gamma = 1e-4 holds grid points
    @example(curve_of((148.4131591025766, 403.4287934927351, 8103.083927575384),
                      (1.0, 8.12957854982671e-264, 1.0525455753224298e-273), eps0=2.0))
    # M4's best eps_inf, near 6.211, is where beta underflows: between grid
    # points 6.13 (alpha 0) and 6.23 (beta 0), the loss falling toward the edge
    @example(curve_of((1e-06, 6.8129206905796085e-06, 4.641588833612782e-05,
                       0.00031622776601683794, 0.0021544346900318843, 0.014677992676220705, 0.1),
                      (30.433174563019524, 21.13837483574513, 12.191298767002548,
                       8.285126677218132, 7.1232068078227115, 6.515200382281286,
                       6.441041282835172), eps0=100000.0))
    # 25 from each strategy on average
    @settings(max_examples=75, deadline=None)
    def test_no_higher_loss_than_the_grid_oracles(self, curve):
        for fit, oracle, points in ((fit_m2, grid_fit_m2, 3), (fit_m3, self._m3_oracle, 3),
                                    (fit_m4, grid_fit_m4, 4)):
            best = oracle(curve) if len(curve) >= points else None
            if best is None:  # too few points, or no grid point could be scored
                continue
            oracle_loss = self._loss(curve, best)
            # plus the rounding of log eps, for curves that both fit to rounding
            floor = (8 * np.spacing(np.abs(np.log(curve.eps_array)).max())) ** 2
            assert fit(curve).train_loss <= oracle_loss * (1 + 1e-9) + floor, fit.__name__


class TestGradientDrivesFit:
    """One outer iteration without backtracking moves theta by -rate times
    the public gradient at the params solved at theta0 (a pinned fit); the
    tolerance covers only beta's round trip through exp and log."""

    def test_m2_step_uses_dloss_m4_deps_inf(self):
        rng = np.random.default_rng(9)
        curve = generate_from_model(
            M2Params(0.2, 1.0, -0.5), XS12, noise_sigma=0.02, rng=rng, eps0=2.0
        )
        p0 = fit_m2(curve, FitConfig(learning_rate=0.0)).params
        grad = dloss_m4_deps_inf(curve, M4Params(curve.eps0, p0.eps_inf, 0.0, p0.beta, p0.c))
        cfg = FitConfig(rate_multiplier=1e5, max_outer_iters=1)
        hi = (1.0 - EPS_INF_MARGIN) * min(curve.eps)
        expect = min(max(p0.eps_inf - cfg.effective_rate * grad, 0.0), hi)
        assert expect != p0.eps_inf
        assert fit_m2(curve, cfg).params.eps_inf == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("gamma0", [0.001, 0.02])
    def test_m3_step_uses_dloss_m3_dgamma(self, gamma0):
        rng = np.random.default_rng(9)
        curve = generate_from_model(
            M3Params(0.8, 0.4, 0.01), XS12, noise_sigma=0.02, rng=rng, eps0=2.0
        )
        p0 = fit_m3(curve, FitConfig(learning_rate=0.0, gamma_init=gamma0)).params
        grad = dloss_m3_dgamma(curve, p0)
        cfg = FitConfig(rate_multiplier=1e4, max_outer_iters=1, gamma_init=gamma0)
        expect = max(gamma0 - cfg.effective_rate * grad, 0.0)
        assert expect != gamma0
        assert fit_m3(curve, cfg).params.gamma == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("model", ["M2", "M4", "M3"])
    def test_step_gradient_is_the_public_gradient(self, model):
        """The slope that the descent and the default fit take from a
        projection, 2/n r . dr(projection), is dloss_m4_deps_inf or
        dloss_m3_dgamma at the coefficients solved at theta: for M4 at thetas
        where alpha is projected to 0 and where it is not."""
        curve = generate_from_model(M4Params(1.0, 0.05, 0.02, 0.4, -0.4), XS12, 0.02,
                                    np.random.default_rng(0))
        if model == "M3":
            problem = fitting._gamma_problem(curve)
            thetas = [0.0, 1e-3, 0.1]
        else:
            problem = fitting._eps_inf_problem(curve, alpha=model == "M4")
            thetas = problem.hi * np.array([0.1, 0.5, 0.7, 0.9])
        alphas = []
        for theta in thetas:
            proj, r, _ = problem.solve(theta)
            step_grad = fitting._slope(r, problem.dr(proj))
            b0, c, *rest = problem.coefficients(proj)
            if model == "M3":
                public = dloss_m3_dgamma(curve, M3Params(np.exp(b0), c, theta))
            else:
                alphas.append(alpha := rest[0] if rest else 0.0)
                public = dloss_m4_deps_inf(curve, M4Params(curve.eps0, theta, alpha,
                                                           np.exp(b0), c))
            assert step_grad == pytest.approx(public, rel=1e-12)
        if model == "M4":
            assert 0 < np.count_nonzero(alphas) < len(alphas)


class TestPinnedIterates:
    """(iterations, converged) of fit_m2, fit_m3 and fit_m4 on two train
    splits of the benchmark's fit-recipe tasks (seed 0, noise 0.01, eps0 10),
    under the paper's recipe and FAST.  The values were recorded with the
    previous solver, one lstsq per step: a change to the solve that moves a
    single iterate shows here."""

    TASK_XS = 2.0 ** (np.arange(97) / 8.0)
    SHAPES = {
        "M2-4": (5, M2Params(eps_inf=0.029193895350950988, beta=1.9277774679110384,
                             c=-0.36321282456253456)),
        "M4-9": (27, M4Params(eps0=10.0, eps_inf=0.06083781197928617,
                              alpha=0.916724986851174, beta=0.43833730046155606,
                              c=-0.44084407833158046)),
    }
    PINNED = {
        ("M2-4", "recipe"): [(2, True), (1343, True), (2, True)],
        ("M2-4", "FAST"): [(99, True), (8, True), (154, True)],
        ("M4-9", "recipe"): [(2, True), (1148, True), (2, True)],
        ("M4-9", "FAST"): [(158, True), (20, True), (303, True)],
    }

    @pytest.mark.parametrize("shape, cfg_name", PINNED)
    def test_iterations_and_convergence(self, shape, cfg_name):
        k, params = self.SHAPES[shape]
        curve = generate_from_model(params, self.TASK_XS, 0.01,
                                    np.random.default_rng([0, k, 0]), eps0=10.0)
        train = split_for_extrapolation(curve).train
        cfg = FitConfig() if cfg_name == "recipe" else FAST
        fits = [fit(train, cfg) for fit in (fit_m2, fit_m3, fit_m4)]
        assert [(r.iterations, r.converged) for r in fits] == self.PINNED[shape, cfg_name]


class TestNonFiniteFits:
    """A fit gives finite parameters or raises FitError, without a numpy
    error or warning on the way."""

    CURVE = curve_of([1, 10, 100, 1000], [0.1, 0.2, 0.3, 0.5])

    def test_overflowing_beta_is_fit_error(self):
        # gamma runs to about 3e5 and log beta past the largest float's log
        with pytest.raises(FitError, match="non-finite parameter"):
            fit_m3(self.CURVE, FitConfig(rate_multiplier=1e12, max_outer_iters=50))

    def test_overflowing_gradient_is_floating_point_error(self):
        # dL/deps_inf holds 1/(eps - eps_inf), past the largest float here
        curve = curve_of([1, 2, 4], [0.5, 0.5, 5e-324])
        with pytest.raises(FloatingPointError, match="overflow"):
            fit_m2(curve, FitConfig())

    def test_underflowing_beta_is_fit_error(self):
        # exact fit with alpha 753.7 and log beta -15,620, whose exp is 0
        xs = np.geomspace(1, 4096, 12)
        curve = curve_of(xs, 0.3 * xs ** -0.4 + 0.05, eps0=1e9)
        assert fit_models(curve, FAST, ("M4",)) == {"M4": "fitted beta underflows to 0"}

    @given(curves())
    @example(LearningCurve((1, 2, 4), (0.5, 0.5, 5e-324), 1.0))  # 1/eps overflows
    @settings(max_examples=40, deadline=None)
    def test_fast_fits_are_finite_or_diagnosed(self, curve):
        for name, fit in fit_models(curve, FAST, ALL_MODEL_NAMES).items():
            if not isinstance(fit, str):
                assert np.all(np.isfinite(dataclasses.astuple(fit.params))), name
                assert np.isfinite(fit.train_loss), name

    def test_non_finite_step_is_fit_error(self):
        cfg = FitConfig(learning_rate=1e200, rate_multiplier=1e200)
        assert cfg.effective_rate == float("inf")
        with pytest.raises(FitError, match="non-finite step"):
            fit_m3(self.CURVE, cfg)

    @pytest.mark.parametrize("cfg", [None, FitConfig()], ids=["profile", "descent"])
    def test_subnormal_x_is_a_non_finite_design(self, cfg):
        # 1/x overflows for x = 5e-324, which the loader accepts
        curve = curve_of([5e-324, 1.0, 2.0, 4.0], [0.5, 0.4, 0.3, 0.2])
        with pytest.raises(DegenerateDesignError, match="non-finite design feature"):
            fit_m3(curve, cfg)
        assert fit_models(curve, cfg, ("M3",)) == {"M3": "non-finite design feature"}

    def test_subnormal_min_eps_in_the_default_fit(self):
        # (1 - EPS_INF_MARGIN) * 5e-324 rounds to 5e-324: eps_inf must stay below it
        curve = curve_of([1, 2, 4, 8], [0.5, 0.3, 5e-324, 0.1])
        for fit in (fit_m1, fit_m2, fit_m3, fit_m4):
            try:
                r = fit(curve)
            except FitError:
                continue
            assert np.all(np.isfinite(dataclasses.astuple(r.params))), fit.__name__
            assert np.isfinite(r.train_loss), fit.__name__
        assert fit_m2(curve).params.eps_inf == 0.0

    @pytest.mark.parametrize("curve, cfg", [
        # log x is one float for all three x, so log(1/x) is constant at gamma 0
        (curve_of([1e10, 1e10 + 2e-6, 1e10 + 4e-6], [0.5, 0.4, 0.3]), FitConfig()),
        # a rising curve: the first step takes gamma to about 1e200, where
        # log(1/x + gamma) is constant to rounding
        (curve_of([1, 2, 4, 8], [0.2, 0.3, 0.35, 0.5]),
         FitConfig(learning_rate=1e100, rate_multiplier=1e100)),
        (curve_of([1, 2, 4, 8], [0.2, 0.3, 0.35, 0.5]),
         FitConfig(learning_rate=1e100, rate_multiplier=1e100, backtracking=True)),
    ], ids=["start", "step", "backtracking-step"])
    def test_degenerate_m3_descent_is_degenerate_design(self, curve, cfg):
        with pytest.raises(DegenerateDesignError, match="degenerate design matrix"):
            fit_m3(curve, cfg)

    def test_loss_m4_skips_the_gradient_that_overflows(self):
        # 1/(eps - eps_inf) overflows at the last point; the residual does not
        curve = curve_of([1, 2, 4, 8], [0.5, 0.4, 0.3, 1.1125369292536007e-308])
        p = M4Params(1.0, 1e-308, 0.0, 0.5, -0.3)
        assert np.isfinite(loss_m4(curve, p))
        with pytest.raises(FloatingPointError, match="overflow"), \
                np.errstate(over="raise"):
            dloss_m4_deps_inf(curve, p)


class TestGridCaches:
    """The x-only designs cached per x grid, M1's and M2's factor of log x and
    M3's design on GAMMA_GRID, fit every curve as the empty caches do."""

    XS = XS12
    OTHER_XS = tuple(np.geomspace(2, 3000, 12))  # another grid of the same length

    @staticmethod
    def noisy(xs, seed):
        return generate_from_model(M4Params(1.0, 0.05, 0.3, 0.4, -0.4), xs, 0.02,
                                   np.random.default_rng(seed))

    @staticmethod
    def fit(curve):
        return repr(fit_models(curve, None, ALL_MODEL_NAMES))

    @staticmethod
    def clear():
        fitting._log_x_factor.cache_clear()
        fitting._gamma_grid_design.cache_clear()

    def cold(self, curve):
        self.clear()
        return self.fit(curve)

    def test_a_curve_fits_after_another_on_its_grid_as_when_cold(self):
        c1, c2 = self.noisy(self.XS, 1), self.noisy(self.XS, 2)
        cold = self.cold(c2)
        self.cold(c1)
        hits = fitting._log_x_factor.cache_info().hits, fitting._gamma_grid_design.cache_info().hits
        assert self.fit(c2) == cold
        # M1 and M2 each took log x's factor from the cache, and M3 its grid design
        assert fitting._log_x_factor.cache_info().hits == hits[0] + 2
        assert fitting._gamma_grid_design.cache_info().hits == hits[1] + 1

    def test_the_key_is_the_grid_not_its_length(self):
        a, b = self.noisy(self.XS, 3), self.noisy(self.OTHER_XS, 4)
        cold = [self.cold(a), self.cold(b)]
        self.clear()
        for _ in range(2):
            assert [self.fit(a), self.fit(b)] == cold
        assert fitting._gamma_grid_design.cache_info().currsize == 2

    def test_cached_arrays_are_read_only(self):
        self.fit(self.noisy(self.XS, 5))
        Q, R = fitting._log_x_factor(self.XS)
        assert isinstance(R, tuple) and all(isinstance(row, tuple) for row in R)
        for a in (Q, *fitting._gamma_grid_design(self.XS)):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = 0.0

    def test_a_warm_cache_still_rejects_a_subnormal_x(self):
        self.fit(self.noisy(self.XS, 6))
        self.fit(curve_of([1.0, 2.0, 4.0, 8.0], [0.5, 0.4, 0.3, 0.2]))
        cached = fitting._gamma_grid_design.cache_info().currsize
        # 1/x overflows for x = 5e-324; a warning would fail the test
        curve = curve_of([5e-324, 1.0, 2.0, 4.0], [0.5, 0.4, 0.3, 0.2])
        for _ in range(2):
            with pytest.raises(DegenerateDesignError, match="non-finite design feature"):
                fit_m3(curve)
        assert fitting._gamma_grid_design.cache_info().currsize == cached


class TestFitConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            FitConfig(learning_rate=-1)
        with pytest.raises(ValueError):
            FitConfig(eps_inf_init_fraction=1.0)
        with pytest.raises(ValueError):
            FitConfig(convergence_tol=0.0)
        with pytest.raises(ValueError, match="max_outer_iters"):
            FitConfig(max_outer_iters=0)
        with pytest.raises(ValueError, match="gamma_init"):
            FitConfig(gamma_init=-1)
        for field in ("learning_rate", "rate_multiplier", "convergence_tol"):
            for value in (float("nan"), float("inf")):
                with pytest.raises(ValueError):
                    FitConfig(**{field: value})
