import numpy as np
import pytest

from oracles import grid_fit_m2, grid_fit_m3, grid_fit_m4, relerr
from scalefit.curve import LearningCurve
from scalefit.evaluation import ABLATION_NAME, fit_models
from scalefit.fitting import (
    EPS_INF_MARGIN,
    DegenerateDesignError,
    FitConfig,
    FitError,
    FitResult,
    dloss_m3_dgamma,
    dloss_m4_deps_inf,
    fit_m1,
    fit_m2,
    fit_m3,
    fit_m4,
    loss_m3,
    loss_m4,
    solve_loglinear,
)
from scalefit.models import M2Params, M3Params, M4Params
from scalefit.synthetic import generate_from_model

XS12 = tuple(np.geomspace(1, 2048, 12))

# aggressive but monotone settings for noiseless recovery tests
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


class TestSolveLoglinear:
    def test_exactly_determined(self):
        A = [[1.0, 0.0], [1.0, 1.0]]
        y = [2.0, 5.0]
        assert np.allclose(solve_loglinear(y, A), [2.0, 3.0])

    def test_matches_grid_search(self):
        rng = np.random.default_rng(3)
        A = np.column_stack([np.ones(5), rng.uniform(-1, 1, 5)])
        y = rng.uniform(-1, 1, 5)
        coef = solve_loglinear(y, A)
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
        coef = solve_loglinear(y, A)
        base = np.mean((y - A @ coef) ** 2)
        for i in range(2):
            for sign in (-1, 1):
                other = np.array(coef)
                other[i] += sign * 1e-3
                assert np.mean((y - A @ other) ** 2) >= base

    def test_collinear_rejected(self):
        A = [[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]]
        with pytest.raises(DegenerateDesignError):
            solve_loglinear([1.0, 2.0, 3.0], A)

    def test_underdetermined_rejected(self):
        with pytest.raises(DegenerateDesignError):
            solve_loglinear([1.0], [[1.0, 2.0]])


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

    def test_non_finite_step_is_fit_error(self):
        cfg = FitConfig(learning_rate=1e200, rate_multiplier=1e200)
        assert cfg.effective_rate == float("inf")
        with pytest.raises(FitError, match="non-finite step"):
            fit_m3(self.CURVE, cfg)


class TestFitConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            FitConfig(learning_rate=-1)
        with pytest.raises(ValueError):
            FitConfig(eps_inf_init_fraction=1.0)
        with pytest.raises(ValueError):
            FitConfig(convergence_tol=0.0)
        for field in ("learning_rate", "rate_multiplier", "convergence_tol"):
            for value in (float("nan"), float("inf")):
                with pytest.raises(ValueError):
                    FitConfig(**{field: value})
