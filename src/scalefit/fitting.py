"""Square-log losses and their fitters, on one separable least-squares core.

Every model is y(theta) ~ A(theta) . b in log space, with the coefficients
b solved exactly by least squares and theta one scalar in [0, hi]:

    M1  log eps            ~ (1, log x) . (log beta, c)             no theta
    M2  log(eps - eps_inf) ~ (1, log x) . (log beta, c)             eps_inf
    M4  log(eps - eps_inf) ~ (log(eps0 - eps), 1, log x) . (alpha, log beta, c)
    M3  log eps            ~ (1, log(1/x + gamma)) . (log beta, c)  gamma

M2 is M4 without the alpha column and M1 is M2 at eps_inf = 0; a negative
alpha is projected to 0.  Each outer iteration solves b, then takes one
clamped gradient step on theta, 1e-7 by default (variable projection, Golub
& Pereyra 1973), until the loss decrease falls below convergence_tol or
max_outer_iters is reached.  loss_* and dloss_* evaluate the same residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .curve import LearningCurve
from .models import M1Params, M2Params, M3Params, M4Params

EPS_INF_MARGIN = 1e-6  # eps_inf is clamped to [0, (1 - EPS_INF_MARGIN) * min eps]


class FitError(RuntimeError):
    """A fit could not be carried out on the given curve."""


class DegenerateDesignError(FitError):
    """The least-squares design matrix is rank deficient."""


@dataclass(frozen=True)
class FitConfig:
    """Optimizer hyperparameters shared by all coordinate-descent fitters.

    learning_rate is in raw parameter units; rate_multiplier scales it
    uniformly (useful when a curve's scale makes 1e-7 impractically slow).
    A zero effective rate pins the gradient-descent parameter at its
    initialization.  backtracking halves a rejected gradient step until the
    loss is non-increasing; off by default to match the plain recipe.
    """

    learning_rate: float = 1e-7
    rate_multiplier: float = 1.0
    max_outer_iters: int = 100_000
    convergence_tol: float = 1e-8
    eps_inf_init_fraction: float = 0.5
    gamma_init: float = 0.0
    backtracking: bool = False

    def __post_init__(self):
        if not (0 <= self.learning_rate < math.inf and 0 <= self.rate_multiplier < math.inf):
            raise ValueError("learning rate terms must be finite and nonnegative")
        if self.max_outer_iters < 1:
            raise ValueError("max_outer_iters must be positive")
        if not 0 < self.convergence_tol < math.inf:
            raise ValueError("convergence_tol must be positive and finite")
        if not 0 <= self.eps_inf_init_fraction < 1:
            raise ValueError("eps_inf_init_fraction must be in [0, 1)")
        if self.gamma_init < 0:
            raise ValueError("gamma_init must be nonnegative")

    @property
    def effective_rate(self) -> float:
        return self.learning_rate * self.rate_multiplier


@dataclass(frozen=True)
class FitResult:
    params: object
    train_loss: float
    iterations: int
    converged: bool


def solve_loglinear(targets, features):
    """Least-squares coefficients for targets ~ features.

    features is an (n, k) matrix with n >= k.  Raises
    DegenerateDesignError on rank deficiency (e.g. all x equal).
    """
    A = np.asarray(features, dtype=float)
    y = np.asarray(targets, dtype=float)
    if A.ndim != 2 or A.shape[0] < A.shape[1]:
        raise DegenerateDesignError("fewer rows than coefficients")
    coeffs, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
    if rank < A.shape[1]:
        raise DegenerateDesignError("degenerate design matrix")
    return coeffs


@dataclass(frozen=True)
class _Separable:
    """One model as y(theta) ~ A(theta) . b, theta in [0, hi]; dr(theta, b)
    is d(y - A . b)/dtheta at fixed b.  reduced is A without its alpha
    column, for the re-solve when alpha < 0; a view of A would change the
    solve in the last bit."""

    target: Callable
    design: Callable
    dr: Callable
    hi: float = np.inf
    reduced: np.ndarray | None = None

    def solve(self, theta):
        """Least-squares coefficients at theta, with residuals and loss."""
        y, A = self.target(theta), self.design(theta)
        b = solve_loglinear(y, A)
        if self.reduced is not None and b[0] < 0:
            b_reduced = solve_loglinear(y, self.reduced)
            r = y - self.reduced @ b_reduced
            b = np.concatenate(([0.0], b_reduced))
        else:
            r = y - A @ b
        return b, r, float(np.mean(r**2))

    def grad(self, theta, b, r):
        return float(np.mean(2.0 * r * self.dr(theta, b)))


def _eps_inf_problem(curve, eps0, alpha, hi=np.inf) -> _Separable:
    """M4 (alpha=True) or M2 (alpha=False); theta = eps_inf."""
    eps = curve.eps_array
    logx = np.log(curve.x_array)
    base = np.column_stack([np.ones_like(logx), logx])
    A = np.column_stack([np.log(eps0 - eps), base]) if alpha else base
    return _Separable(target=lambda e: np.log(eps - e), design=lambda e: A,
                      dr=lambda e, b: -1.0 / (eps - e), hi=hi,
                      reduced=base if alpha else None)


def _gamma_problem(curve) -> _Separable:
    """M3; theta = gamma."""
    inv_x = 1.0 / curve.x_array
    y = np.log(curve.eps_array)
    return _Separable(
        target=lambda g: y,
        design=lambda g: np.column_stack([np.ones_like(inv_x), np.log(inv_x + g)]),
        dr=lambda g, b: -b[1] / (inv_x + g))


def _loss_and_grad(curve, p):
    """(loss, dL/dtheta) at M3 (theta = gamma) or M4 (eps_inf) params."""
    if isinstance(p, M3Params):
        problem, theta, b = _gamma_problem(curve), p.gamma, (np.log(p.beta), p.c)
    elif np.any(curve.eps_array <= p.eps_inf):
        raise FitError("eps_inf exceeds observed loss")
    else:
        problem = _eps_inf_problem(curve, p.eps0, alpha=True)
        theta, b = p.eps_inf, (p.alpha, np.log(p.beta), p.c)
    r = problem.target(theta) - problem.design(theta) @ b
    return float(np.mean(r**2)), problem.grad(theta, b, r)


def loss_m4(curve: LearningCurve, p: M4Params) -> float:
    """Mean squared residual of the M4 square-log loss.

    residual_i = log(eps_i - eps_inf) - alpha*log(eps0 - eps_i)
                 - log(beta) - c*log(x_i)
    """
    return _loss_and_grad(curve, p)[0]


def loss_m3(curve: LearningCurve, p: M3Params) -> float:
    """Mean of (log eps - log beta - c*log(1/x + gamma))^2."""
    return _loss_and_grad(curve, p)[0]


def dloss_m4_deps_inf(curve: LearningCurve, p: M4Params) -> float:
    """Analytic partial derivative of loss_m4 with respect to eps_inf.

    dL/deps_inf = mean(-2 r_i / (eps_i - eps_inf)) with the other
    parameters held fixed; this is the gradient used by fit_m2 and fit_m4.
    """
    return _loss_and_grad(curve, p)[1]


def dloss_m3_dgamma(curve: LearningCurve, p: M3Params) -> float:
    """Analytic partial derivative of loss_m3 with respect to gamma,
    dL/dgamma = mean(-2 r_i c / (1/x_i + gamma)); the gradient used by fit_m3."""
    return _loss_and_grad(curve, p)[1]


def _require_points(curve, n, model):
    if len(curve) < n:
        raise FitError(f"{model} needs at least {n} points, got {len(curve)}")


@np.errstate(over="raise", divide="raise", invalid="raise")  # 1/(eps - eps_inf) can overflow
def _descend(problem: _Separable, init, cfg):
    """Outer loop: exact least-squares coefficients, then one gradient step
    on theta, clamped to [0, problem.hi].  A non-finite step raises FitError,
    a numpy overflow, division by zero or invalid value FloatingPointError.

    Returns (theta, coeffs, loss, iterations, converged).
    """
    theta = min(max(init, 0.0), problem.hi)
    rate = cfg.effective_rate
    prev_loss = np.inf
    coeffs, resid, loss = problem.solve(theta)
    for k in range(1, cfg.max_outer_iters + 1):
        if not np.isfinite(loss):
            raise FitError("non-finite loss during coordinate descent")
        if prev_loss - loss < cfg.convergence_tol:  # a rise stops too, unconverged
            return theta, coeffs, loss, k, loss <= prev_loss
        prev_loss = loss
        step = rate * problem.grad(theta, coeffs, resid)
        for _ in range(40 if cfg.backtracking else 1):
            candidate = min(max(theta - step, 0.0), problem.hi)
            if not math.isfinite(candidate):
                raise FitError("non-finite step during coordinate descent")
            c2, r2, l2 = problem.solve(candidate)
            if l2 <= loss or not cfg.backtracking:
                break
            step *= 0.5
        else:
            return theta, coeffs, loss, k, True
        theta, coeffs, resid, loss = candidate, c2, r2, l2
    return theta, coeffs, loss, cfg.max_outer_iters, False


def _finite(b0, *rest):
    """(exp(b0), *rest) as floats; FitError, not an overflow, when one would
    not be finite."""
    if not (b0 < np.log(np.finfo(float).max) and np.all(np.isfinite(rest))):
        raise FitError("fit produced a non-finite parameter")
    return float(np.exp(b0)), *map(float, rest)


def fit_m1(curve: LearningCurve) -> FitResult:
    """Closed-form least squares of log eps on (1, log x)."""
    _require_points(curve, 2, "M1")
    (b0, c), _, loss = _eps_inf_problem(curve, curve.eps0, alpha=False).solve(0.0)
    return FitResult(M1Params(*_finite(b0, c)), loss, 1, True)


def _fit_eps_inf(curve, cfg, alpha):
    """M4, or M2 when alpha is False: ((beta, c, eps_inf, alpha), loss,
    iterations, converged)."""
    eps_min = float(curve.eps_array.min())
    problem = _eps_inf_problem(curve, curve.eps0, alpha,
                               hi=(1.0 - EPS_INF_MARGIN) * eps_min)
    e_inf, b, *rest = _descend(problem, cfg.eps_inf_init_fraction * eps_min, cfg)
    a, b0, c = b if alpha else (0.0, *b)
    return _finite(b0, c, e_inf, a), *rest


def fit_m2(curve: LearningCurve, cfg: FitConfig = FitConfig()) -> FitResult:
    """Fit eps = eps_inf + beta * x^c: fit_m4 without the alpha column, so
    also the no-alpha ablation, which evaluation.fit_models reports from it."""
    _require_points(curve, 3, "M2")
    (beta, c, e_inf, _), *rest = _fit_eps_inf(curve, cfg, alpha=False)
    return FitResult(M2Params(eps_inf=e_inf, beta=beta, c=c), *rest)


def fit_m3(curve: LearningCurve, cfg: FitConfig = FitConfig()) -> FitResult:
    """Fit eps = beta * (1/x + gamma)^c.

    Given gamma, (log beta, c) is the least-squares fit of log eps on
    (1, log(1/x + gamma)); gamma then takes a gradient step with
    dL/dgamma = mean(-2 r_i * c / (1/x_i + gamma)), clamped to gamma >= 0.
    """
    _require_points(curve, 3, "M3")
    gamma, (b0, c), loss, iters, conv = _descend(_gamma_problem(curve), cfg.gamma_init, cfg)
    return FitResult(M3Params(*_finite(b0, c, gamma)), loss, iters, conv)


def fit_m4(curve: LearningCurve, cfg: FitConfig = FitConfig()) -> FitResult:
    """Fit (eps - eps_inf)/(eps0 - eps)^alpha = beta x^c.

    eps0 is fixed to curve.eps0.  Given eps_inf, (alpha, log beta, c) is the
    least-squares fit of log(eps - eps_inf) on (log(eps0 - eps), 1, log x);
    a negative alpha is projected to zero by re-solving with the alpha
    feature dropped.  eps_inf then takes a gradient step with
    dL/deps_inf = mean(-2 r_i / (eps_i - eps_inf)) and is clamped to
    [0, (1 - EPS_INF_MARGIN) * min eps].  The no-alpha ablation is not fit
    here: with alpha = 0 this is fit_m2, whose fit evaluation.fit_models reports.
    """
    _require_points(curve, 4, "M4")
    (beta, c, e_inf, alpha), *rest = _fit_eps_inf(curve, cfg, alpha=True)
    return FitResult(M4Params(eps0=float(curve.eps0), eps_inf=e_inf, alpha=alpha,
                              beta=beta, c=c), *rest)
