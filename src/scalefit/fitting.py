"""Square-log losses and their fitters, on one separable least-squares core.

Every model is y(theta) ~ log beta + Z(theta) . b in log space, with the
coefficients solved exactly by least squares and theta one scalar in [0, hi]:

    M1  log eps            ~ log beta + (log x) . c                         no theta
    M2  log(eps - eps_inf) ~ log beta + (log x) . c                         eps_inf
    M4  log(eps - eps_inf) ~ log beta + (log x, log(eps0 - eps)) . (c, alpha) eps_inf
    M3  log eps            ~ log beta + log(1/x + gamma) . c                gamma

M2 is M4 without the alpha column and M1 is M2 at eps_inf = 0; a negative
alpha is projected to 0.  The loss is then a function of theta alone
(variable projection, Golub & Pereyra 1973), and each model has one solve,
at one theta or an array of them, which the grid, the slope search and the
descent all call: M1, M2 and M4 on one Householder QR of their design
(factor_design), M3 in closed form, for the projection, residual and loss,
from which the slope dL/dtheta is one dot product (Kaufman 1975).  By default
(cfg None) theta is searched exactly (_profile): on a fixed grid, then by a
bracketed secant on the slope from the best point toward its neighbour
downhill, each point also solving the coefficients for log beta's range
check.  A FitConfig selects the paper's recipe: one clamped gradient step on
theta per outer iteration, from the residual, 1e-7 by default, until the loss
decrease falls below convergence_tol or max_outer_iters is reached; the
coefficients are solved once, at the last theta.  loss_* and dloss_* use the
residual at given params.  The work on x alone is done once per x grid (curve.xs), for
the last 4, read-only: log x's factor (M1, M2), and M3's u and Z on GAMMA_GRID (n x 201).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .curve import LearningCurve
from .models import M1Params, M2Params, M3Params, M4Params

EPS_INF_MARGIN = 1e-6  # eps_inf is clamped to [0, (1 - EPS_INF_MARGIN) * min eps]
# eps_inf / hi: 63 linear points, 32 geometric ones toward 1 (where basins narrow), 1
EPS_INF_GRID = np.concatenate([np.linspace(0.0, 1.0, 64)[:-1],
                               1 - np.geomspace(1 / 64, EPS_INF_MARGIN, 32), [1.0]])
GAMMA_GRID = np.concatenate([[0.0], np.geomspace(1e-8, 1e2, 200)])
THETA_TOL = 1e-9  # theta's bracket ends 2 * THETA_TOL * (|theta| + first width / 100) wide
LOG_BETA_MAX = np.log(np.finfo(float).max)  # exp(log beta) overflows from here


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


def factor_design(features):
    """Factor the design [1, Z] of an (n, p) feature matrix Z once, for each
    solve_loglinear on it: the Householder QR (LAPACK) of the ones column (the
    implied intercept) and Z's columns, giving (Q, R) with [1, Z] = Q.T R, Q's
    p + 1 rows orthonormal and R upper triangular (a list of floats, cheap to
    index).  Raises DegenerateDesignError on a NaN or infinite feature, or on a
    constant column or one in the others' span."""
    Z = np.asarray(features, dtype=float)
    n, p = Z.shape
    if n <= p:
        raise DegenerateDesignError("fewer rows than coefficients")
    norm = np.sqrt(np.vecdot(Z, Z, axis=0))  # inf or NaN, without a numpy error, if a feature is
    if not (norm < np.inf).all():
        raise DegenerateDesignError("non-finite design feature")
    Q, R = np.linalg.qr(np.column_stack([np.ones(n), Z]))
    if (abs(R.diagonal()[1:]) <= n * np.spacing(norm)).any():  # within rounding of the span
        raise DegenerateDesignError("degenerate design matrix")
    return np.ascontiguousarray(Q.T), R.tolist()


def solve_loglinear(targets, factor):
    """Least-squares projection of (n,) targets y, or of each (n, k) column, on factor =
    factor_design(Z): (B, r), B = Q y and residuals r = y - Q.T B shaped as the targets."""
    Q, _ = factor
    y = np.asarray(targets, dtype=float)
    B = Q @ y
    return B, y - Q.T @ B


def loglinear_coefficients(B, factor):
    """The coefficients (b0, *b), intercept first, of a projection B: R (b0, *b) = B."""
    R, b = factor[1], list(B)
    for j in reversed(range(len(b))):
        b[j] = (b[j] - sum(R[j][k] * b[k] for k in range(j + 1, len(b)))) / R[j][j]
    return tuple(b)


def _slope(r, dr):
    """dL/dtheta = 2/n r . dr at one theta, from its residuals r and dr = dr/dtheta."""
    return 2.0 * float(r @ dr) / len(r)


@dataclass(frozen=True)
class _Separable:
    """One model as y(theta) ~ b0 + Z(theta) . b, theta in [0, hi].  solve(thetas)
    projects y at one theta, or at each of an array of them, one column each: the
    projection p, the residuals, and the loss, inf where the design is degenerate.
    coefficients(p) is (b0, *b), and dr(p) is d(y - b0 - Z . b)/dtheta there."""

    solve: Callable
    coefficients: Callable
    dr: Callable
    hi: float = np.inf


@lru_cache(maxsize=4)  # x grids; the tasks of a benchmark often share one
def _log_x_factor(xs):
    """factor_design of log x, read-only: M1's and M2's on every curve on the x grid xs."""
    Q, R = factor_design(np.log(np.asarray(xs, dtype=float))[:, None])
    Q.flags.writeable = False
    return Q, tuple(map(tuple, R))


def _eps_inf_problem(curve, alpha) -> _Separable:
    """M4 (alpha=True) or M2 (alpha=False); theta = eps_inf < min eps.  Z is factored
    once, M2's once per x grid; where alpha is negative, at one theta or in a batch, its
    component of the projection is dropped: Q's leading rows are the QR of [1, log x]."""
    eps = curve.eps_array
    eps_min = float(eps.min())
    factor = (factor_design(np.column_stack([np.log(curve.x_array), np.log(curve.eps0 - eps)]))
              if alpha else _log_x_factor(curve.xs))
    Q, R = factor

    def solve(e_inf):
        B, r = solve_loglinear(np.log(gap := np.subtract.outer(eps, e_inf)), factor)
        if alpha and np.count_nonzero(neg := B[-1] * R[-1][-1] < 0):  # alpha = B[-1] / R[-1][-1]
            B[-1] -= (drop := B[-1] * neg)
            r += np.multiply.outer(Q[-1], drop)
        return (B, gap), r, np.vecdot(r, r, axis=0) / len(r)

    return _Separable(solve=solve, coefficients=lambda p: loglinear_coefficients(p[0], factor),
                      dr=lambda p: -1.0 / p[1],
                      hi=min((1.0 - EPS_INF_MARGIN) * eps_min, math.nextafter(eps_min, 0.0)))


def _inverse_x(curve):
    """1/x, or DegenerateDesignError where a subnormal x's overflows."""
    with np.errstate(over="ignore"):
        inv_x = 1.0 / curve.x_array
    if not np.all(inv_x < np.inf):
        raise DegenerateDesignError("non-finite design feature")
    return inv_x


def _gamma_design(inv_x, gammas):
    """M3's design at each gamma: u = 1/x + gamma, the column Z = log u centred, its
    mean and squared norm ss, and factor_design's rank test, with |Z|^2 = ss + n mean^2."""
    n = len(inv_x)
    Z = np.log(u := np.add.outer(inv_x, gammas))
    mean = Z.sum(axis=0) / n
    Z -= mean
    ss = np.vecdot(Z, Z, axis=0)
    return u, Z, mean, ss, np.sqrt(ss) > n * np.spacing(np.sqrt(ss + n * mean * mean))


@lru_cache(maxsize=4)  # x grids
def _gamma_grid_design(xs):
    """_gamma_design on GAMMA_GRID, read-only: M3's on every curve on the x grid xs."""
    design = _gamma_design(1.0 / np.asarray(xs, dtype=float), GAMMA_GRID)  # _inverse_x checked 1/x
    for a in design:
        a.flags.writeable = False
    return design


def _gamma_problem(curve) -> _Separable:
    """M3; theta = gamma.  factor_design and solve_loglinear on the column log u,
    u = 1/x + gamma, in closed form, projecting to (the column's mean, c, u)."""
    inv_x = _inverse_x(curve)
    y = np.log(curve.eps_array)
    n, y_mean = len(y), y.sum() / len(y)
    yc = y - y_mean

    def solve(gammas):
        u, Z, mean, ss, ok = (_gamma_grid_design(curve.xs) if gammas is GAMMA_GRID
                              else _gamma_design(inv_x, gammas))
        c = yc @ Z / (ss + ~ok)  # ss + 1 where the rank test fails, for a finite c there
        r = (yc - (Z * c).T).T
        loss = np.vecdot(r, r, axis=0) / n
        return (mean, c, u), r, loss if all(ok.flat) else np.where(ok, loss, np.inf)

    return _Separable(solve=solve, coefficients=lambda p: (y_mean - p[0] * p[1], p[1]),
                      dr=lambda p: -p[1] / p[2])


def _loss_and_grad(curve, p, grad=True):
    """(loss, dL/dtheta) from the residual at M3 (theta = gamma) or M4
    (eps_inf) params, whatever the design's rank; the loss alone, without
    the gradient's 1/(eps - eps_inf), if not grad."""
    eps = curve.eps_array
    if isinstance(p, M3Params):  # dr/dtheta = -scale / u
        scale, u = p.c, _inverse_x(curve) + p.gamma
        r = np.log(eps) - np.log(p.beta) - p.c * np.log(u)
    elif np.any(eps <= p.eps_inf):
        raise FitError("eps_inf exceeds observed loss")
    else:
        scale, u = 1.0, eps - p.eps_inf
        r = (np.log(u) - p.alpha * np.log(p.eps0 - eps) - np.log(p.beta)
             - p.c * np.log(curve.x_array))
    loss = float(r @ r) / len(r)
    return (loss, _slope(r, -scale / u)) if grad else loss


def loss_m4(curve: LearningCurve, p: M4Params) -> float:
    """Mean squared residual of the M4 square-log loss.

    residual_i = log(eps_i - eps_inf) - alpha*log(eps0 - eps_i)
                 - log(beta) - c*log(x_i)
    """
    return _loss_and_grad(curve, p, grad=False)


def loss_m3(curve: LearningCurve, p: M3Params) -> float:
    """Mean of (log eps - log beta - c*log(1/x + gamma))^2."""
    return _loss_and_grad(curve, p, grad=False)


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
    """Outer loop: one gradient step on theta from the residual, clamped to
    [0, problem.hi]; the coefficients only at the theta returned.  A degenerate
    design raises DegenerateDesignError, a non-finite step FitError, and a numpy
    overflow, division by zero or invalid value FloatingPointError.

    Returns (theta, coeffs, loss, iterations, converged).
    """
    def solve(theta):
        proj, resid, loss = problem.solve(theta)
        if not loss < np.inf:
            raise DegenerateDesignError("degenerate design matrix")
        return proj, resid, float(loss)

    theta = min(max(init, 0.0), problem.hi)
    rate = cfg.effective_rate
    prev_loss = np.inf
    proj, resid, loss = solve(theta)
    for k in range(1, cfg.max_outer_iters + 1):
        if prev_loss - loss < cfg.convergence_tol:  # a rise stops too, unconverged
            return theta, problem.coefficients(proj), loss, k, loss <= prev_loss
        prev_loss = loss
        step = rate * _slope(resid, problem.dr(proj))
        for _ in range(40 if cfg.backtracking else 1):
            candidate = min(max(theta - step, 0.0), problem.hi)
            if not math.isfinite(candidate):
                raise FitError("non-finite step during coordinate descent")
            p2, r2, l2 = solve(candidate)
            if l2 <= loss or not cfg.backtracking:
                break
            step *= 0.5
        else:  # every halving raised the loss: a failed line search
            return theta, problem.coefficients(proj), loss, k, False
        theta, proj, resid, loss = candidate, p2, r2, l2
    return theta, problem.coefficients(proj), loss, cfg.max_outer_iters, False


@np.errstate(over="raise", divide="raise", invalid="raise")
def _profile(problem: _Separable, thetas):
    """Exact outer search (the default fit): the loss over the grid thetas,
    widened by decades while an unbounded theta's best is the top end, then a
    zero of the slope dL/dtheta from the best grid point toward its neighbour
    downhill (none at a bound the slope points out of, or for a slope 0 or
    unknown).  lo, the best point scored, slopes toward hi, and hi slopes back
    or scores no lower, so a minimum lies between.  A step, at least tol
    inside, is a secant on the slopes (Illinois), or a bisection where they do
    not change sign, until the bracket is 2 tol wide, tol = THETA_TOL * (|lo| +
    first width / 100).  score solves the grid, each widening and each point
    in one call, scoring inf for a degenerate design or a beta out of float
    range.  _bisect_into_range adds grid points where beta leaves float range,
    and DegenerateDesignError is raised if no grid point can be scored.

    Returns (theta, coeffs, loss, grid points + scalar solves, True).
    """
    def score(thetas):
        proj, resid, losses = problem.solve(thetas)
        coeffs = problem.coefficients(proj)
        ok = _positive_beta(coeffs[0])
        with np.errstate(all="ignore"):  # the slope may overflow, as 1/(eps - eps_inf) can
            slope = _slope(resid, problem.dr(proj)) if np.ndim(thetas) == 0 else math.nan
        return (losses if all(ok.flat) else np.where(ok, losses, np.inf)), coeffs, \
            slope if math.isfinite(slope) else math.nan  # an overflow is unknown

    losses, (b0, *_), _ = score(thetas)
    while (problem.hi == np.inf and np.argmin(losses) == len(thetas) - 1
           and thetas[-1] < 1e290):  # and before the grid overflows
        wider = thetas[-1] * np.geomspace(1.0, 1e10, 51)[1:]
        more, (b0_more, *_), _ = score(wider)
        thetas, losses, b0 = (np.append(*z) for z in ((thetas, wider), (losses, more),
                                                      (b0, b0_more)))
    thetas, losses, solves = _bisect_into_range(score, thetas, losses, b0)
    if not np.any(losses < np.inf):
        raise DegenerateDesignError("degenerate design or beta out of float range "
                                    "at every grid point")

    k = int(np.argmin(losses))
    f_lo, coeffs, s_lo = score(lo := float(thetas[k]))
    j = k + (s_lo < 0) - (s_lo > 0)  # downhill; k itself where the slope is 0 or nan
    hi = float(thetas[j]) if 0 <= j < len(thetas) else lo
    s_hi, width, kept, solves = math.nan, abs(hi - lo) / 100, None, solves + 1
    while abs(hi - lo) > 2 * (tol := THETA_TOL * (abs(lo) + width)):
        w = hi - lo
        t = s_lo / (s_lo - s_hi) if s_lo * w < 0 < s_hi * w else 0.5  # secant, or bisection
        u = min(max(lo + t * w, min(lo, hi) + tol), max(lo, hi) - tol)
        f_u, c_u, s_u = score(u)
        solves += 1
        if f_u < f_lo:
            if s_u * w > 0:  # sloping back: the old lo closes the bracket
                hi, s_hi = lo, s_lo
            lo, f_lo, s_lo, coeffs = u, f_u, s_u, c_u
            s_hi, kept = s_hi / (1 + (hi == kept)), hi  # Illinois: halved if kept twice
        else:
            hi, s_hi = u, s_u
            s_lo, kept = s_lo / (1 + (lo == kept)), lo
    if f_lo == np.inf:  # every theta tried, the grid's best too, scored inf alone
        raise DegenerateDesignError("degenerate design or beta out of float range")
    return lo, coeffs, float(f_lo), solves, True


def _bisect_into_range(score, thetas, losses, b0):
    """The grid thetas, with losses and log betas b0, plus the point in float
    range nearest an edge of it that 64 halvings find between each two grid
    points where beta leaves the range and the loss falls toward it, or
    where log beta passes from above the range to below.  Returns (thetas,
    losses, grid points + solves)."""
    solves, ok, high = len(thetas), _positive_beta(b0), b0 >= LOG_BETA_MAX
    for i in np.flatnonzero((ok[:-1] != ok[1:]) | (high[:-1] != high[1:]))[::-1]:
        edge = ok[i] != ok[i + 1]  # else log beta passes the whole range
        j, o = (i, i - 1) if ok[i] else (i + 1, i + 2)  # the end in range, its other neighbour
        if edge and not losses[j] < (losses[o] if 0 <= o < len(losses) else np.inf):
            continue
        lo, hi, kept = thetas[i], thetas[i + 1], None
        for _ in range(64):
            fm, (m0, *_), _ = score(mid := (lo + hi) / 2)
            solves += 1
            if _positive_beta(m0):
                kept = mid, fm
            side = _positive_beta(m0) if edge else m0 >= LOG_BETA_MAX
            lo, hi = (mid, hi) if side == (ok if edge else high)[i] else (lo, mid)
        if kept:  # inserted from the top, so each i stays valid
            thetas, losses = np.insert(thetas, i + 1, kept[0]), np.insert(losses, i + 1, kept[1])
    return thetas, losses, solves


def _positive_beta(b0):
    """Whether beta = exp(b0) is a positive float, elementwise."""
    return (b0 < LOG_BETA_MAX) & (np.exp(np.minimum(b0, 0.0)) > 0.0)


def _finite(b0, *rest):
    """(exp(b0), *rest) as floats; FitError, not an overflow or a beta of 0,
    when one would not be finite or positive."""
    if not (b0 < LOG_BETA_MAX and np.all(np.isfinite(rest))):
        raise FitError("fit produced a non-finite parameter")
    if not _positive_beta(b0):
        raise FitError("fitted beta underflows to 0")
    return float(np.exp(b0)), *map(float, rest)


def fit_m1(curve: LearningCurve) -> FitResult:
    """Closed-form least squares of log eps on (1, log x)."""
    _require_points(curve, 2, "M1")
    problem = _eps_inf_problem(curve, alpha=False)
    proj, _, loss = problem.solve(0.0)
    return FitResult(M1Params(*_finite(*problem.coefficients(proj))), float(loss), 1, True)


def _fit_eps_inf(curve, cfg, alpha):
    """M4, or M2 when alpha is False: ((beta, c, eps_inf, alpha), loss,
    iterations, converged)."""
    problem = _eps_inf_problem(curve, alpha=alpha)
    e_inf, b, *rest = (_profile(problem, problem.hi * EPS_INF_GRID) if cfg is None
                       else _descend(problem, cfg.eps_inf_init_fraction * min(curve.eps), cfg))
    b0, c, a = b if alpha else (*b, 0.0)
    return _finite(b0, c, e_inf, a + 0.0), *rest  # a projected alpha, 0 / R[-1][-1], may be -0.0


def fit_m2(curve: LearningCurve, cfg: FitConfig | None = None) -> FitResult:
    """Fit eps = eps_inf + beta * x^c: fit_m4 without the alpha column, so
    also the no-alpha ablation, which evaluation.fit_models reports from it."""
    _require_points(curve, 3, "M2")
    (beta, c, e_inf, _), *rest = _fit_eps_inf(curve, cfg, alpha=False)
    return FitResult(M2Params(eps_inf=e_inf, beta=beta, c=c), *rest)


def fit_m3(curve: LearningCurve, cfg: FitConfig | None = None) -> FitResult:
    """Fit eps = beta * (1/x + gamma)^c.

    Given gamma, (log beta, c) is the least-squares fit of log eps on
    (1, log(1/x + gamma)); gamma >= 0 is searched from GAMMA_GRID, then by a
    secant on dL/dgamma, or under a FitConfig takes gradient steps with
    dL/dgamma = mean(-2 r_i c / (1/x_i + gamma)).
    """
    _require_points(curve, 3, "M3")
    problem = _gamma_problem(curve)
    gamma, (b0, c), loss, iters, conv = (_profile(problem, GAMMA_GRID) if cfg is None
                                         else _descend(problem, cfg.gamma_init, cfg))
    return FitResult(M3Params(*_finite(b0, c, gamma)), loss, iters, conv)


def fit_m4(curve: LearningCurve, cfg: FitConfig | None = None) -> FitResult:
    """Fit (eps - eps_inf)/(eps0 - eps)^alpha = beta x^c.

    eps0 is fixed to curve.eps0.  Given eps_inf, (alpha, log beta, c) is the
    least-squares fit of log(eps - eps_inf) on (log(eps0 - eps), 1, log x);
    a negative alpha is projected to zero by dropping its component of the
    projection.  eps_inf in [0, hi], hi = (1 - EPS_INF_MARGIN) * min eps, is
    searched from the points hi * EPS_INF_GRID, then by a secant on dL/deps_inf,
    or under a FitConfig takes steps with dL/deps_inf = mean(-2 r_i / (eps_i -
    eps_inf)).
    The no-alpha ablation is not fit here: with alpha = 0 this is fit_m2, whose
    fit evaluation.fit_models reports.
    """
    _require_points(curve, 4, "M4")
    (beta, c, e_inf, alpha), *rest = _fit_eps_inf(curve, cfg, alpha=True)
    return FitResult(M4Params(eps0=float(curve.eps0), eps_inf=e_inf, alpha=alpha,
                              beta=beta, c=c), *rest)
