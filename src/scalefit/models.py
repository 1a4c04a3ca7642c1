"""The five functional forms used to model learning curves.

Naming follows the usual scaling-law literature:

    M1:  eps = beta * x^c
    M2:  eps = eps_inf + beta * x^c
    M3:  eps = beta * (1/x + gamma)^c        (see sign note below)
    M4:  (eps - eps_inf) / (eps0 - eps)^alpha = beta * x^c
    M4 without alpha: M4 with alpha = 0, which is M2 (reported from M2's fit)

Sign convention for M3: the fitted objective is log eps = log beta +
c * log(1/x + gamma), so the stored c is the regression coefficient.  A
decaying curve therefore has c > 0 here; the scaling exponent comparable
to M1/M2/M4 is -c.

M4 defines eps implicitly.  For alpha > 0 the left-hand side
g(eps) = (eps - eps_inf) / (eps0 - eps)^alpha is strictly increasing from
0 to +inf on (eps_inf, eps0), so a unique root exists.  predict_m4 finds
it by Newton's method on log g, which converges from the midpoint without
a bracket and stays exact where (eps0 - eps)^alpha overflows.  alpha = 0
takes the closed-form M2 branch so the reduction is exact rather than
approximate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NEWTON_MAX_ITERS = 100  # the longest run, a march from the midpoint to the clamp, is ~35
M4_ROOT_TOL = 1e-12  # an M4 prediction's distance from its root, over eps0 - eps_inf


@dataclass(frozen=True)
class M1Params:
    beta: float
    c: float

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("beta must be positive")


@dataclass(frozen=True)
class M2Params:
    eps_inf: float
    beta: float
    c: float

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if self.eps_inf < 0:
            raise ValueError("eps_inf must be nonnegative")


@dataclass(frozen=True)
class M3Params:
    beta: float
    c: float
    gamma: float

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")


@dataclass(frozen=True)
class M4Params:
    eps0: float
    eps_inf: float
    alpha: float
    beta: float
    c: float

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")
        if not 0 <= self.eps_inf < self.eps0:
            raise ValueError("require 0 <= eps_inf < eps0")


def _as_x(x):
    x = np.asarray(x, dtype=float)
    if not np.all(x > 0):  # NaN too
        raise ValueError("x must be strictly positive")
    return x


def predict_m1(p: M1Params, x):
    """beta * x^c."""
    return p.beta * _as_x(x) ** p.c


def predict_m2(p: M2Params, x):
    """eps_inf + beta * x^c."""
    return p.eps_inf + p.beta * _as_x(x) ** p.c


def predict_m3(p: M3Params, x):
    """beta * (1/x + gamma)^c, c being the regression coefficient."""
    x = _as_x(x)
    return p.beta * (1.0 / x + p.gamma) ** p.c


def predict_m4(p: M4Params, x):
    """Solve (eps - eps_inf) / (eps0 - eps)^alpha = beta * x^c for eps.

    alpha = 0 returns eps_inf + beta * x^c in closed form (identical to M2,
    no clamping).  alpha > 0 runs Newton's method on the equation's log,
    which never overflows, from the midpoint of (eps_inf, eps0): in
    z = log(eps - eps_inf) if the root is in the lower half, in
    z = log(eps0 - eps) if it is in the upper one.  Either form is convex
    and increasing (up to sign) on the midpoint's side of the root, so the
    iterates fall monotonically onto it.  Roots are clamped to 1e-15 of
    the gap from either end.  An inf beta * x^c gives inf, as under M2.
    """
    x = _as_x(x)
    target = p.beta * x**p.c
    if p.alpha == 0:
        return p.eps_inf + target

    gap = p.eps0 - p.eps_inf
    with np.errstate(divide="ignore"):  # beta * x^c may underflow to 0
        log_t = np.log(np.atleast_1d(target))
    z0 = np.log(gap) - np.log(2.0)
    # f(z) = a * z + b * log(gap - e^z) - log t, whose value at z0 is
    # (1 - alpha) * z0 - log t in both halves; f(z0) >= 0 puts the root below
    lower = (1 - p.alpha) * z0 >= log_t
    a = np.where(lower, 1.0, -p.alpha)
    b = np.where(lower, -p.alpha, 1.0)
    z_pad = np.log(gap) + np.log(1e-15)
    z = np.full_like(log_t, z0)
    e = np.exp(z)
    for _ in range(NEWTON_MAX_ITERS):
        f = a * z + b * np.log(gap - e) - log_t
        z = np.maximum(z - f / (a - b * e / (gap - e)), z_pad)
        e, e_old = np.exp(z), e
        # a tenth of the tolerance: a step can be 0.6 of the remaining error
        if np.all(np.abs(e - e_old) <= 0.1 * M4_ROOT_TOL * gap):
            break
    root = np.where(lower, p.eps_inf + e, p.eps0 - e)
    root = np.clip(root, p.eps_inf + 1e-15 * gap, p.eps0 - 1e-15 * gap)
    root = np.where(log_t < np.inf, root, np.inf)
    return float(root[0]) if x.ndim == 0 else root.reshape(np.shape(target))


def m4_asymptotic_excess(p: M4Params, x):
    """Two-term large-x expansion of the excess loss eps - eps_inf.

    Returns (eps0-eps_inf)^alpha * t - alpha * (eps0-eps_inf)^(2*alpha-1) * t^2
    with t = beta * x^c.  Exact (equals beta * x^c) when alpha = 0.
    """
    x = _as_x(x)
    t = p.beta * x**p.c
    gap = p.eps0 - p.eps_inf
    if p.alpha == 0:
        return t
    return gap**p.alpha * t - p.alpha * gap ** (2 * p.alpha - 1) * t**2


def predict(params, x):
    """Dispatch on the parameter type.  A prediction too large for a float
    is inf, without a warning: evaluation.extrapolation_rmse rejects it."""
    # the table is built per call, so a wrapper patched over a predict_m*
    # global (bench/tracer.py) is the one called
    predictor = {M1Params: predict_m1, M2Params: predict_m2, M3Params: predict_m3,
                 M4Params: predict_m4}.get(type(params))
    if predictor is None:
        raise TypeError(f"unknown parameter type: {type(params).__name__}")
    with np.errstate(over="ignore", divide="ignore"):  # divide: M3's 0^c at x = inf
        return predictor(params, x)
