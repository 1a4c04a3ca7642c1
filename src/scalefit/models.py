"""The five functional forms used to model learning curves.

Naming follows the usual scaling-law literature:

    M1:  eps = beta * x^c
    M2:  eps = eps_inf + beta * x^c
    M3:  eps = beta * (1/x + gamma)^c        (see sign note below)
    M4:  (eps - eps_inf) / (eps0 - eps)^alpha = beta * x^c
    M4 without alpha: M4 with alpha pinned to 0 during fitting

Sign convention for M3: the fitted objective is log eps = log beta +
c * log(1/x + gamma), so the stored c is the regression coefficient.  A
decaying curve therefore has c > 0 here; the scaling exponent comparable
to M1/M2/M4 is -c.

M4 defines eps implicitly.  For alpha > 0 the left-hand side
g(eps) = (eps - eps_inf) / (eps0 - eps)^alpha is strictly increasing from
0 to +inf on (eps_inf, eps0), so a unique root exists and bisection is
unconditionally convergent.  alpha = 0 takes the closed-form M2 branch so
the reduction is exact rather than approximate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BISECTION_MAX_ITERS = 200
BISECTION_EPS_TOL = 1e-12


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
    if np.any(x <= 0):
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
    no clamping).  alpha > 0 bisects g(eps) on (eps_inf, eps0); g is
    strictly increasing there, so the root is unique and always lies in the
    open interval.
    """
    x = _as_x(x)
    target = p.beta * x**p.c
    if not np.all(np.isfinite(target)):
        raise ValueError("beta * x^c is not finite")
    if p.alpha == 0:
        return p.eps_inf + target

    scalar = np.isscalar(x) or x.ndim == 0
    t = np.atleast_1d(target)
    width = p.eps0 - p.eps_inf
    pad = 1e-15 * width
    lo = np.full_like(t, p.eps_inf + pad)
    hi = np.full_like(t, p.eps0 - pad)

    def g(eps):
        return (eps - p.eps_inf) / (p.eps0 - eps) ** p.alpha

    for _ in range(BISECTION_MAX_ITERS):
        mid = 0.5 * (lo + hi)
        # stop once floating point can no longer split the interval
        stuck = (mid <= lo) | (mid >= hi)
        if np.all(stuck) or np.max(hi - lo) < BISECTION_EPS_TOL * width:
            break
        below = g(mid) < t
        lo = np.where(below & ~stuck, mid, lo)
        hi = np.where(~below & ~stuck, mid, hi)
    root = 0.5 * (lo + hi)
    return float(root[0]) if scalar else root.reshape(np.shape(target))


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
    if gap == 0 and 2 * p.alpha - 1 < 0:
        raise ValueError("expansion singular: eps0 == eps_inf with 2*alpha - 1 < 0")
    return gap**p.alpha * t - p.alpha * gap ** (2 * p.alpha - 1) * t**2


def predict(params, x):
    """Dispatch prediction on the parameter variant."""
    if isinstance(params, M1Params):
        return predict_m1(params, x)
    if isinstance(params, M2Params):
        return predict_m2(params, x)
    if isinstance(params, M3Params):
        return predict_m3(params, x)
    if isinstance(params, M4Params):
        return predict_m4(params, x)
    raise TypeError(f"unknown parameter type: {type(params).__name__}")
