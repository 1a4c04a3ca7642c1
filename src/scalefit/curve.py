"""Learning-curve data model: validation; cutoff restriction, extrapolation
splits and peak truncation, each one contiguous span of the x-sorted curve;
and the one path from a curve to its split.

Curves are immutable after construction and safe to share across threads.
Values are stored as losses (lower is better); metric conversion happens at
ingestion in the harness.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np


class CurveError(ValueError):
    """A learning curve violates its invariants or an operation's contract."""


@dataclass(frozen=True)
class LearningCurve:
    """Ordered samples (x, eps) of a loss against a scaled quantity.

    Invariants: x finite, strictly positive and strictly increasing
    (duplicates rejected, the fitting design matrix assumes distinct log-x
    rows); eps0 finite; every eps in (0, eps0) so that both log(eps) and
    log(eps0 - eps) are finite.  Each violation names the x it occurs at.

    A curve may hold a single point (e.g. the holdout side of a split or a
    degenerate peak truncation); fitters enforce their own minimum counts.
    """

    xs: tuple
    eps: tuple
    eps0: float
    name: str = ""
    metric: str = "loss"

    def __post_init__(self):
        xs = tuple(float(v) for v in self.xs)
        eps = tuple(float(v) for v in self.eps)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "eps0", float(self.eps0))
        if len(xs) != len(eps):
            raise CurveError("xs and eps must have equal length")
        if len(xs) < 1:
            raise CurveError("curve needs at least one point")
        if not 0 < self.eps0 < np.inf:
            raise CurveError("eps0 must be positive and finite")
        for prev, x, e in zip((0.0,) + xs, xs, eps):
            if not 0 < x < np.inf:
                raise CurveError(f"nonpositive x {x}" if x <= 0 else f"x {x} is not finite")
            if x <= prev:
                raise CurveError(f"duplicate x {x}" if x == prev else
                                 f"x {x} follows x {prev}; x must be strictly increasing")
            if not 0 < e < self.eps0:
                raise CurveError(f"eps {e} at x {x} outside (0, eps0={self.eps0}); "
                                 "log(eps0 - eps) would be undefined")

    def __len__(self):
        return len(self.xs)

    @property
    def x_array(self) -> np.ndarray:
        return np.asarray(self.xs, dtype=float)

    @property
    def eps_array(self) -> np.ndarray:
        return np.asarray(self.eps, dtype=float)

    def span(self, start=None, stop=None) -> "LearningCurve":
        """The points start:stop, as slice indices, with the same metadata."""
        return LearningCurve(self.xs[start:stop], self.eps[start:stop], self.eps0,
                             self.name, self.metric)


@dataclass(frozen=True)
class CurveSplit:
    """Train/holdout partition of a curve at threshold tau.

    Every train x is <= tau and every holdout x is > tau; together the two
    sides reproduce the original curve.
    """

    train: LearningCurve
    holdout: LearningCurve
    tau: float

    def __post_init__(self):
        if self.train.xs[-1] > self.tau:  # each side is sorted: its boundary point decides
            raise CurveError("train side contains x > tau")
        if self.holdout.xs[0] <= self.tau:
            raise CurveError("holdout side contains x <= tau")


def apply_cutoff(curve: LearningCurve, tau: float | str) -> LearningCurve:
    """Restrict a curve to the points with x >= tau.

    tau is a nonnegative number or "auto", sqrt(x_min * x_max) of this curve.
    tau = 0 returns an equal curve. Raises CurveError on a negative or NaN tau,
    or when fewer than two points survive, as no model can fit the remainder.
    """
    if tau == "auto":  # correctly rounded, where x_min * x_max over- or underflows too
        (m0, e0), (m1, e1) = math.frexp(curve.xs[0]), math.frexp(curve.xs[-1])
        tau = math.ldexp(math.sqrt(math.ldexp(m0 * m1, (e0 + e1) % 2)), (e0 + e1) // 2)
    if not tau >= 0:  # NaN too: bisect_left(xs, nan) is 0 and would keep every point
        raise CurveError("cutoff must be nonnegative")
    start = bisect_left(curve.xs, tau)
    if len(curve) - start < 2:
        raise CurveError("insufficient points after cutoff")
    return curve.span(start)


def split_for_extrapolation(curve: LearningCurve) -> CurveSplit:
    """Split at tau = x_max / 2: train on [0, tau], hold out (tau, x_max].

    The train side must keep at least two points (the minimum any model
    with two parameters can be fit to); the holdout always keeps x_max.
    """
    tau = curve.xs[-1] / 2.0
    k = bisect_right(curve.xs, tau)
    if k < 2:
        raise CurveError("train split has fewer than 2 points")
    return CurveSplit(train=curve.span(0, k), holdout=curve.span(k), tau=tau)


def truncate_at_peak(curve: LearningCurve) -> LearningCurve:
    """Prefix of the curve up to and including the first global loss minimum.

    Used to define the bootstrapped-examples x variable when a curve
    overfits; a monotone decreasing curve comes back as an equal curve. Ties
    are broken by first occurrence. May return a single point; the caller
    validates length before fitting.
    """
    return curve.span(0, curve.eps.index(min(curve.eps)) + 1)


def prepare_split(curve: LearningCurve, truncate_peak: bool = False,
                  cutoff=0.0) -> CurveSplit:
    """Truncate at the peak (optionally), split for extrapolation, then
    restrict the train side to x >= cutoff; the holdout is kept whole.

    cutoff is as for apply_cutoff, so "auto" is the geometric midpoint of
    this curve's own train side.  0 keeps every train point.
    """
    if truncate_peak:
        curve = truncate_at_peak(curve)
    split = split_for_extrapolation(curve)
    if cutoff == 0:
        return split
    return CurveSplit(apply_cutoff(split.train, cutoff), split.holdout, split.tau)
