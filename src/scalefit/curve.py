"""Learning-curve data model: validation, cutoff restriction, extrapolation
splits, peak truncation, and the one path from a curve to its split.

Curves are immutable after construction and safe to share across threads.
Values are stored as losses (lower is better); metric conversion happens at
ingestion in the harness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class CurveError(ValueError):
    """A learning curve violates its invariants or an operation's contract."""


@dataclass(frozen=True)
class LearningCurve:
    """Ordered samples (x, eps) of a loss against a scaled quantity.

    Invariants: x strictly positive and strictly increasing (duplicates
    rejected, the fitting design matrix assumes distinct log-x rows); every
    eps in (0, eps0) so that both log(eps) and log(eps0 - eps) are finite.

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
        if not self.eps0 > 0:
            raise CurveError("eps0 must be positive")
        if any(x <= 0 for x in xs):
            raise CurveError("all x must be strictly positive")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise CurveError("x values must be strictly increasing")
        for e in eps:
            if not e > 0:
                raise CurveError("all eps must be strictly positive")
            if not e < self.eps0:
                raise CurveError(
                    "eps must be strictly below eps0 (log(eps0 - eps) must be finite)"
                )

    def __len__(self):
        return len(self.xs)

    @property
    def x_array(self) -> np.ndarray:
        return np.asarray(self.xs, dtype=float)

    @property
    def eps_array(self) -> np.ndarray:
        return np.asarray(self.eps, dtype=float)

    def replace_points(self, xs, eps) -> "LearningCurve":
        """New curve with the same metadata but different points."""
        return LearningCurve(tuple(xs), tuple(eps), self.eps0, self.name, self.metric)


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
        if any(x > self.tau for x in self.train.xs):
            raise CurveError("train side contains x > tau")
        if any(x <= self.tau for x in self.holdout.xs):
            raise CurveError("holdout side contains x <= tau")


def apply_cutoff(curve: LearningCurve, tau: float) -> LearningCurve:
    """Restrict a curve to the points with x >= tau.

    tau = 0 returns an identical curve. Raises CurveError when fewer than
    two points survive, since no model can be fit to the remainder.
    """
    if tau < 0:
        raise CurveError("cutoff must be nonnegative")
    kept = [(x, e) for x, e in zip(curve.xs, curve.eps) if x >= tau]
    if len(kept) < 2:
        raise CurveError("insufficient points after cutoff")
    xs, eps = zip(*kept)
    return curve.replace_points(xs, eps)


def split_for_extrapolation(curve: LearningCurve) -> CurveSplit:
    """Split at tau = x_max / 2: train on [0, tau], hold out (tau, x_max].

    The train side must keep at least two points (the minimum any model
    with two parameters can be fit to) and the holdout at least one.
    """
    tau = max(curve.xs) / 2.0
    train_pts = [(x, e) for x, e in zip(curve.xs, curve.eps) if x <= tau]
    hold_pts = [(x, e) for x, e in zip(curve.xs, curve.eps) if x > tau]
    if len(train_pts) < 2:
        raise CurveError("train split has fewer than 2 points")
    if not hold_pts:
        raise CurveError("holdout split is empty")
    txs, teps = zip(*train_pts)
    hxs, heps = zip(*hold_pts)
    return CurveSplit(
        train=curve.replace_points(txs, teps),
        holdout=curve.replace_points(hxs, heps),
        tau=tau,
    )


def truncate_at_peak(curve: LearningCurve) -> LearningCurve:
    """Prefix of the curve up to and including the first global loss minimum.

    Used to define the bootstrapped-examples x variable when a curve
    overfits; monotone decreasing curves are returned unchanged. Ties are
    broken by first occurrence. May return a single point; the caller
    validates length before fitting.
    """
    best = min(range(len(curve)), key=lambda i: curve.eps[i])
    if best == len(curve) - 1:
        return curve
    return curve.replace_points(curve.xs[: best + 1], curve.eps[: best + 1])


def prepare_split(curve: LearningCurve, truncate_peak: bool = False,
                  cutoff=0.0) -> CurveSplit:
    """Truncate at the peak (optionally), split for extrapolation, then
    restrict the train side to x >= cutoff; the holdout is kept whole.

    cutoff is a nonnegative number or "auto", the geometric midpoint of
    this curve's own train side.  0 keeps every train point.
    """
    if truncate_peak:
        curve = truncate_at_peak(curve)
    split = split_for_extrapolation(curve)
    if cutoff == "auto":
        cutoff = float(np.sqrt(split.train.xs[0] * split.train.xs[-1]))
    if cutoff == 0:
        return split
    return CurveSplit(apply_cutoff(split.train, cutoff), split.holdout, split.tau)
