"""Generators for learning curves with known ground truth.

Two kinds of curves are produced:

* a logistic-regression benchmark on the unit sphere with label noise,
  whose Bayes risk equals the flip probability delta, exhibiting the
  classic three stages (random-guessing plateau, transition, power law);
* direct sampling from any of the model classes, used as round-trip
  oracles for the fitters.

All randomness flows through numpy's default generator (PCG64) seeded from
64-bit integers, so identical specs reproduce bit-identical curves across
platforms.  Trials run on up to two threads and are reduced in a fixed
order, so a curve does not depend on the threads' schedule.
"""

from __future__ import annotations

import contextvars
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .curve import LearningCurve
from .models import predict

ROW_BLOCK = 1 << 16  # elements per block of rows in _row_sq: a 512 kB temporary


@dataclass(frozen=True)
class SphereTaskSpec:
    """Parameters of the noisy-sphere logistic-regression curve generator."""

    d: int
    delta: float
    sample_sizes: tuple
    test_size: int = 4000
    trials: int = 16
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "sample_sizes", tuple(int(n) for n in self.sample_sizes))
        if self.d < 1 or self.test_size < 1 or self.trials < 1:
            raise ValueError("d, test_size and trials must be positive")
        if not 0 <= self.delta < 0.5:
            raise ValueError("delta must be in [0, 0.5)")
        sizes = self.sample_sizes
        if not sizes or any(b <= a for a, b in zip(sizes, sizes[1:])) or sizes[0] < 1:
            raise ValueError("sample_sizes must be positive and strictly increasing")


@dataclass(frozen=True)
class SyntheticCurve:
    curve: LearningCurve
    bayes_risk: float


def sample_sphere_dataset(d: int, n: int, w_star: np.ndarray, delta: float,
                          rng: np.random.Generator):
    """n instances uniform on the unit sphere with noisy linear labels.

    Each x is a normalized standard Gaussian; the label sign(<w_star, x>)
    is negated independently with probability delta.
    """
    if n < 1:
        raise ValueError("n must be positive")
    X = rng.standard_normal((n, d))
    X /= np.sqrt(_row_sq(X))[:, None]  # bit-identical to np.linalg.norm's rows
    y = np.sign(X @ w_star)
    y[y == 0] = 1.0
    flips = rng.random(n) < delta
    y[flips] *= -1.0
    return X, y


def train_logistic(X: np.ndarray, y: np.ndarray, iters: int = 500) -> np.ndarray:
    """Full-batch gradient descent on the mean logistic loss, zero init.

    Step size is 1 / (1 + L) with L = 0.25 * mean ||x||^2, the standard
    smoothness bound for the logistic loss; the problem is convex so this
    is monotone.  Deterministic given the data.
    """
    n, d = X.shape
    w = np.zeros(d)
    lips = 0.25 * float(np.mean(_row_sq(X)))
    step = 1.0 / (1.0 + lips)
    margins, ys = np.empty(n), np.empty(n)
    for _ in range(iters):
        np.multiply(np.matmul(X, w, out=margins), y, out=margins)
        # y * sigmoid(-margin), the margin clipped against overflow
        np.maximum(np.minimum(margins, 500.0, out=margins), -500.0, out=margins)
        np.exp(margins, out=ys)
        ys += 1.0
        np.divide(y, ys, out=ys)
        w += step * ((ys @ X) / n)  # (ys @ X) / n is minus the gradient
    return w


def _row_sq(X):
    """Squared row norms of X, bit-identical to np.sum(X**2, axis=1), formed
    ROW_BLOCK elements at a time rather than through an n x d temporary."""
    out = np.empty(len(X))
    rows = max(1, ROW_BLOCK // X.shape[1])
    for i in range(0, len(X), rows):
        np.add.reduce(np.square(X[i:i + rows]), axis=1, out=out[i:i + rows])
    return out


def misclassification_rate(w: np.ndarray, d: int, w_star: np.ndarray, delta: float,
                           test_size: int, rng: np.random.Generator) -> float:
    """Error rate of sign(<w, x>) on a fresh noisy-labeled test sample."""
    if not np.any(w):
        raise ValueError("undefined classifier: zero weight vector")
    X, y = sample_sphere_dataset(d, test_size, w_star, delta, rng)
    pred = np.sign(X @ w)
    pred[pred == 0] = 1.0
    return float(np.mean(pred != y))


def generate_sphere_curve(spec: SphereTaskSpec) -> SyntheticCurve:
    """Average misclassification curve of logistic regression on the sphere.

    For each sample size, rates are averaged over spec.trials independent
    train/test draws.  eps0 is 0.5 (random guessing on balanced binary
    labels); points whose averaged rate reaches 0.5 are dropped with a
    warning since log(eps0 - eps) would be undefined.

    Each (size, trial) pair draws from its own SeedSequence child, so the
    pairs run on a pool of up to two threads, largest size first, each in a
    copy of the caller's context (np.errstate reaches it); the rates are
    averaged, and points dropped, in spec order on the calling thread.
    """
    from concurrent.futures import ThreadPoolExecutor  # 13 ms: imported when used

    root = np.random.SeedSequence(spec.seed)
    w_seq, data_seq = root.spawn(2)
    w_rng = np.random.default_rng(w_seq)
    g = w_rng.standard_normal(spec.d)
    w_star = g / np.linalg.norm(g)

    eps0 = 0.5
    children = data_seq.spawn(len(spec.sample_sizes) * spec.trials)
    pool = ThreadPoolExecutor(min(2, os.cpu_count() or 1))
    try:
        jobs = {k: pool.submit(contextvars.copy_context().run, _trial, spec, w_star,
                               spec.sample_sizes[k // spec.trials], children[k])
                for k in reversed(range(len(children)))}
        rates = [jobs[k].result() for k in range(len(children))]
    finally:
        pool.shutdown(cancel_futures=True)  # after an error, start no queued trial
    xs, eps = [], []
    for i, n in enumerate(spec.sample_sizes):
        rate = float(np.mean(rates[i * spec.trials:(i + 1) * spec.trials]))
        if rate >= eps0:
            warnings.warn(
                f"dropping x={n}: averaged rate {rate:.4f} >= eps0 {eps0}",
                stacklevel=2,
            )
            continue
        xs.append(float(n))
        eps.append(rate)
    curve = LearningCurve(
        tuple(xs), tuple(eps), eps0,
        name=f"sphere-d{spec.d}-delta{spec.delta}-seed{spec.seed}",
        metric="misclassification rate",
    )
    return SyntheticCurve(curve=curve, bayes_risk=spec.delta)


def _trial(spec, w_star, n, seed_seq):
    """Test error of logistic regression trained on one draw of n points."""
    rng = np.random.default_rng(seed_seq)
    w = train_logistic(*sample_sphere_dataset(spec.d, n, w_star, spec.delta, rng))
    if not np.any(w):  # d=1 with label noise: mean(y*x) can be exactly 0
        return 0.5  # uninformative classifier scores chance
    return misclassification_rate(w, spec.d, w_star, spec.delta, spec.test_size, rng)


def generate_from_model(params, xs, noise_sigma: float = 0.0,
                        rng: np.random.Generator | None = None,
                        eps0: float | None = None) -> LearningCurve:
    """Sample a curve from a model class, optionally with noise.

    Noise is multiplicative log-normal, eps = prediction * exp(N(0, sigma^2)),
    the natural perturbation for square-log objectives.  eps0 defaults to
    the params' eps0; params without one (M1-M3) need it passed.
    A value outside (0, eps0) raises CurveError, a ValueError.
    """
    xs = tuple(float(x) for x in xs)
    pred = np.asarray(predict(params, np.asarray(xs)), dtype=float)
    if not 0 <= noise_sigma < np.inf:  # NaN too
        raise ValueError("noise_sigma must be finite and nonnegative")
    if noise_sigma > 0:
        if rng is None:
            raise ValueError("rng required when noise_sigma > 0")
        eps = pred * np.exp(rng.standard_normal(len(xs)) * noise_sigma)
    else:
        eps = pred
    eps0 = getattr(params, "eps0", None) if eps0 is None else eps0
    if eps0 is None:
        raise ValueError(f"eps0 required: {type(params).__name__} has none")
    return LearningCurve(xs, tuple(float(e) for e in eps), float(eps0),
                         name=f"synthetic-{type(params).__name__}")
