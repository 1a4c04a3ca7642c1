"""Correctness checks for benchmark outputs, computed apart from scalefit.

Every check returns a list of failure messages (empty when the output
passes).  None of them calls into the package: the M1 refit is a
closed-form log-log least squares, the tie rule and best fractions are
recomputed from their definitions, and the sphere checks compare against
the exact risk of a linear classifier on the sphere.  They operate on plain
numbers so that the benchmark's own tests can hand them corrupted outputs.
"""

from __future__ import annotations

import math

import numpy as np

TIE_ABS = 1e-4
TIE_REL = 0.05
RTOL = 1e-9
# half-width of the acceptance band, in binomial standard deviations
BAND_SIGMAS = 5.0


def tie(a: float, b: float) -> bool:
    """The package's default TieRule, written out from its documentation."""
    if math.isinf(a) or math.isinf(b):
        return math.isinf(a) and math.isinf(b)
    return abs(a - b) <= max(TIE_ABS, TIE_REL * min(a, b))


def m1_holdout_rmse(xs, eps, cutoff: float = 0.0) -> float:
    """Holdout log-RMSE of M1 refitted by centred log-log least squares.

    The split is the package's documented one: train on x <= x_max / 2
    (further restricted to x >= cutoff), hold out x > x_max / 2.
    """
    x = np.asarray(xs, dtype=float)
    e = np.asarray(eps, dtype=float)
    tau = x.max() / 2.0
    train = (x <= tau) & (x >= cutoff)
    lx, ly = np.log(x[train]), np.log(e[train])
    mx, my = lx.mean(), ly.mean()
    slope = float(np.sum((lx - mx) * (ly - my)) / np.sum((lx - mx) ** 2))
    intercept = my - slope * mx
    hold = x > tau
    log_pred = intercept + slope * np.log(x[hold])
    return float(np.sqrt(np.mean((log_pred - np.log(e[hold])) ** 2)))


def check_task(task: dict) -> list:
    """Check one task's report: M1 refit, winners, and M2 == M4-no-alpha.

    task holds "task" (name), "xs", "eps", "cutoff" (the curve before the
    split), "rmse" (model -> reported RMSE) and "winners".
    """
    name = task["task"]
    rmse = task["rmse"]
    failures = []
    if "M1" in rmse:
        ours = m1_holdout_rmse(task["xs"], task["eps"], task["cutoff"])
        if not abs(rmse["M1"] - ours) <= RTOL * max(ours, 1e-3):
            failures.append(f"{name}: M1 RMSE {rmse['M1']!r} != closed form {ours!r}")
    best = min(rmse.values())
    winners = {m for m, v in rmse.items() if tie(v, best)}
    if set(task["winners"]) != winners:
        failures.append(f"{name}: winners {sorted(task['winners'])} != {sorted(winners)}")
    if "M2" in rmse and "M4-no-alpha" in rmse:
        a, b = rmse["M2"], rmse["M4-no-alpha"]
        if not abs(a - b) <= RTOL * max(abs(a), 1e-3):
            failures.append(f"{name}: M2 RMSE {a!r} != M4-no-alpha RMSE {b!r}")
    return failures


def check_best_fraction(tasks, best_fraction: dict) -> list:
    """best_fraction must be each model's share of tasks it wins."""
    models = {m for t in tasks for m in t["rmse"]}
    if set(best_fraction) != models:
        return [f"best_fraction models {sorted(best_fraction)} != {sorted(models)}"]
    failures = []
    for m in sorted(models):
        share = sum(m in t["winners"] for t in tasks) / len(tasks)
        if not abs(best_fraction[m] - share) <= 1e-12:
            failures.append(f"best_fraction[{m}] {best_fraction[m]!r} != {share!r}")
    return failures


def binomial_band(p: float, samples: int) -> float:
    return BAND_SIGMAS * math.sqrt(p * (1.0 - p) / samples)


def check_sphere_curve(name, eps, delta: float, samples: int) -> list:
    """Rates lie in (delta - band, 0.5) and the curve falls overall.

    samples is the number of test labels behind each averaged rate
    (trials * test_size); no classifier beats the Bayes risk delta by more
    than sampling noise, and points at or above chance are dropped by the
    generator.
    """
    lo = delta - binomial_band(delta, samples)
    failures = [f"{name}: rate {e!r} outside ({lo:.4f}, 0.5)"
                for e in eps if not lo < e < 0.5]
    if not eps[0] > eps[-1]:
        failures.append(f"{name}: first rate {eps[0]!r} not above last {eps[-1]!r}")
    return failures


def exact_risk(w, w_star, delta: float) -> float:
    """Error of sign(<w, x>) for x uniform on the sphere with labels
    sign(<w_star, x>) flipped with probability delta: delta + (1 - 2 delta)
    * theta / pi, theta being the angle between w and w_star."""
    cos = float(np.dot(w, w_star) / (np.linalg.norm(w) * np.linalg.norm(w_star)))
    theta = math.acos(min(1.0, max(-1.0, cos)))
    return delta + (1.0 - 2.0 * delta) * theta / math.pi


def check_misclassification(rate: float, w, w_star, delta: float, test_size: int) -> list:
    p = exact_risk(w, w_star, delta)
    band = binomial_band(p, test_size)
    if abs(rate - p) <= band:
        return []
    return [f"misclassification rate {rate!r} outside exact risk {p:.4f} +- {band:.4f}"]


def check_round_trip(true_c: float, fitted_c: float, rtol: float = 1e-2) -> list:
    """A noiseless round trip recovers the exponent (acceptance criterion 3)."""
    if abs(fitted_c - true_c) <= rtol * abs(true_c):
        return []
    return [f"round trip exponent {fitted_c!r} != true {true_c!r} within {rtol}"]
