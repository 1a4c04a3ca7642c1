"""The benchmark's three workloads: their inputs, passes and checks.

A workload is built once (its set-up), then run in whole passes.  Each
pass calls into scalefit through module attributes, so that a Tracer
installed on the package sees every call, and returns report documents
shaped like `scalefit benchmark --format json`: a list of tasks, each with
its per-model RMSE, winners and diagnostics, plus the curve the task was
split from so that the checks can refit it independently.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

from scalefit import cli, curve, evaluation, fitting, harness, synthetic
from scalefit.models import M1Params, M2Params, M3Params, M4Params

import checks

# the acceptance suite's FAST config (tests/test_acceptance.py)
FAST = fitting.FitConfig(rate_multiplier=1e6, convergence_tol=1e-13,
                         backtracking=True, max_outer_iters=5000)

# ---------------------------------------------------------------- sphere-synth
# The acceptance fixture's curve shape, with 3 trials per size instead of 12.
SPHERE_D = 100
SPHERE_DELTA = 0.2
SPHERE_SIZES = tuple(sorted({int(round(v)) for v in np.geomspace(4, 8192, 18)}))
SPHERE_TEST_SIZE = 6000
SPHERE_TRIALS = 3
DEEP_CUTOFF = 512.0
# Curve seeds are fixed: a 3-trial curve's holdout RMSEs move by about a
# third between curve seeds (Monte Carlo noise), so seed-drawn curves would
# make extrap_rmse.gmean differ by more than its bound from one --seed to
# the next.  The work per curve does not depend on its seed.
SPHERE_CURVE_SEEDS = (0, 1)
RISK_ANGLES = (0.3, 1.2, 2.5)  # radians between w and w* in the exact-risk check

# ----------------------------------------------------- fit-recipe / fit-fast
# Fixed true curves whose losses fall from order 1 to a few hundredths
# against a random-guess loss of 10; --seed draws only the multiplicative
# noise.  Seed-drawn shapes would move extrap_rmse.gmean by up to 40% from
# one --seed to the next, through the models' mismatch with each shape.
TASK_EPS0 = 10.0
TASK_NOISE = 0.01
TASK_XS = 2.0 ** (np.arange(97) / 8.0)  # 1 .. 4096, eight points per octave
SHAPE_SEED = 2209
SHAPES_PER_FAMILY = {"M1": 3, "M2": 10, "M3": 10, "M4": 10}
# Left out of the drawn shapes to keep a fit-recipe pass under 30 s: each
# costs the default recipe 5-28 s (60k-100k outer iterations per fit).
COSTLY_SHAPES = {"M1-0", "M1-2", "M3-1", "M3-8", "M4-2"}
# A FAST fit's cost varies up to 30x between noise draws of one shape, so a
# pass over one draw per shape cost 20% more or less from seed to seed
# (16 draws: about 5%).
FAST_DRAWS = 16
ROUND_TRIPS = 3  # noiseless round trips per model in fit-fast
XS12 = np.geomspace(1, 4096, 12)


def task_shapes():
    """True parameters of the task curves, drawn once from fixed ranges.

    Exponents stay within 0.3-0.5 in magnitude: steeper draws put the
    recipe's M2 and M4 fits on the edge between stalling after 2
    iterations and running to the 100k cap, so one task's cost jumped from
    2 s to 18 s between noise draws.
    """
    rng = np.random.default_rng(SHAPE_SEED)
    u = rng.uniform
    draw = {
        "M1": lambda: M1Params(u(0.8, 2.0), u(-0.5, -0.3)),
        "M2": lambda: M2Params(u(0.02, 0.1), u(0.8, 2.0), u(-0.5, -0.3)),
        "M3": lambda: M3Params(u(0.8, 2.0), u(0.3, 0.5), u(1e-4, 1e-2)),
        "M4": lambda: M4Params(TASK_EPS0, u(0.02, 0.1), u(0.2, 1.0), u(0.1, 0.5),
                               u(-0.5, -0.3)),
    }
    shapes = [(f"{family}-{k}", draw[family]())
              for family, n in SHAPES_PER_FAMILY.items() for k in range(n)]
    return [(name, p) for name, p in shapes if name not in COSTLY_SHAPES]


def task_curves(seed: int, draws: int = 1):
    """The task set for one seed: draws noisy curves per task shape."""
    out = []
    for k, (name, shape) in enumerate(task_shapes()):
        for r in range(draws):
            rng = np.random.default_rng([seed, k, r])
            c = synthetic.generate_from_model(shape, TASK_XS, TASK_NOISE, rng,
                                              eps0=TASK_EPS0)
            out.append(curve.LearningCurve(c.xs, c.eps, c.eps0, name=f"{name}-n{r}",
                                           metric="log-loss"))
    return out


class FitTasks:
    """Shared set-up of the two fitting workloads: the task files on disk."""

    draws = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.curves = {}
        self.paths = []
        for c in task_curves(seed, self.draws):
            path = workdir / f"{c.name}.json"
            harness.save_task(c, path)
            self.curves[c.name] = c
            self.paths.append(path)
        self.dir = workdir
        self.items = len(self.paths)

    def attach(self, doc):
        """Complete a report document with the curves its tasks came from."""
        for t in doc["tasks"]:
            c = self.curves.get(t["task"])
            if c is not None:
                t.update(xs=c.xs, eps=c.eps, cutoff=0.0, item=t["task"])
        doc["expected"] = sorted(self.curves)
        return doc

    def extra_checks(self):
        return []


class FitRecipe(FitTasks):
    """`scalefit benchmark DIR --format json` with default flags, in-process."""

    def steps(self):
        return [self.run_cli]

    def run_cli(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["benchmark", str(self.dir), "--format", "json"])
        if code != 0:
            raise RuntimeError(f"scalefit benchmark exited {code}")
        return self.attach(json.loads(out.getvalue()))


class FitFast(FitTasks):
    """run_benchmark with the FAST config and all five models, over the
    fit-recipe task files plus FAST_DRAWS - 1 more noise draws per shape."""

    draws = FAST_DRAWS

    def steps(self):
        return [self.run]

    def run(self):
        run = harness.run_benchmark(self.paths, FAST, evaluation.ALL_MODEL_NAMES)
        return self.attach(json.loads(harness.emit_report(run, format="json")))

    def extra_checks(self):
        """Noiseless M2 and M3 round trips recover the true exponent, with
        criterion 3's parameter ranges and tolerance.  M4 is left out: FAST
        fit_m4 misses about 2% of criterion 3's M4 draws (see CHANGES.md)."""
        rng = np.random.default_rng([self.seed, 3])
        failures = []
        for _ in range(ROUND_TRIPS):
            p2 = M2Params(rng.uniform(0.02, 0.12), rng.uniform(0.5, 2.0), rng.uniform(-0.5, -0.2))
            c2 = synthetic.generate_from_model(p2, XS12, eps0=p2.eps_inf + 3 * p2.beta)
            failures += checks.check_round_trip(p2.c, fitting.fit_m2(c2, FAST).params.c)
            p3 = M3Params(rng.uniform(0.5, 2.0), rng.uniform(0.2, 0.8), rng.uniform(1e-4, 1e-2))
            c3 = synthetic.generate_from_model(p3, XS12, eps0=3 * p3.beta)
            failures += checks.check_round_trip(p3.c, fitting.fit_m3(c3, FAST).params.c)
        return failures


class SphereSynth:
    """Generate a noisy-sphere curve, then evaluate it with FAST on the plain
    split and on the split whose train side keeps x >= DEEP_CUTOFF."""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.specs = [synthetic.SphereTaskSpec(
            d=SPHERE_D, delta=SPHERE_DELTA, sample_sizes=SPHERE_SIZES,
            test_size=SPHERE_TEST_SIZE, trials=SPHERE_TRIALS, seed=s)
            for s in SPHERE_CURVE_SEEDS]
        self.items = len(self.specs)

    def steps(self):
        return [lambda spec=spec: self.run(spec) for spec in self.specs]

    def run(self, spec):
        c = synthetic.generate_sphere_curve(spec).curve
        split = curve.split_for_extrapolation(c)
        deep = curve.CurveSplit(train=curve.apply_cutoff(split.train, DEEP_CUTOFF),
                                holdout=split.holdout, tau=split.tau)
        tasks = []
        for s, cutoff in ((split, 0.0), (deep, DEEP_CUTOFF)):
            rep = evaluation.evaluate_task(s, FAST, evaluation.ALL_MODEL_NAMES)
            tasks.append({"task": f"{rep.task}@{cutoff:g}", "item": rep.task,
                          "rmse": rep.rmse_by_model, "winners": sorted(rep.winners),
                          "diagnostics": rep.diagnostics,
                          "xs": c.xs, "eps": c.eps, "cutoff": cutoff})
        failures = checks.check_sphere_curve(
            c.name, c.eps, SPHERE_DELTA, SPHERE_TRIALS * SPHERE_TEST_SIZE)
        return {"tasks": tasks, "failures": failures}

    def extra_checks(self):
        """misclassification_rate against the exact risk for a few (w, w*)."""
        rng = np.random.default_rng([self.seed, 4])
        w_star = rng.standard_normal(SPHERE_D)
        w_star /= np.linalg.norm(w_star)
        failures = []
        for theta in RISK_ANGLES:
            u = rng.standard_normal(SPHERE_D)
            u -= np.dot(u, w_star) * w_star
            w = math.cos(theta) * w_star + math.sin(theta) * u / np.linalg.norm(u)
            rate = synthetic.misclassification_rate(
                w, SPHERE_D, w_star, SPHERE_DELTA, SPHERE_TEST_SIZE, rng)
            failures += checks.check_misclassification(
                rate, w, w_star, SPHERE_DELTA, SPHERE_TEST_SIZE)
        return failures


WORKLOADS = {"sphere-synth": SphereSynth, "fit-recipe": FitRecipe, "fit-fast": FitFast}


def check_pass(docs):
    """Failures and failed items of one pass's report documents."""
    failures = [f for d in docs for f in d.get("failures", ())]
    failed_items = set()
    for d in docs:
        tasks = d["tasks"]
        for t in tasks:
            if "xs" not in t:
                failures.append(f"unexpected task {t['task']!r}")
                continue
            failures += checks.check_task(t)
            if t["diagnostics"]:
                failed_items.add(t["item"])
        if "best_fraction" in d:
            failures += checks.check_best_fraction(tasks, d["best_fraction"])
        if "expected" in d:
            missing = set(d["expected"]) - {t["task"] for t in tasks}
            failed_items |= missing
        failed_items |= {path for path, _ in d.get("skipped", ())}
    return failures, len(failed_items)


def rmse_gmean(docs) -> float:
    logs = [math.log(v) for d in docs for t in d["tasks"]
            for v in t["rmse"].values() if math.isfinite(v) and v > 0]
    return math.exp(sum(logs) / len(logs))
