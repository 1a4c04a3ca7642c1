"""Command-line interface.

Subcommands:

    fit       fit one or more models to a single task file
    evaluate  split one task and report per-model extrapolation RMSE
    benchmark run a directory (or list) of task files and rank the models
    synth     generate noisy-sphere logistic-regression task files
    plotdata  emit columnar fit-vs-observation data for plotting

A model that cannot be fit is recorded, and the others still fit, under
fit, evaluate, benchmark and plotdata alike (evaluation.fit_models).

Exit codes: 0 success, 1 usage error, 2 data error (task or flag values
only), 3 fit failure under --strict or when plotdata fits no model.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .curve import CurveError, apply_cutoff, prepare_split, truncate_at_peak
from .evaluation import ALL_MODEL_NAMES, MODEL_NAMES, TieRule, evaluate_task, fit_models
from .fitting import FitConfig, FitResult
from .harness import (
    TaskFormatError,
    emit_plot_data,
    emit_report,
    load_task,
    report_doc,
    run_benchmark,
    save_task,
)
from .synthetic import SphereTaskSpec, generate_sphere_curve

USAGE_ERROR, DATA_ERROR, FIT_ERROR = 1, 2, 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _canonical_model(name: str) -> str:
    key = name.strip().lower().replace("_", "-")
    for canonical in ALL_MODEL_NAMES:
        if key == canonical.lower():
            return canonical
    raise argparse.ArgumentTypeError(f"unknown model {name!r}")


def _add_fit_flags(p):
    p.add_argument("--model", action="append", type=_canonical_model,
                   help="model to use (repeatable); default M1 M2 M3 M4")
    p.add_argument("--cutoff", default="0",
                   help="lower x cutoff for fitting, a number or 'auto' "
                        "(geometric midpoint of each task's train side; "
                        "of the whole curve for fit)")
    p.add_argument("--lr", type=float, default=FitConfig.learning_rate,
                   help="gradient learning rate")
    p.add_argument("--rate-multiplier", type=float, default=FitConfig.rate_multiplier,
                   help="uniform multiplier on the learning rate")
    p.add_argument("--max-iters", type=int, default=FitConfig.max_outer_iters,
                   help="max outer coordinate-descent iterations")
    p.add_argument("--truncate-at-peak", action="store_true",
                   help="truncate each curve at its first loss minimum")
    p.add_argument("--backtracking", action="store_true",
                   help="halve rejected gradient steps until the loss is "
                        "non-increasing (accelerates large learning rates)")


def _cfg_from(args) -> FitConfig:
    return FitConfig(learning_rate=args.lr, rate_multiplier=args.rate_multiplier,
                     max_outer_iters=args.max_iters, backtracking=args.backtracking)


def _parse_cutoff(spec: str):
    """--cutoff as a nonnegative float, or the string "auto"."""
    if spec == "auto":
        return spec
    try:
        value = float(spec)
    except ValueError:
        raise TaskFormatError(f"invalid cutoff {spec!r}") from None
    if not value >= 0:  # NaN too
        raise TaskFormatError("cutoff must be nonnegative")
    return value


def _fit_doc(fit):
    """A fit_models entry as JSON: {"error": diagnostic}, or the FitResult."""
    if isinstance(fit, str):
        return {"error": fit}
    doc = asdict(fit)
    doc["params"]["model_form"] = type(fit.params).__name__
    return doc


def build_parser() -> _Parser:
    parser = _Parser(prog="scalefit",
                     description="Scaling-law estimation from learning curves")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit models to one task file")
    p_fit.set_defaults(run=_cmd_fit)
    p_fit.add_argument("task", type=Path)
    _add_fit_flags(p_fit)

    p_eval = sub.add_parser("evaluate", help="extrapolation report for one task")
    p_eval.set_defaults(run=_cmd_evaluate)
    p_eval.add_argument("task", type=Path)
    _add_fit_flags(p_eval)

    p_bench = sub.add_parser("benchmark", help="run a directory of task files")
    p_bench.set_defaults(run=_cmd_benchmark)
    p_bench.add_argument("tasks", type=Path, nargs="+",
                         help="task files or directories of *.json task files")
    _add_fit_flags(p_bench)
    for p in (p_eval, p_bench):
        p.add_argument("--tie-rel", type=float, default=TieRule.rel_tol)
        p.add_argument("--tie-abs", type=float, default=TieRule.abs_tol)
    p_bench.add_argument("--format", choices=("table", "json"), default="table")
    p_bench.add_argument("--seed", type=int, default=None,
                         help="recorded in the run for provenance")
    p_bench.add_argument("--strict", action="store_true",
                         help="exit 3 if any model fails to fit on any task")

    p_synth = sub.add_parser("synth", help="generate sphere-task files")
    p_synth.set_defaults(run=_cmd_synth)
    p_synth.add_argument("--d", type=int, default=100)
    p_synth.add_argument("--delta", type=float, default=0.2)
    p_synth.add_argument("--sizes", type=str, default="4:4096:16",
                         help="geometric grid min:max:count, or comma list")
    p_synth.add_argument("--test-size", type=int, default=SphereTaskSpec.test_size)
    p_synth.add_argument("--trials", type=int, default=SphereTaskSpec.trials)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--curves", type=int, default=1,
                         help="number of curves (seeds seed..seed+n-1)")
    p_synth.add_argument("--out-dir", type=Path, default=Path("."))

    p_plot = sub.add_parser("plotdata", help="columnar fit data for plotting")
    p_plot.set_defaults(run=_cmd_plotdata)
    p_plot.add_argument("task", type=Path)
    _add_fit_flags(p_plot)
    p_plot.add_argument("--grid-points", type=int, default=50)
    p_plot.add_argument("--out", type=Path, default=None)

    return parser


def _parse_sizes(spec: str):
    if ":" in spec:
        lo, hi, count = spec.split(":")
        grid = np.geomspace(float(lo), float(hi), int(count))
        sizes = sorted({int(round(v)) for v in grid})
        return tuple(sizes)
    return tuple(int(s) for s in spec.split(","))


def _expand_task_paths(paths):
    out = []
    for p in paths:
        if p.is_dir():
            out.extend(sorted(p.glob("*.json")))
        else:
            out.append(p)
    return out


def _cmd_fit(args) -> int:
    curve = load_task(args.task)
    if args.truncate_at_peak:
        curve = truncate_at_peak(curve)
    cutoff = _parse_cutoff(args.cutoff)
    if cutoff != 0:  # fit has no split: "auto" is the midpoint of the whole curve
        curve = apply_cutoff(curve, cutoff)
    fits = fit_models(curve, _cfg_from(args), args.model or MODEL_NAMES)
    print(json.dumps({"task": curve.name,
                      "fits": {m: _fit_doc(f) for m, f in fits.items()}}, indent=2))
    return 0


def _cmd_evaluate(args) -> int:
    split = prepare_split(load_task(args.task), args.truncate_at_peak,
                          _parse_cutoff(args.cutoff))
    report = evaluate_task(split, _cfg_from(args), args.model or MODEL_NAMES,
                           TieRule(abs_tol=args.tie_abs, rel_tol=args.tie_rel))
    print(json.dumps({"task": report.task, "tau": split.tau, **report_doc(report)},
                     indent=2))
    return 0


def _cmd_benchmark(args) -> int:
    paths = _expand_task_paths(args.tasks)
    run = run_benchmark(paths, _cfg_from(args), args.model or MODEL_NAMES,
                        TieRule(abs_tol=args.tie_abs, rel_tol=args.tie_rel),
                        truncate_peak=args.truncate_at_peak,
                        cutoff=_parse_cutoff(args.cutoff), seed=args.seed)
    print(emit_report(run, format=args.format), end="")
    if args.strict and any(rep.diagnostics for rep in run.reports):
        return FIT_ERROR
    return 0


def _cmd_synth(args) -> int:
    sizes = _parse_sizes(args.sizes)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for k in range(args.curves):
        spec = SphereTaskSpec(d=args.d, delta=args.delta, sample_sizes=sizes,
                              test_size=args.test_size, trials=args.trials,
                              seed=args.seed + k)
        synth = generate_sphere_curve(spec)
        path = args.out_dir / f"{synth.curve.name}.json"
        save_task(synth.curve, path, domain="synthetic",
                  bayes_risk=synth.bayes_risk)
        print(path)
    return 0


def _cmd_plotdata(args) -> int:
    split = prepare_split(load_task(args.task), args.truncate_at_peak,
                          _parse_cutoff(args.cutoff))
    results = fit_models(split.train, _cfg_from(args), args.model or MODEL_NAMES)
    fits = {m: f for m, f in results.items() if isinstance(f, FitResult)}
    if len(fits) < len(results):
        print("scalefit: not fit: " + json.dumps(
            {m: f for m, f in results.items() if m not in fits}), file=sys.stderr)
    if not fits:
        return FIT_ERROR
    text = emit_plot_data(split, fits, grid_points=args.grid_points)
    if args.out is None:
        print(text, end="")
    else:
        args.out.write_text(text)
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.run(args)
    except (OSError, TaskFormatError, CurveError, ValueError) as exc:
        print(f"scalefit: data error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
