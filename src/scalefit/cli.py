"""Command-line interface.

Subcommands:

    fit       fit one or more models to a single task file
    evaluate  split one task and report per-model extrapolation RMSE
    benchmark run a directory (or list) of task files and rank the models
    synth     generate noisy-sphere logistic-regression task files
    plotdata  emit columnar fit-vs-observation data for plotting

Exit codes: 0 success, 1 usage error, 2 data error, 3 fit failure under
--strict.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .curve import CurveError, apply_cutoff, prepare_split, truncate_at_peak
from .evaluation import ALL_MODEL_NAMES, MODEL_NAMES, TieRule, evaluate_task, fit_model
from .fitting import FitConfig, FitError
from .harness import (
    TaskFormatError,
    emit_plot_data,
    emit_report,
    load_task,
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
    p.add_argument("--lr", type=float, default=1e-7, help="gradient learning rate")
    p.add_argument("--rate-multiplier", type=float, default=1.0,
                   help="uniform multiplier on the learning rate")
    p.add_argument("--max-iters", type=int, default=100_000,
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
    if value < 0:
        raise TaskFormatError("cutoff must be nonnegative")
    return value


def _params_doc(params):
    doc = {k: v for k, v in asdict(params).items()}
    doc["model_form"] = type(params).__name__
    return doc


def build_parser() -> _Parser:
    parser = _Parser(prog="scalefit",
                     description="Scaling-law estimation from learning curves")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit models to one task file")
    p_fit.add_argument("task", type=Path)
    _add_fit_flags(p_fit)

    p_eval = sub.add_parser("evaluate", help="extrapolation report for one task")
    p_eval.add_argument("task", type=Path)
    _add_fit_flags(p_eval)
    p_eval.add_argument("--tie-rel", type=float, default=0.05)
    p_eval.add_argument("--tie-abs", type=float, default=1e-4)

    p_bench = sub.add_parser("benchmark", help="run a directory of task files")
    p_bench.add_argument("tasks", type=Path, nargs="+",
                         help="task files or directories of *.json task files")
    _add_fit_flags(p_bench)
    p_bench.add_argument("--tie-rel", type=float, default=0.05)
    p_bench.add_argument("--tie-abs", type=float, default=1e-4)
    p_bench.add_argument("--format", choices=("table", "json"), default="table")
    p_bench.add_argument("--seed", type=int, default=None,
                         help="recorded in the run for provenance")
    p_bench.add_argument("--strict", action="store_true",
                         help="exit 3 if any model fails to fit on any task")

    p_synth = sub.add_parser("synth", help="generate sphere-task files")
    p_synth.add_argument("--d", type=int, default=100)
    p_synth.add_argument("--delta", type=float, default=0.2)
    p_synth.add_argument("--sizes", type=str, default="4:4096:16",
                         help="geometric grid min:max:count, or comma list")
    p_synth.add_argument("--test-size", type=int, default=4000)
    p_synth.add_argument("--trials", type=int, default=16)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--curves", type=int, default=1,
                         help="number of curves (seeds seed..seed+n-1)")
    p_synth.add_argument("--out-dir", type=Path, default=Path("."))

    p_plot = sub.add_parser("plotdata", help="columnar fit data for plotting")
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
    if cutoff == "auto":  # fit has no split: the midpoint of the whole curve
        cutoff = math.sqrt(curve.xs[0] * curve.xs[-1])
    if cutoff > 0:
        curve = apply_cutoff(curve, cutoff)
    cfg = _cfg_from(args)
    models = args.model or list(MODEL_NAMES)
    out = {}
    for name in models:
        try:
            result = fit_model(name, curve, cfg)
            out[name] = {
                "params": _params_doc(result.params),
                "train_loss": result.train_loss,
                "iterations": result.iterations,
                "converged": result.converged,
            }
        except FitError as exc:
            out[name] = {"error": str(exc)}
    print(json.dumps({"task": curve.name, "fits": out}, indent=2))
    return 0


def _cmd_evaluate(args) -> int:
    split = prepare_split(load_task(args.task), args.truncate_at_peak,
                          _parse_cutoff(args.cutoff))
    tie = TieRule(abs_tol=args.tie_abs, rel_tol=args.tie_rel)
    report = evaluate_task(split, _cfg_from(args),
                           args.model or MODEL_NAMES, tie)
    print(json.dumps({
        "task": report.task,
        "tau": split.tau,
        "rmse": report.rmse_by_model,
        "winners": sorted(report.winners),
        "fitted_exponent": report.fitted_exponent_by_model,
        "diagnostics": report.diagnostics,
    }, indent=2))
    return 0


def _cmd_benchmark(args) -> int:
    paths = _expand_task_paths(args.tasks)
    tie = TieRule(abs_tol=args.tie_abs, rel_tol=args.tie_rel)
    run = run_benchmark(paths, _cfg_from(args), args.model or MODEL_NAMES,
                        tie, truncate_peak=args.truncate_at_peak,
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
    cfg = _cfg_from(args)
    fits = {}
    for name in args.model or MODEL_NAMES:
        try:
            fits[name] = fit_model(name, split.train, cfg)
        except FitError:
            pass
    if not fits:
        print("no model could be fit", file=sys.stderr)
        return FIT_ERROR
    text = emit_plot_data(split, fits, grid_points=args.grid_points)
    if args.out is None:
        print(text, end="")
    else:
        args.out.write_text(text)
    return 0


_COMMANDS = {
    "fit": _cmd_fit,
    "evaluate": _cmd_evaluate,
    "benchmark": _cmd_benchmark,
    "synth": _cmd_synth,
    "plotdata": _cmd_plotdata,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return _COMMANDS[args.command](args)
    except (OSError, TaskFormatError, CurveError, ValueError) as exc:
        print(f"scalefit: data error: {exc}", file=sys.stderr)
        return DATA_ERROR
    except FitError as exc:
        print(f"scalefit: fit error: {exc}", file=sys.stderr)
        return FIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
