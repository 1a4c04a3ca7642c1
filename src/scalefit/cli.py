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
only), 3 fit failure under --strict or when plotdata fits no model; a stdout
closed by its reader (as by `| head`) leaves the exit code as it is.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
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
    # each descent flag is a FitConfig field, present in args only when given
    p.add_argument("--lr", dest="learning_rate", type=float, default=argparse.SUPPRESS,
                   help=f"gradient learning rate (descent; default {FitConfig.learning_rate})")
    p.add_argument("--max-iters", dest="max_outer_iters", type=int, default=argparse.SUPPRESS,
                   help="max outer coordinate-descent iterations (descent)")
    p.add_argument("--truncate-at-peak", action="store_true",
                   help="truncate each curve at its first loss minimum")


def _cfg_from(args) -> FitConfig | None:
    """None, the profile search, unless a descent flag is given: then the
    descent, with FitConfig's defaults for the flags not given."""
    given = {k: v for k, v in vars(args).items() if k in FitConfig.__dataclass_fields__}
    return FitConfig(**given) if given else None


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="scalefit",
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
    p_bench.add_argument("--strict", action="store_true",
                         help="exit 3 if any model fails to fit on any task")

    p_synth = sub.add_parser("synth", help="generate sphere-task files")
    p_synth.set_defaults(run=_cmd_synth)
    p_synth.add_argument("--d", type=int, default=100)
    p_synth.add_argument("--delta", type=float, default=0.2)
    p_synth.add_argument("--sizes", type=str, default="4:4096:16",
                         help="geometric grid LO:HI:COUNT, or comma list")
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


@np.errstate(invalid="ignore")  # an infinite LO or HI fails in int(), not in geomspace
def _parse_sizes(spec: str):
    try:
        if ":" not in spec:
            return tuple(int(s) for s in spec.split(","))
        lo, hi, count = spec.split(":")
        grid = np.geomspace(float(lo), float(hi), int(count))
        return tuple(sorted({int(round(v)) for v in grid}))
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"--sizes {spec!r} is not LO:HI:COUNT or a comma list ({exc})") from None


def _expand_task_paths(paths):
    return [q for p in paths for q in (sorted(p.glob("*.json")) if p.is_dir() else [p])]


def _write(text: str) -> None:
    """Write to stdout now; once its reader has gone (as by `| head`), the
    rest, and the flush at exit, go to os.devnull and are not an error."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _cmd_fit(args) -> int:
    curve = load_task(args.task)
    if args.truncate_at_peak:
        curve = truncate_at_peak(curve)
    cutoff = _parse_cutoff(args.cutoff)
    if cutoff != 0:  # fit has no split: "auto" is the midpoint of the whole curve
        curve = apply_cutoff(curve, cutoff)
    fits = fit_models(curve, _cfg_from(args), args.model or MODEL_NAMES)
    _write(json.dumps({"task": curve.name,
                       "fits": {m: _fit_doc(f) for m, f in fits.items()}}, indent=2) + "\n")
    return 0


def _cmd_evaluate(args) -> int:
    split = prepare_split(load_task(args.task), args.truncate_at_peak,
                          _parse_cutoff(args.cutoff))
    report = evaluate_task(split, _cfg_from(args), args.model or MODEL_NAMES,
                           TieRule(abs_tol=args.tie_abs, rel_tol=args.tie_rel))
    _write(json.dumps({"task": report.task, "tau": split.tau, **report_doc(report)},
                      indent=2) + "\n")
    return 0


def _cmd_benchmark(args) -> int:
    paths = _expand_task_paths(args.tasks)
    run = run_benchmark(paths, _cfg_from(args), args.model or MODEL_NAMES,
                        TieRule(abs_tol=args.tie_abs, rel_tol=args.tie_rel),
                        truncate_peak=args.truncate_at_peak,
                        cutoff=_parse_cutoff(args.cutoff))
    _write(emit_report(run, format=args.format))
    if args.strict and any(rep.diagnostics for rep in run.reports):
        return FIT_ERROR
    return 0


def _cmd_synth(args) -> int:
    if args.curves < 1:
        raise ValueError("curves must be positive")
    # each curve's spec is this one with another seed: all are checked before mkdir
    spec = SphereTaskSpec(d=args.d, delta=args.delta, sample_sizes=_parse_sizes(args.sizes),
                          test_size=args.test_size, trials=args.trials, seed=args.seed)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for k in range(args.curves):
        synth = generate_sphere_curve(replace(spec, seed=args.seed + k))
        path = args.out_dir / f"{synth.curve.name}.json"
        save_task(synth.curve, path, domain="synthetic",
                  bayes_risk=synth.bayes_risk)
        _write(f"{path}\n")
    return 0


def _cmd_plotdata(args) -> int:
    if args.grid_points < 1:
        raise ValueError("--grid-points must be positive")
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
        _write(text)
    else:
        args.out.write_text(text)
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return USAGE_ERROR if exc.code else 0
    try:
        return args.run(args)
    except (OSError, TaskFormatError, CurveError, ValueError) as exc:
        print(f"scalefit: data error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
