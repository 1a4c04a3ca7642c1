"""Task-file ingestion, benchmark running, and report emission.

Task interchange format: one JSON document per task with fields

    name              str
    domain            str
    metric            str
    higher_is_better  bool   (accuracy-style metrics; converted at ingestion)
    loss_random_guess float  (eps0, in error/loss units)
    bayes_risk        float, optional
    points            list of [x, value] pairs

When higher_is_better is true the stored values are accuracies and are
converted to error = 1 - value once at ingestion, so all downstream code
sees losses.  Numbers are serialized at full decimal precision (repr
round-trip).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .curve import CurveError, LearningCurve, prepare_split
from .evaluation import MODEL_NAMES, TieRule, evaluate_task, rank_methods
from .fitting import FitConfig
from .models import predict


class TaskFormatError(ValueError):
    """A task document violates the interchange schema."""


_REQUIRED_FIELDS = {
    "name": str,
    "domain": str,
    "metric": str,
    "higher_is_better": bool,
    "loss_random_guess": (int, float),
    "points": list,
}


def load_task(path) -> LearningCurve:
    """Parse and convert the task document at path, then build its LearningCurve.

    Schema violations are diagnosed here; the values themselves are checked
    by LearningCurve, whose CurveError (naming the offending x) is raised as
    TaskFormatError.
    """
    try:  # parse_int=float: an integer too large for a float reads as inf
        doc = json.loads(Path(path).read_text(), parse_int=float)
    except json.JSONDecodeError as exc:
        raise TaskFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise TaskFormatError("task document must be a JSON object")
    for key, typ in _REQUIRED_FIELDS.items():
        if key not in doc:
            raise TaskFormatError(f"missing required field {key!r}")
        if not isinstance(doc[key], typ) or (isinstance(doc[key], bool) and typ is not bool):
            raise TaskFormatError(f"field {key!r} has wrong type")  # a bool is no number
    pairs = []
    for i, pt in enumerate(doc["points"]):
        if (not isinstance(pt, (list, tuple)) or len(pt) != 2
                or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pt)):
            raise TaskFormatError(f"point {i} must be a [x, value] number pair")
        x, value = float(pt[0]), float(pt[1])
        pairs.append((x, 1.0 - value if doc["higher_is_better"] else value))
    pairs.sort()
    try:
        return LearningCurve(
            tuple(x for x, _ in pairs), tuple(e for _, e in pairs),
            doc["loss_random_guess"], name=doc["name"], metric=doc["metric"],
        )
    except CurveError as exc:
        raise TaskFormatError(str(exc)) from exc


def save_task(curve: LearningCurve, path, domain: str = "synthetic",
              bayes_risk: float | None = None) -> None:
    """Write a curve as a task document (loss units, full precision)."""
    doc = {
        "name": curve.name,
        "domain": domain,
        "metric": curve.metric,
        "higher_is_better": False,
        "loss_random_guess": curve.eps0,
        "points": [[x, e] for x, e in zip(curve.xs, curve.eps)],
    }
    if bayes_risk is not None:
        doc["bayes_risk"] = bayes_risk
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


@dataclass(frozen=True)
class BenchmarkRun:
    reports: tuple
    best_fraction: dict  # model -> fraction of tasks won (rank_methods)
    skipped: tuple = ()  # (path, diagnostic) pairs


def run_benchmark(task_paths, cfg: FitConfig | None = None, models=MODEL_NAMES,
                  tie: TieRule = TieRule(), truncate_peak: bool = False,
                  cutoff=0.0) -> BenchmarkRun:
    """Split each task at tau = x_max/2, fit, score, and rank.

    Each task goes through curve.prepare_split: cutoff > 0 restricts the
    train side to x >= cutoff, and "auto" resolves it from that task's own
    train side (the holdout is always evaluated in full).  Tasks that fail
    to load or split are recorded under skipped rather than aborting;
    output ordering is by task name, independent of input order.
    """
    reports = []
    skipped = []
    for path in task_paths:
        try:
            split = prepare_split(load_task(path), truncate_peak, cutoff)
            reports.append(evaluate_task(split, cfg, models, tie))
        except (OSError, TaskFormatError, CurveError) as exc:
            skipped.append((str(path), str(exc)))
    if not reports:
        raise TaskFormatError("no loadable tasks")
    reports.sort(key=lambda r: r.task)
    return BenchmarkRun(
        reports=tuple(reports),
        best_fraction=rank_methods(reports),
        skipped=tuple(skipped),
    )


def report_doc(rep) -> dict:
    """One task's ExtrapolationReport as its JSON document, at full precision."""
    return {
        "task": rep.task,
        "rmse": rep.rmse_by_model,
        "winners": sorted(rep.winners),
        "fitted_exponent": rep.fitted_exponent_by_model,
        "diagnostics": rep.diagnostics,
    }


def emit_report(run: BenchmarkRun, format: str = "table") -> str:
    """Render a benchmark run.

    "table": tab-separated rows per task, RMSEs in scientific notation with
    two significant digits, winners flagged with '*', plus a best-fraction
    summary.  "json": report_doc per task, best_fraction and skipped, in full.
    """
    model_names = list(run.reports[0].rmse_by_model)
    if format == "json":
        doc = {
            "tasks": [report_doc(rep) for rep in run.reports],
            "best_fraction": run.best_fraction,
            "skipped": [list(s) for s in run.skipped],
        }
        return json.dumps(doc, indent=2)
    if format != "table":
        raise ValueError(f"unknown report format: {format!r}")

    lines = ["\t".join(["task"] + model_names)]
    for rep in run.reports:
        cells = [rep.task]
        for m in model_names:
            flag = "*" if m in rep.winners else ""
            cells.append(f"{rep.rmse_by_model[m]:.1e}{flag}")
        lines.append("\t".join(cells))
    lines.append("")
    lines.append("\t".join(["best_fraction"] +
                           [f"{run.best_fraction[m]:.3f}"
                            for m in model_names]))
    if run.skipped:
        lines.append("")
        for path, why in run.skipped:
            lines.append(f"skipped\t{path}\t{why}")
    return "\n".join(lines) + "\n"


def emit_plot_data(split, fits: dict, grid_points: int = 50) -> str:
    """Columnar (CSV) data for plotting fits against observed points.

    Rows cover a geometric x grid from the train minimum to the holdout
    maximum with one prediction column per fitted model, plus the observed
    points tagged train/holdout.
    """
    names = list(fits)
    grid = np.geomspace(split.train.xs[0], split.holdout.xs[-1], grid_points)
    preds = {m: np.asarray(predict(fits[m].params, grid), dtype=float) for m in names}

    header = ["x"] + [f"pred_{m}" for m in names] + ["observed", "split"]
    rows = [",".join(header)]
    for i, x in enumerate(grid):
        cells = [repr(float(x))] + [repr(float(preds[m][i])) for m in names] + ["", ""]
        rows.append(",".join(cells))
    for curve, tag in ((split.train, "train"), (split.holdout, "holdout")):
        for x, e in zip(curve.xs, curve.eps):
            cells = [repr(x)] + [""] * len(names) + [repr(e), tag]
            rows.append(",".join(cells))
    return "\n".join(rows) + "\n"
