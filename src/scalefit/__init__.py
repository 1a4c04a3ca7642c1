"""Scaling-law estimation from learning curves.

Fits four function classes (plus a no-alpha ablation variant) to learning
curves with square-log losses and block coordinate descent, validates them
by extrapolation RMSE on a held-out split, and ships a synthetic
noisy-sphere benchmark plus a task-file harness and CLI.
"""

from .curve import (
    CurveError,
    CurveSplit,
    LearningCurve,
    apply_cutoff,
    prepare_split,
    split_for_extrapolation,
    truncate_at_peak,
)
from .evaluation import (
    ABLATION_NAME,
    ALL_MODEL_NAMES,
    MODEL_NAMES,
    ExtrapolationReport,
    TieRule,
    evaluate_task,
    extrapolation_rmse,
    fit_models,
    rank_methods,
)
from .fitting import (
    DegenerateDesignError,
    FitConfig,
    FitError,
    FitResult,
    dloss_m3_dgamma,
    dloss_m4_deps_inf,
    fit_m1,
    fit_m2,
    fit_m3,
    fit_m4,
    loss_m3,
    loss_m4,
    solve_loglinear,
)
from .harness import (
    BenchmarkRun,
    TaskFormatError,
    emit_plot_data,
    emit_report,
    load_task,
    run_benchmark,
    save_task,
)
from .models import (
    M1Params,
    M2Params,
    M3Params,
    M4Params,
    m4_asymptotic_excess,
    predict,
    predict_m1,
    predict_m2,
    predict_m3,
    predict_m4,
)
from .synthetic import (
    SphereTaskSpec,
    SyntheticCurve,
    generate_from_model,
    generate_sphere_curve,
    misclassification_rate,
    sample_sphere_dataset,
    train_logistic,
)

__version__ = "0.1.0"
