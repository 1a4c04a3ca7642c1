"""Scaling-law estimation from learning curves.

Fits four function classes (plus a no-alpha ablation variant) to learning
curves by square-log loss, by default with an exact profile search over the
one bounded parameter (eps_inf or gamma) and the paper's gradient descent
on request, validates them by extrapolation RMSE on a held-out split, and
ships a synthetic noisy-sphere benchmark plus a task-file harness and CLI.
"""

from .curve import prepare_split, split_for_extrapolation
from .evaluation import evaluate_task
from .fitting import FitConfig
from .harness import load_task
from .models import M1Params, M2Params, M3Params, M4Params
from .synthetic import generate_from_model

__version__ = "0.1.0"
