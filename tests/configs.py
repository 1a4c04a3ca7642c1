"""The fit configuration shared by the test modules."""

from scalefit.fitting import FitConfig

# the paper's descent with a 1e6 times larger rate and a backtracking line
# search: aggressive but monotone, for noiseless recovery tests
FAST = FitConfig(rate_multiplier=1e6, convergence_tol=1e-13,
                 backtracking=True, max_outer_iters=5000)
