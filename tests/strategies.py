"""Hypothesis strategies shared by the property tests."""

import numpy as np
from hypothesis import strategies as st

from scalefit.curve import LearningCurve
from scalefit.models import M1Params, M2Params, M3Params, M4Params
from scalefit.synthetic import generate_from_model


@st.composite
def curves(draw, max_points=12):
    """Any valid curve of 1 to max_points points: x log-uniform in [1, e^14],
    every eps in (0, eps0).  Half of the curves with two or more points also
    hold x_max / 2, the split's tau, so that a point lands on it."""
    xs = sorted(set(np.exp(draw(st.lists(st.floats(0, 14), min_size=1,
                                         max_size=max_points))).tolist()))
    if len(xs) > 1 and draw(st.booleans()):
        xs = sorted(set(xs) | {xs[-1] / 2})[-max_points:]
    eps0 = draw(st.floats(1e-3, 1e3))
    eps = draw(st.lists(st.floats(0, eps0, exclude_min=True, exclude_max=True),
                        min_size=len(xs), max_size=len(xs)))
    return LearningCurve(tuple(xs), tuple(eps), eps0, name="task", metric="err")


@st.composite
def model_params(draw, forms=(M1Params, M2Params, M3Params, M4Params)):
    """Valid params of one of forms, every field finite and |c| <= 50, so
    that x^c on x in [1e-300, 1e300] both overflows and underflows."""
    form = draw(st.sampled_from(forms))
    beta = draw(st.floats(0, 1e300, exclude_min=True))
    c = draw(st.floats(-50, 50))
    if form is M1Params:
        return M1Params(beta, c)
    if form is M2Params:
        return M2Params(draw(st.floats(0, 1e300)), beta, c)
    if form is M3Params:
        return M3Params(beta, c, draw(st.floats(0, 1e300)))
    eps0 = draw(st.floats(1e-300, 1e300))
    eps_inf = draw(st.floats(0, eps0, exclude_max=True))
    return M4Params(eps0, eps_inf, draw(st.floats(0, 1e3)), beta, c)


def model_xs():
    """A scalar x or an array of up to 8 of them, each in [1e-300, 1e300]."""
    x = st.floats(1e-300, 1e300)
    return st.one_of(x, st.lists(x, min_size=1, max_size=8).map(np.array))


@st.composite
def small_alpha_m4_curves(draw):
    """Noisy M4 curves of 4 to 12 points whose true alpha is in [0, 0.05]:
    the fitted alpha then changes sign, and is projected to 0, at an eps_inf
    near the best one.  Every eps stays below 0.9 * eps0 for noise within
    8 sigma."""
    true = M4Params(1.0, draw(st.floats(0.0, 0.1)), draw(st.floats(0.0, 0.05)),
                    draw(st.floats(0.2, 0.5)), draw(st.floats(-0.6, -0.2)))
    xs = np.geomspace(1, 2.0 ** draw(st.integers(6, 14)), draw(st.integers(4, 12)))
    return _noisy(draw, true, xs, 1.0)


@st.composite
def top_gamma_m3_curves(draw):
    """Noisy M3 curves of 3 to 12 points with a true gamma in [1e2, 1e4],
    at or above the top of the default gamma grid, and 1/x spanning 10 to
    1e6 around it, so that the search widens its grid."""
    true = M3Params(draw(st.floats(0.5, 2.0)), draw(st.floats(0.2, 0.6)),
                    10 ** draw(st.floats(2, 4)))
    xs = np.geomspace(1e-6, 0.1, draw(st.integers(3, 12)))
    return _noisy(draw, true, xs, 1e5)


def _noisy(draw, true, xs, eps0):
    """generate_from_model(true, xs) with multiplicative noise of sigma in
    [1e-3, 0.05] from a drawn seed.  Not below: at a sigma near 1e-12 the
    square-log loss is near 1e-24, and the rounding of any two ways of
    computing it then differs by more than the oracle property's floor."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return generate_from_model(true, xs, draw(st.floats(1e-3, 0.05)), rng, eps0=eps0)
