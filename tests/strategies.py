"""Hypothesis strategies shared by the property tests."""

import numpy as np
from hypothesis import strategies as st

from scalefit.curve import LearningCurve
from scalefit.models import M1Params, M2Params, M3Params, M4Params


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
