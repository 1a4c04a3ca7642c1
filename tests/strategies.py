"""Hypothesis strategies shared by the property tests."""

import numpy as np
from hypothesis import strategies as st

from scalefit.curve import LearningCurve


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
