import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from strategies import model_params, model_xs
from scalefit.models import (
    M4_ROOT_TOL,
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


class TestParamInvariants:
    def test_beta_positive(self):
        with pytest.raises(ValueError):
            M1Params(beta=0.0, c=-0.5)

    def test_m4_eps_inf_below_eps0(self):
        with pytest.raises(ValueError):
            M4Params(eps0=0.5, eps_inf=0.5, alpha=1, beta=1, c=-1)

    def test_m4_alpha_nonnegative(self):
        with pytest.raises(ValueError):
            M4Params(eps0=1, eps_inf=0, alpha=-0.1, beta=1, c=-1)


class TestPredictM1:
    def test_values(self):
        assert predict_m1(M1Params(1, -0.5), 4) == pytest.approx(0.5)
        assert predict_m1(M1Params(0.5, 0.0), 123.0) == pytest.approx(0.5)
        assert predict_m1(M1Params(2, -1), 10) == pytest.approx(0.2)

    def test_log_linearity(self):
        p = M1Params(0.7, -0.33)
        x = np.geomspace(1, 1e6, 20)
        logy = np.log(predict_m1(p, x))
        slopes = np.diff(logy) / np.diff(np.log(x))
        assert np.allclose(slopes, p.c, atol=1e-12)


class TestPredictM2:
    def test_values(self):
        assert predict_m2(M2Params(0.1, 1, -0.5), 4) == pytest.approx(0.6)

    def test_reduces_to_m1_at_zero_eps_inf(self):
        x = np.geomspace(1, 100, 7)
        assert np.allclose(predict_m2(M2Params(0, 1.3, -0.4), x),
                           predict_m1(M1Params(1.3, -0.4), x))

    def test_limit_is_eps_inf(self):
        p = M2Params(0.1, 1, -0.5)
        assert abs(predict_m2(p, 1e12) - p.eps_inf) <= p.beta * 1e12**p.c + 1e-15


class TestPredictM3:
    def test_values(self):
        assert predict_m3(M3Params(1, 0.5, 0.0), 4) == pytest.approx(0.5)
        assert predict_m3(M3Params(1, 1.0, 0.25), 4) == pytest.approx(0.5)

    def test_gamma_zero_is_power_law(self):
        # with gamma 0: beta * x^(-c)
        p = M3Params(0.8, 0.45, 0.0)
        x = np.geomspace(1, 1e4, 9)
        assert np.allclose(predict_m3(p, x), 0.8 * x**-0.45)


class TestPredictM4:
    def test_closed_form_alpha_one(self):
        # eps / (1 - eps) = 1/3  ->  eps = 0.25
        p = M4Params(eps0=1, eps_inf=0, alpha=1, beta=1, c=-1)
        assert predict_m4(p, 3.0) == pytest.approx(0.25, abs=1e-10)

    def test_alpha_zero_equals_m2(self):
        p4 = M4Params(eps0=1, eps_inf=0.1, alpha=0, beta=1, c=-0.5)
        assert predict_m4(p4, 4.0) == pytest.approx(0.6, abs=0)
        x = np.geomspace(0.1, 1e5, 40)
        assert np.array_equal(predict_m4(p4, x),
                              predict_m2(M2Params(0.1, 1, -0.5), x))

    def test_bisection_residual(self):
        p = M4Params(eps0=1, eps_inf=0.05, alpha=2, beta=0.8, c=-0.4)
        eps = predict_m4(p, 100.0)
        g = (eps - p.eps_inf) / (p.eps0 - eps) ** p.alpha
        assert abs(g - p.beta * 100.0**p.c) < 1e-10

    def test_bisection_residual_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = M4Params(eps0=1.0, eps_inf=rng.uniform(0, 0.4),
                         alpha=rng.uniform(0.1, 2.5), beta=rng.uniform(0.1, 2),
                         c=rng.uniform(-1.2, -0.1))
            x = float(rng.uniform(0.5, 1e5))
            eps = predict_m4(p, x)
            g = (eps - p.eps_inf) / (p.eps0 - eps) ** p.alpha
            assert abs(g - p.beta * x**p.c) < 1e-10

    def test_convex_combination_identity(self):
        # at alpha=1 the prediction is the gamma(x)-weighted mix of eps0 and eps_inf
        p = M4Params(eps0=0.9, eps_inf=0.2, alpha=1, beta=1.4, c=-0.6)
        for x in np.geomspace(1, 1e4, 12):
            g = p.beta * x**p.c
            mix = g / (1 + g) * p.eps0 + 1 / (1 + g) * p.eps_inf
            assert predict_m4(p, float(x)) == pytest.approx(mix, abs=1e-12)

    @given(
        st.floats(0.0, 0.4),
        st.floats(0.05, 2.5),
        st.floats(0.1, 2.0),
        st.floats(-1.2, -0.05),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_decreasing_and_in_range(self, eps_inf, alpha, beta, c):
        p = M4Params(eps0=1.0, eps_inf=eps_inf, alpha=alpha, beta=beta, c=c)
        x = np.geomspace(1, 1e5, 25)
        y = predict_m4(p, x)
        assert np.all(np.diff(y) < 0)
        assert np.all(y > eps_inf) and np.all(y < 1.0)

    def test_nonfinite_rejected(self):
        p = M4Params(eps0=1, eps_inf=0, alpha=1, beta=1, c=-1)
        with pytest.raises(ValueError):
            predict_m4(p, 0.0)

    def test_overflow_is_inf(self):
        p = M4Params(eps0=1, eps_inf=0.1, alpha=0.5, beta=1, c=-400)
        y = predict(p, np.array([1e-3, 1.0]))
        assert y[0] == math.inf and 0.1 < y[1] < 1

    @given(model_params(forms=(M4Params,)), model_xs())
    @example(M4Params(1e5, 6.2, 64.0, 1e-310, -0.3), 10.0)  # (eps0 - eps)^alpha overflows
    @example(M4Params(3.0, 0.0, 647.0, 5e-324, 0.0), 1.0)  # root below the clamp
    @example(M4Params(1.0, 0.1, 0.5, 1e-300, -50.0), 1e300)  # beta * x^c underflows to 0
    @example(M4Params(1.0, 0.5, 2.0, 1e40, 0.0), 1.0)  # root within an ulp of eps0
    @settings(max_examples=300, deadline=None)
    def test_inverts_the_residual(self, p, x):
        # the bracket is the tolerance the root is found to, widened to one
        # ulp of the root where the interval is too narrow for that tolerance;
        # a root within half an ulp of eps_inf or eps0 rounds onto it
        assume(p.alpha > 0)
        with np.errstate(over="ignore"):
            t = p.beta * np.asarray(x, dtype=float) ** p.c
        assume(np.all(np.isfinite(t)))
        width = p.eps0 - p.eps_inf
        for eps, t_k in zip(np.atleast_1d(predict(p, x)), np.atleast_1d(t)):
            assert p.eps_inf <= eps <= p.eps0
            delta = max(M4_ROOT_TOL * width, np.spacing(eps))
            log_t = math.log(t_k) if t_k > 0 else -math.inf
            assert self._log_g(p, eps - delta) <= log_t <= self._log_g(p, eps + delta)

    @staticmethod
    def _log_g(p, eps):
        """log(eps - eps_inf) - alpha * log(eps0 - eps), -inf and inf at the
        ends: the log of (eps - eps_inf) / (eps0 - eps)^alpha, which cannot
        overflow."""
        if eps <= p.eps_inf:
            return -math.inf
        if eps >= p.eps0:
            return math.inf
        return math.log(eps - p.eps_inf) - p.alpha * math.log(p.eps0 - eps)

    def test_agrees_with_the_bisection(self):
        # criterion 5's draws (seed 5, same ranges), where g does not overflow
        rng = np.random.default_rng(5)
        for k in range(1000):
            eps0 = rng.uniform(0.5, 3.0)
            eps_inf = rng.uniform(0.0, 0.5 * eps0)
            alpha = 0.0 if k % 5 == 0 else rng.uniform(0.1, 3.0)
            p = M4Params(eps0, eps_inf, alpha, rng.uniform(0.05, 5.0),
                         rng.uniform(-1.0, -0.1))
            xs = np.geomspace(1.0, 10 ** rng.uniform(2, 5), 12)
            y = predict_m4(p, xs)
            assert np.max(np.abs(y - _bisect_m4(p, xs))) <= M4_ROOT_TOL * (eps0 - eps_inf)
            assert predict_m4(p, xs[-1]) == predict_m4(p, xs[-1:])[0]


def _bisect_m4(p, x):
    """Bisection of g in linear space to M4_ROOT_TOL, the reference for
    predict_m4: valid only where (eps0 - eps)^alpha stays in float range."""
    target = p.beta * np.asarray(x, dtype=float) ** p.c
    if p.alpha == 0:
        return p.eps_inf + target
    t = np.atleast_1d(target)
    width = p.eps0 - p.eps_inf
    pad = 1e-15 * width
    lo = np.full_like(t, p.eps_inf + pad)
    hi = np.full_like(t, p.eps0 - pad)

    def g(eps):
        return (eps - p.eps_inf) / (p.eps0 - eps) ** p.alpha

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        # stop once floating point can no longer split the interval
        stuck = (mid <= lo) | (mid >= hi)
        if np.all(stuck) or np.max(hi - lo) < M4_ROOT_TOL * width:
            break
        below = g(mid) < t
        lo = np.where(below & ~stuck, mid, lo)
        hi = np.where(~below & ~stuck, mid, hi)
    return np.where(t < np.inf, 0.5 * (lo + hi), np.inf).reshape(np.shape(target))


class TestAsymptoticExcess:
    def test_alpha_zero_exact(self):
        p = M4Params(eps0=1, eps_inf=0.1, alpha=0, beta=1.2, c=-0.5)
        x = np.geomspace(1, 1e4, 7)
        assert np.allclose(m4_asymptotic_excess(p, x), 1.2 * x**-0.5)

    def test_alpha_one_example(self):
        p = M4Params(eps0=1, eps_inf=0, alpha=1, beta=1, c=-1)
        approx = m4_asymptotic_excess(p, 10.0)
        assert approx == pytest.approx(0.09)
        exact = predict_m4(p, 10.0)  # 1/11
        assert exact == pytest.approx(1 / 11, abs=1e-10)
        assert abs(approx - exact) < 2 * 10.0 ** (3 * p.c)

    def test_error_shrinks_with_x(self):
        p = M4Params(eps0=1, eps_inf=0.1, alpha=1.3, beta=0.8, c=-0.5)

        def rel(x):
            exact = predict_m4(p, x) - p.eps_inf
            return abs(m4_asymptotic_excess(p, x) - exact) / exact

        assert rel(1e4) < rel(1e2)

    def test_singular_case(self):
        # eps0 == eps_inf is unrepresentable by the params type itself
        with pytest.raises(ValueError):
            M4Params(eps0=0.3, eps_inf=0.3, alpha=0.3, beta=1, c=-1)


class TestDispatch:
    def test_predict_dispatch(self):
        assert predict(M1Params(1, -1), 2.0) == pytest.approx(0.5)
        assert predict(M2Params(0.1, 1, -1), 2.0) == pytest.approx(0.6)
        assert predict(M3Params(1, 1, 0.0), 2.0) == pytest.approx(0.5)
        assert predict(M4Params(1, 0, 1, 1, -1), 1.0) == pytest.approx(0.5, abs=1e-10)

    def test_unknown_type(self):
        with pytest.raises(TypeError):
            predict(object(), 1.0)

    @pytest.mark.parametrize("p", [M1Params(1, -0.5), M2Params(0.1, 1, -0.5),
                                   M3Params(1, 0.5, 0.1), M4Params(1, 0.1, 0.5, 1, -0.5)])
    def test_nan_x_rejected(self, p):
        # NaN <= 0 is false, so a "nonpositive" check alone lets it through
        with pytest.raises(ValueError, match="strictly positive"):
            predict(p, np.array([np.nan, 2.0]))

    @given(model_params(), model_xs())
    @settings(max_examples=500, deadline=None)
    def test_total_and_silent(self, p, x):
        # any warning is an error in this suite, so predict must not warn
        y = np.asarray(predict(p, x))
        assert y.shape == np.shape(x)
        assert np.all(y >= 0)  # no NaN and no -inf; +inf where it overflows
