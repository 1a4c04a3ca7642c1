import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import curves
from scalefit.curve import (
    CurveError,
    LearningCurve,
    apply_cutoff,
    prepare_split,
    split_for_extrapolation,
    truncate_at_peak,
)


def make_curve(xs, eps, eps0=1.0, **kw):
    return LearningCurve(tuple(xs), tuple(eps), eps0, **kw)


class TestLearningCurve:
    def test_valid_construction(self):
        c = make_curve([1, 2, 4], [0.5, 0.4, 0.3])
        assert len(c) == 3
        assert c.eps0 == 1.0

    def test_rejects_nonpositive_x(self):
        with pytest.raises(CurveError):
            make_curve([0, 1], [0.5, 0.4])

    def test_rejects_unsorted_and_duplicate_x(self):
        with pytest.raises(CurveError):
            make_curve([2, 1], [0.5, 0.4])
        with pytest.raises(CurveError):
            make_curve([1, 1], [0.5, 0.4])

    def test_rejects_eps_at_or_above_eps0(self):
        with pytest.raises(CurveError):
            make_curve([1, 2], [0.5, 1.0])  # equality: log(eps0 - eps) infinite
        with pytest.raises(CurveError):
            make_curve([1, 2], [0.5, 1.5])

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(CurveError):
            make_curve([1, 2], [0.5, 0.0])

    @pytest.mark.parametrize("xs, eps, message", [
        ([1, 0], [0.5, 0.4], "nonpositive x 0.0"),
        ([1, float("inf")], [0.5, 0.4], "x inf is not finite"),
        ([1, 2, 2], [0.5, 0.4, 0.3], "duplicate x 2.0"),
        ([2, 1], [0.5, 0.4], "x 1.0 follows x 2.0; x must be strictly increasing"),
        ([1, 2], [0.5, 1.0], "eps 1.0 at x 2.0 outside (0, eps0=1.0); "
                             "log(eps0 - eps) would be undefined"),
    ])
    def test_diagnostic_names_the_x(self, xs, eps, message):
        with pytest.raises(CurveError) as info:
            make_curve(xs, eps)
        assert str(info.value) == message

    def test_immutable(self):
        c = make_curve([1, 2], [0.5, 0.4])
        with pytest.raises(AttributeError):
            c.eps0 = 2.0


class TestApplyCutoff:
    def test_restriction(self):
        c = make_curve([1, 2, 4, 8], [0.5, 0.4, 0.3, 0.2])
        assert apply_cutoff(c, 3).xs == (4.0, 8.0)

    def test_zero_cutoff_identity(self):
        c = make_curve([1, 2, 4], [0.5, 0.4, 0.3])
        assert apply_cutoff(c, 0) == c

    def test_preserves_metadata(self):
        c = make_curve([1, 2, 4], [0.5, 0.4, 0.3], name="t", metric="err")
        out = apply_cutoff(c, 2)
        assert (out.eps0, out.name, out.metric) == (c.eps0, "t", "err")

    def test_insufficient_points(self):
        c = make_curve([1, 2, 4], [0.5, 0.4, 0.3])
        with pytest.raises(CurveError, match="insufficient points"):
            apply_cutoff(c, 4)

    def test_nested_cutoffs(self):
        # larger cutoffs keep subsets of smaller ones
        c = make_curve(np.geomspace(1, 256, 9), np.linspace(0.5, 0.1, 9))
        sizes = [len(apply_cutoff(c, t)) for t in (0, 2, 8, 32)]
        assert sizes == sorted(sizes, reverse=True)
        for t1, t2 in [(0, 2), (2, 8), (8, 32)]:
            assert set(apply_cutoff(c, t2).xs) <= set(apply_cutoff(c, t1).xs)

    @given(st.integers(min_value=0, max_value=64))
    @settings(max_examples=30, deadline=None)
    def test_idempotent(self, tau):
        c = make_curve(np.geomspace(1, 256, 9), np.linspace(0.5, 0.1, 9))
        try:
            once = apply_cutoff(c, tau)
        except CurveError:
            return
        assert apply_cutoff(once, tau) == once


class TestSplitForExtrapolation:
    def test_basic_split(self):
        c = make_curve(range(1, 11), np.linspace(0.5, 0.1, 10))
        s = split_for_extrapolation(c)
        assert s.tau == 5
        assert s.train.xs == tuple(float(i) for i in range(1, 6))
        assert s.holdout.xs == tuple(float(i) for i in range(6, 11))

    def test_partition(self):
        c = make_curve(np.geomspace(1, 300, 13), np.linspace(0.5, 0.1, 13))
        s = split_for_extrapolation(c)
        assert len(s.train) + len(s.holdout) == len(c)
        assert max(s.train.xs) <= s.tau < min(s.holdout.xs)

    def test_geometric_grid_single_holdout(self):
        c = make_curve([2**k for k in range(11)], np.linspace(0.5, 0.1, 11))
        s = split_for_extrapolation(c)
        assert s.tau == 512
        assert s.holdout.xs == (1024.0,)

    def test_two_points_rejected(self):
        # train side would hold a single point, below any fit minimum
        c = make_curve([1, 2], [0.5, 0.4])
        with pytest.raises(CurveError):
            split_for_extrapolation(c)


class TestTruncateAtPeak:
    def test_truncates_after_min(self):
        c = make_curve([1, 2, 3, 4, 5], [0.9, 0.5, 0.3, 0.4, 0.6])
        assert truncate_at_peak(c).eps == (0.9, 0.5, 0.3)

    def test_monotone_unchanged(self):
        c = make_curve([1, 2, 3], [0.5, 0.4, 0.3])
        assert truncate_at_peak(c) == c

    def test_tie_first_occurrence(self):
        c = make_curve([1, 2, 3, 4], [0.9, 0.3, 0.5, 0.3])
        assert truncate_at_peak(c).xs == (1.0, 2.0)

    def test_prefix_and_min_property(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 15))
            eps = rng.uniform(0.05, 0.9, n)
            c = make_curve(np.arange(1, n + 1), eps)
            out = truncate_at_peak(c)
            assert out.xs == c.xs[: len(out)]
            assert out.eps[-1] == min(c.eps)


class TestPrepareSplit:
    def test_default_is_plain_split(self):
        c = make_curve([1, 2, 4, 8, 16], [0.5, 0.4, 0.3, 0.25, 0.2])
        assert prepare_split(c) == split_for_extrapolation(c)

    def test_truncate_then_split_then_cutoff(self):
        c = make_curve([1, 2, 4, 8, 16, 32, 64], [0.5, 0.4, 0.3, 0.25, 0.2, 0.15, 0.3])
        s = prepare_split(c, truncate_peak=True, cutoff=2)
        assert s.tau == 16.0
        assert s.train.xs == (2.0, 4.0, 8.0, 16.0)
        assert s.holdout.xs == (32.0,)

    def test_auto_is_midpoint_of_own_train_side(self):
        # train sides [1, 32] and [1e3, 5e5]: midpoints 5.66 and 22361
        for xs, kept in (([1, 2, 4, 8, 16, 32, 64], (8.0, 16.0, 32.0)),
                         ([1e3, 1e4, 1e5, 5e5, 1e6], (1e5, 5e5))):
            c = make_curve(xs, np.linspace(0.5, 0.2, len(xs)))
            s = prepare_split(c, cutoff="auto")
            assert s.train.xs == kept
            assert s.holdout == split_for_extrapolation(c).holdout

    def test_negative_cutoff_rejected(self):
        c = make_curve([1, 2, 4, 8], [0.5, 0.4, 0.3, 0.2])
        with pytest.raises(CurveError):
            prepare_split(c, cutoff=-1.0)


# Each sub-curve by its definition, as a filter over the (x, eps) points;
# None where the definition leaves too few points or the cutoff is invalid.
def filter_cutoff(points, tau):
    if tau == "auto":
        tau = math.sqrt(points[0][0] * points[-1][0])
    kept = [p for p in points if p[0] >= tau]
    return kept if tau >= 0 and len(kept) >= 2 else None


def filter_split(points):
    tau = max(x for x, _ in points) / 2
    train = [p for p in points if p[0] <= tau]
    holdout = [p for p in points if p[0] > tau]
    return (train, holdout, tau) if len(train) >= 2 else None


def filter_peak(points):
    lowest = min(e for _, e in points)
    first = next(i for i, (_, e) in enumerate(points) if e == lowest)
    return points[: first + 1]


@st.composite
def curve_and_cutoff(draw):
    c = draw(curves())
    cutoff = draw(st.one_of(
        st.floats(), st.sampled_from((0, 0.0, -0.0, math.nan, math.inf, -math.inf)),
        st.just("auto"), st.sampled_from(c.xs)))
    return c, cutoff


class TestSubCurvesMatchFilters:
    """apply_cutoff, split_for_extrapolation, truncate_at_peak and
    prepare_split return what the filter definitions above give, or raise
    CurveError where those give None."""

    @staticmethod
    def check(got, want, like):
        assert list(zip(got.xs, got.eps)) == want
        assert (got.eps0, got.name, got.metric) == (like.eps0, like.name, like.metric)

    def check_split(self, make, want, like):
        if want is None:
            with pytest.raises(CurveError):
                make()
            return
        split = make()
        self.check(split.train, want[0], like)
        self.check(split.holdout, want[1], like)
        assert split.tau == want[2]

    @given(curve_and_cutoff(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_against_filter_definitions(self, drawn, truncate):
        c, cutoff = drawn
        points = list(zip(c.xs, c.eps))
        want = filter_cutoff(points, cutoff)
        if want is None:
            with pytest.raises(CurveError):
                apply_cutoff(c, cutoff)
        else:
            self.check(apply_cutoff(c, cutoff), want, c)
        self.check_split(lambda: split_for_extrapolation(c), filter_split(points), c)
        self.check(truncate_at_peak(c), filter_peak(points), c)

        want = filter_split(filter_peak(points) if truncate else points)
        if want is not None and cutoff != 0:
            train = filter_cutoff(want[0], cutoff)
            want = None if train is None else (train, *want[1:])
        self.check_split(lambda: prepare_split(c, truncate, cutoff), want, c)
