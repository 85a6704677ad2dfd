"""Tests for the interval-based sliding extrema trackers (paper Section 4.1.1)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, StreamError
from repro.structures.intervals import IntervalExtremaTracker
from repro.structures.time_intervals import TimeIntervalExtremaTracker


class TestIntervalExtremaTracker:
    def test_tracks_min_within_first_interval(self):
        t = IntervalExtremaTracker(window=100, num_intervals=10, mode="min")
        for v in [5.0, 3.0, 8.0]:
            t.push(v)
        assert t.extremum() == 3.0

    def test_interval_length_ceil(self):
        t = IntervalExtremaTracker(window=10, num_intervals=3)
        assert t.interval_length == 4  # ceil(10/3)

    def test_extremum_before_push_raises(self):
        t = IntervalExtremaTracker(window=10, num_intervals=2)
        with pytest.raises(StreamError):
            t.extremum()
        with pytest.raises(StreamError):
            t.worst_local()

    def test_expired_minimum_is_eventually_forgotten(self):
        # Window 20, 4 intervals of 5: a deep minimum in the first interval
        # must disappear once its interval rotates out.
        t = IntervalExtremaTracker(window=20, num_intervals=4, mode="min")
        t.push(1.0)
        for _ in range(30):
            t.push(10.0)
        assert t.extremum() == 10.0

    def test_min_never_above_true_window_min(self):
        # Retained intervals are a superset of the window, so the tracked
        # minimum is a lower bound on the true window minimum.
        values = [7.0, 3.0, 9.0, 4.0, 8.0, 2.0, 6.0, 5.0, 1.0, 9.0] * 5
        window = 10
        t = IntervalExtremaTracker(window=window, num_intervals=5, mode="min")
        for i, v in enumerate(values):
            t.push(v)
            true_min = min(values[max(0, i - window + 1) : i + 1])
            assert t.extremum() <= true_min

    def test_max_mode_symmetry(self):
        t = IntervalExtremaTracker(window=10, num_intervals=2, mode="max")
        for v in [1.0, 9.0, 2.0]:
            t.push(v)
        assert t.extremum() == 9.0
        assert t.worst_local() <= 9.0

    def test_worst_local_bounds_extremum(self):
        t = IntervalExtremaTracker(window=12, num_intervals=4, mode="min")
        for v in [5.0, 1.0, 8.0, 9.0, 2.0, 7.0, 3.0, 4.0, 6.0, 5.5, 2.5, 1.5]:
            t.push(v)
        assert t.extremum() <= t.worst_local()

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            IntervalExtremaTracker(0, 1)
        with pytest.raises(ConfigurationError):
            IntervalExtremaTracker(10, 0)
        with pytest.raises(ConfigurationError):
            IntervalExtremaTracker(10, 11)
        with pytest.raises(ConfigurationError):
            IntervalExtremaTracker(10, 2, mode="avg")

    def test_state_is_bounded(self):
        t = IntervalExtremaTracker(window=1000, num_intervals=8, mode="min")
        for v in range(5000):
            t.push(float(v))
        assert len(t) <= 9  # 8 completed + 1 partial

    @given(
        window=st.integers(2, 30),
        values=st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=150),
    )
    @settings(max_examples=80, deadline=None)
    def test_min_is_conservative_bound(self, window, values):
        num_intervals = max(1, window // 3)
        t = IntervalExtremaTracker(window=window, num_intervals=num_intervals, mode="min")
        for i, v in enumerate(values):
            t.push(v)
            true_min = min(values[max(0, i - window + 1) : i + 1])
            # Conservative: never above the true window min, and never below
            # the min over the retained super-window (at most num_intervals
            # completed intervals plus the current partial one).
            span = (num_intervals + 1) * t.interval_length
            retained = values[max(0, i - span + 1) : i + 1]
            assert min(retained) <= t.extremum() <= true_min


class _FoldIntervalTracker(IntervalExtremaTracker):
    """The two-argument folds the builtin reductions replaced, verbatim."""

    def _better(self, a: float, b: float) -> float:
        return min(a, b) if self._mode == "min" else max(a, b)

    def _worse(self, a: float, b: float) -> float:
        return max(a, b) if self._mode == "min" else min(a, b)

    def push(self, value: float) -> None:
        self._total_seen += 1
        if self._current is None:
            self._current = value
        else:
            self._current = self._better(self._current, value)
        self._current_count += 1
        if self._current_count == self._interval_length:
            self._locals.append(self._current)
            self._current = None
            self._current_count = 0
            while len(self._locals) > self._max_intervals:
                self._locals.popleft()

    def extremum(self) -> float:
        values = self._all_locals()
        if not values:
            raise StreamError("extremum() before any value was pushed")
        best = values[0]
        for v in values[1:]:
            best = self._better(best, v)
        return best

    def worst_local(self) -> float:
        values = self._all_locals()
        if not values:
            raise StreamError("worst_local() before any value was pushed")
        worst = values[0]
        for v in values[1:]:
            worst = self._worse(worst, v)
        return worst


class _FoldTimeTracker(TimeIntervalExtremaTracker):
    """The time tracker's two-argument folds, verbatim."""

    def _better(self, a: float, b: float) -> float:
        return min(a, b) if self._mode == "min" else max(a, b)

    def _worse(self, a: float, b: float) -> float:
        return max(a, b) if self._mode == "min" else min(a, b)

    def push(self, time: float, value: float) -> None:
        if self._last_time is not None and time < self._last_time:
            raise StreamError(
                f"timestamps must be non-decreasing: {time} after {self._last_time}"
            )
        self._last_time = time
        index = int(time // self._slice_length)
        if self._slices and self._slices[-1][0] == index:
            old = self._slices[-1][1]
            self._slices[-1] = (index, self._better(old, value))
        else:
            self._slices.append((index, value))
        self._expire(time)

    def extremum(self) -> float:
        if not self._slices:
            raise StreamError("extremum() before any value was pushed")
        best = self._slices[0][1]
        for _, value in self._slices:
            best = self._better(best, value)
        return best

    def worst_local(self) -> float:
        if not self._slices:
            raise StreamError("worst_local() before any value was pushed")
        worst = self._slices[0][1]
        for _, value in self._slices:
            worst = self._worse(worst, value)
        return worst


# Signed zeros and repeats make ties, where the kept element's sign shows.
_TIE_HEAVY = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0]),
    st.floats(-1e3, 1e3),
)


class TestReductionsMatchFolds:
    """The builtin ``min``/``max`` reductions answer, by ``repr``, what the
    two-argument folds answered, ties on ``±0.0`` included."""

    @given(
        window=st.integers(1, 24),
        num_intervals=st.integers(1, 8),
        mode=st.sampled_from(["min", "max"]),
        values=st.lists(_TIE_HEAVY, min_size=1, max_size=120),
    )
    @settings(max_examples=300, deadline=None)
    def test_interval_tracker(self, window, num_intervals, mode, values):
        num_intervals = min(num_intervals, window)
        new = IntervalExtremaTracker(window, num_intervals, mode)
        old = _FoldIntervalTracker(window, num_intervals, mode)
        for v in values:
            new.push(v)
            old.push(v)
            assert repr(new.extremum()) == repr(old.extremum())
            assert repr(new.worst_local()) == repr(old.worst_local())
            assert repr(new._current) == repr(old._current)

    @given(
        duration=st.floats(0.5, 20.0),
        num_intervals=st.integers(1, 8),
        mode=st.sampled_from(["min", "max"]),
        steps=st.lists(
            st.tuples(st.floats(0.0, 3.0), _TIE_HEAVY), min_size=1, max_size=120
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_time_tracker(self, duration, num_intervals, mode, steps):
        new = TimeIntervalExtremaTracker(duration, num_intervals, mode)
        old = _FoldTimeTracker(duration, num_intervals, mode)
        now = 0.0
        for gap, v in steps:
            now += gap
            new.push(now, v)
            old.push(now, v)
            assert repr(new.extremum()) == repr(old.extremum())
            assert repr(new.worst_local()) == repr(old.worst_local())
            assert repr(list(new._slices)) == repr(list(old._slices))

    @pytest.mark.parametrize("mode", ["min", "max"])
    def test_signed_zero_ties_keep_the_oldest(self, mode):
        # One value per interval, so each zero is its own local extremum.
        t = IntervalExtremaTracker(window=4, num_intervals=4, mode=mode)
        for v in (-0.0, 0.0, -0.0, 0.0):
            t.push(v)
        assert repr(t.extremum()) == "-0.0"
        assert repr(t.worst_local()) == "-0.0"
        timed = TimeIntervalExtremaTracker(duration=4.0, num_intervals=4, mode=mode)
        for i, v in enumerate((0.0, -0.0)):
            timed.push(float(i), v)
        assert repr(timed.extremum()) == "0.0"
        assert repr(timed.worst_local()) == "0.0"


@st.composite
def _uneven_configs(draw):
    """``(window, num_intervals, mode)`` with a window that is not a
    multiple of the interval count."""
    num_intervals = draw(st.integers(2, 8))
    length = draw(st.integers(1, 5))
    window = num_intervals * length + draw(st.integers(1, num_intervals - 1))
    return window, num_intervals, draw(st.sampled_from(["min", "max"]))


class TestReplay:
    """``replay``/``restore``/``replay_extrema`` against the scalar
    ``push`` loop, ``±0.0`` ties included."""

    @given(
        config=_uneven_configs(),
        prefix=st.lists(_TIE_HEAVY, max_size=60),
        values=st.lists(_TIE_HEAVY, max_size=120),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_replay_matches_pushes(self, config, prefix, values, data):
        tracker = IntervalExtremaTracker(*config)
        scalar = IntervalExtremaTracker(*config)
        for v in prefix:
            tracker.push(v)
            scalar.push(v)
        before = repr(vars(tracker))
        replay = tracker.replay(values)
        extremum, worst = tracker.replay_extrema(replay)
        assert repr(vars(tracker)) == before  # the replay leaves it alone

        assert len(extremum) == len(worst) == len(values)
        for i, v in enumerate(values):
            scalar.push(v)
            assert repr(float(extremum[i])) == repr(scalar.extremum())
            assert repr(float(worst[i])) == repr(scalar.worst_local())

        k = data.draw(st.integers(0, len(values)))
        expected = IntervalExtremaTracker(*config)
        for v in prefix + values[:k]:
            expected.push(v)
        tracker.restore(replay, k)
        assert vars(tracker) == vars(expected)
        assert repr(vars(tracker)) == repr(vars(expected))

    @pytest.mark.parametrize("mode", ["min", "max"])
    def test_restore_mid_interval_after_many_turnovers(self, mode):
        tracker = IntervalExtremaTracker(window=7, num_intervals=3, mode=mode)
        tracker.push(-0.0)
        values = [0.0, -0.0] * 20
        replay = tracker.replay(values)
        scalar = IntervalExtremaTracker(window=7, num_intervals=3, mode=mode)
        scalar.push(-0.0)
        for k, v in enumerate(values, start=1):
            scalar.push(v)
            tracker.restore(replay, k)
            assert repr(vars(tracker)) == repr(vars(scalar))
