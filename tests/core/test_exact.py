"""Tests for the exact-answer oracle — validated against brute force."""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exact import ExactOracle, TimeWindowOracle, exact_series, exact_time_series
from repro.core.query import CorrelatedQuery
from repro.exceptions import ConfigurationError, StreamError
from repro.streams.model import Record
from tests.conftest import brute_force_series, make_records, outcome
from tests.core.test_time_sliding import brute_force_time_series


class TestExactSeries:
    def test_empty_stream_rejected(self):
        with pytest.raises(ConfigurationError):
            exact_series([], CorrelatedQuery("count", "avg"))

    def test_landmark_min_count_small_example(self):
        records = make_records([10.0, 5.0, 6.0, 20.0, 4.0])
        q = CorrelatedQuery("count", "min", epsilon=0.5)
        # thresholds: 15, 7.5, 7.5, 7.5, 6 -> qualifying counts 1,1,2,2,3
        assert exact_series(records, q) == [1.0, 1.0, 2.0, 2.0, 3.0]

    def test_landmark_avg_count_small_example(self):
        records = make_records([1.0, 3.0, 5.0])
        q = CorrelatedQuery("count", "avg")
        # means: 1, 2, 3 -> counts above: 0, 1, 1
        assert exact_series(records, q) == [0.0, 1.0, 1.0]

    def test_sum_dependent_uses_y(self):
        records = make_records([1.0, 3.0], ys=[10.0, 20.0])
        q = CorrelatedQuery("sum", "avg")
        # mean after 2: 2.0, only x=3 qualifies -> sum y = 20
        assert exact_series(records, q)[-1] == 20.0

    def test_sliding_window_forgets(self):
        records = make_records([1.0, 100.0, 100.0, 100.0])
        q = CorrelatedQuery("count", "min", epsilon=0.1, window=2)
        series = exact_series(records, q)
        # Window at step 4 is {100, 100}: min=100, threshold=110 -> count 2.
        assert series[-1] == 2.0

    @given(
        xs=st.lists(st.floats(0.1, 1000.0), min_size=1, max_size=50),
        independent=st.sampled_from(["min", "max", "avg"]),
        dependent=st.sampled_from(["count", "sum"]),
        window=st.sampled_from([None, 3, 7]),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_brute_force(self, xs, independent, dependent, window):
        ys = [x * 0.5 + 1.0 for x in xs]
        records = make_records(xs, ys)
        q = CorrelatedQuery(dependent, independent, epsilon=0.5, window=window)
        fast = exact_series(records, q)
        slow = brute_force_series(records, q)
        assert fast == pytest.approx(slow, rel=1e-9, abs=1e-6)


class TestExactOracle:
    def test_estimate_before_updates(self):
        oracle = ExactOracle(CorrelatedQuery("count", "avg"), [1.0])
        assert oracle.estimate() == 0.0

    def test_query_accessor(self):
        q = CorrelatedQuery("count", "avg")
        assert ExactOracle(q, [1.0]).query is q

    def test_incremental_equals_batch(self, rng):
        xs = rng.uniform(1, 100, size=200)
        records = make_records(xs)
        q = CorrelatedQuery("count", "max", epsilon=3.0, window=20)
        oracle = ExactOracle(q, xs)
        stepwise = [oracle.update(r) for r in records]
        assert stepwise == exact_series(records, q)


class _FsumWindowOracle(ExactOracle):
    """The sliding-AVG mean ``ExactOracle`` replaced, verbatim: ``math.fsum``
    over the whole window at every step."""

    def _independent_value(self) -> float:
        window = self._scope.window
        return math.fsum(cell.x for cell in window) / len(window)


_MAX = 1.7976931348623157e308
# Cancellation (1e16, 1, -1e16), signed zeros, and magnitudes near overflow,
# where math.fsum over the window raises depending on the window's order.
_HARD_VALUES = st.one_of(
    st.sampled_from(
        [1e16, 1.0, -1e16, -1.0, 0.0, -0.0, 0.5, 5e-324, -5e-324, 1e-300]
        + [1e308, -1e308, _MAX, -_MAX, 8.9e307, 2.0**960, -(2.0**960), 2.0**959]
    ),
    st.floats(-1e6, 1e6),
    st.floats(allow_nan=False, allow_infinity=False),
)


def _sliding_avg_query(dependent, window, two_sided):
    return CorrelatedQuery(dependent, "avg", epsilon=0.5, window=window, two_sided=two_sided)


class TestSlidingAvgRunningSum:
    """The running exact window sum gives, by ``repr``, what ``math.fsum``
    over the window gave: answers, means and ``OverflowError`` alike."""

    @given(
        xs=st.lists(_HARD_VALUES, min_size=1, max_size=60),
        window=st.integers(2, 9),
        dependent=st.sampled_from(["count", "sum", "avg"]),
        two_sided=st.booleans(),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_fsum_over_window(self, xs, window, dependent, two_sided):
        records = make_records(xs, [float(i % 5) - 1.0 for i in range(len(xs))])
        q = _sliding_avg_query(dependent, window, two_sided)
        new = ExactOracle(q, xs)
        old = _FsumWindowOracle(q, xs)
        for r in records:
            assert outcome(new.update, r) == outcome(old.update, r)
            assert outcome(new._independent_value) == outcome(old._independent_value)

    @pytest.mark.parametrize(
        "xs",
        [
            [1e16, 1.0, -1e16] * 5,
            [-0.0, -0.0, -0.0, 0.0, -0.0],
            [1.0, -1.0, 1.0, -1.0, 1.0, -1.0],
            [1e308, 1e308, -1e308, -1e308, 1e308, 5.0, 1e308],  # order-dependent overflow
            [-1e308, 1e308, 1e308, -1e308, 1.0, 2.0, 3.0],
            [_MAX, 9.9e291, -_MAX, 2.0**960, 3.0, 4.0, 5.0],
        ],
    )
    def test_hard_streams(self, xs):
        q = _sliding_avg_query("count", 3, False)
        new = ExactOracle(q, xs)
        old = _FsumWindowOracle(q, xs)
        for r in make_records(xs):
            assert outcome(new.update, r) == outcome(old.update, r)
            assert outcome(new._independent_value) == outcome(old._independent_value)

    def test_overflow_is_still_raised(self):
        q = _sliding_avg_query("count", 3, False)
        oracle = ExactOracle(q, [1e308, -1e308])
        oracle.update(make_records([1e308])[0])
        with pytest.raises(OverflowError):
            oracle.update(make_records([1e308])[0])

    @given(
        xs=st.lists(_HARD_VALUES, min_size=2, max_size=40),
        window=st.integers(2, 7),
        cut=st.integers(1, 39),
    )
    @settings(max_examples=150, deadline=None)
    def test_pickled_mid_window_continues_identically(self, xs, window, cut):
        cut = min(cut, len(xs) - 1)
        records = make_records(xs)
        q = _sliding_avg_query("count", window, False)
        oracle = ExactOracle(q, xs)
        for r in records[:cut]:
            outcome(oracle.update, r)
        resumed = pickle.loads(pickle.dumps(oracle, pickle.HIGHEST_PROTOCOL))
        for r in records[cut:]:
            assert outcome(resumed.update, r) == outcome(oracle.update, r)


class TestTimeWindowOracle:
    """The time-window reference against a brute-force rescan of the window."""

    @staticmethod
    def _poisson_with_gaps(seed, n, duration):
        rng = np.random.default_rng(seed)
        clock = 0.0
        events = []
        for i in range(n):
            # Poisson arrivals, with a silence longer than the window every 97
            clock += 2.5 * duration if i % 97 == 96 else float(rng.exponential(1.0))
            events.append((clock, Record(float(rng.lognormal(2.0, 0.8)), float(rng.uniform(0, 9)))))
        return events

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("independent", ["min", "max", "avg"])
    def test_matches_brute_force(self, seed, independent):
        duration = 30.0
        events = self._poisson_with_gaps(seed, 600, duration)
        for dependent in ("count", "sum"):
            epsilon = 0.0 if independent == "avg" else 2.0
            query = CorrelatedQuery(dependent, independent, epsilon=epsilon)
            got = exact_time_series(events, query, duration)
            want = brute_force_time_series(events, query, duration)
            if dependent == "count":
                assert got == want
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_update_and_columns_agree(self):
        events = self._poisson_with_gaps(4, 200, 10.0)
        query = CorrelatedQuery("count", "min", epsilon=1.0)
        universe = [r.x for _, r in events]
        scalar = TimeWindowOracle(query, universe, 10.0)
        expected = [scalar.update(t, r) for t, r in events]
        batched = TimeWindowOracle(query, universe, 10.0)
        assert batched.update_columns(
            [r.x for _, r in events], [r.y for _, r in events], times=[t for t, _ in events]
        ) == expected
        assert set(scalar.obs_state()) == {"indexed"}

    def test_rejects_bad_scope_and_times(self):
        query = CorrelatedQuery("count", "min", epsilon=1.0)
        with pytest.raises(ConfigurationError):
            TimeWindowOracle(CorrelatedQuery("count", "min", window=5), [1.0], 5.0)
        with pytest.raises(ConfigurationError):
            exact_time_series([(0.0, Record(1.0))], query, 0.0)
        oracle = TimeWindowOracle(query, [1.0, 2.0], 5.0)
        oracle.update(3.0, Record(1.0))
        with pytest.raises(StreamError):
            oracle.update(2.0, Record(2.0))
