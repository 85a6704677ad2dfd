"""Edge-case coverage across the estimators.

Degenerate streams (zeros, constants, single tuples), extreme parameters,
and state-accessor behaviour that the main accuracy tests do not touch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import FOCUSED_METHODS, build_estimator, methods_for_query
from repro.core.landmark_extrema import LandmarkExtremaEstimator
from repro.core.query import CorrelatedQuery
from repro.core.time_sliding import TimeSlidingEstimator
from repro.streams.model import Record
from tests.conftest import make_records

MIN_Q = CorrelatedQuery("count", "min", epsilon=1.0)
AVG_Q = CorrelatedQuery("count", "avg")


class TestDegenerateStreams:
    def test_zero_minimum_survives(self):
        # (1+eps) * 0 == 0 would make the region degenerate; the estimator
        # widens it minimally instead of crashing.
        est = LandmarkExtremaEstimator(MIN_Q, num_buckets=4)
        outputs = [est.update(r) for r in make_records([0.0, 1.0, 0.0, 2.0])]
        assert all(np.isfinite(o) and o >= 0.0 for o in outputs)

    def test_single_tuple_stream(self):
        for query in (MIN_Q, AVG_Q):
            for method in methods_for_query(query):
                est = build_estimator(query, method, stream=make_records([7.0]))
                out = est.update(Record(7.0))
                assert np.isfinite(out)

    def test_constant_stream_all_methods(self):
        records = make_records([5.0] * 50)
        for method in methods_for_query(MIN_Q):
            est = build_estimator(MIN_Q, method, stream=records)
            for r in records:
                out = est.update(r)
            # Every value is within (1+eps) of the min: count == n.
            assert out == pytest.approx(50.0, abs=1.0), method

    @pytest.mark.parametrize("method", FOCUSED_METHODS)
    @pytest.mark.parametrize("scope", ["landmark", "sliding", "time"])
    def test_warmup_sum_with_nothing_qualifying_is_a_float(self, method, scope):
        # Two equal values: nothing lies strictly above their mean.
        query = CorrelatedQuery("sum", "avg", window=16 if scope == "sliding" else None)
        if scope == "time":
            est = build_estimator(query, method, num_buckets=4, time_window=10.0)
            est.update(1.0, Record(1.0))
            out = est.update(2.0, Record(1.0))
        else:
            est = build_estimator(query, method, num_buckets=4)
            est.update(Record(1.0))
            out = est.update(Record(1.0))
        assert repr(out) == "0.0" and type(out) is float

    def test_two_distinct_values_avg(self):
        records = make_records([1.0, 9.0] * 40)
        est = build_estimator(AVG_Q, "piecemeal-uniform", num_buckets=4)
        for r in records:
            out = est.update(r)
        # Mean is 5; the forty 9.0s qualify.
        assert out == pytest.approx(40.0, abs=2.0)

    def test_strictly_increasing_stream_min(self):
        # The minimum never changes after the first tuple: no reallocation
        # path is ever exercised, estimates must still be sane.
        records = make_records(np.linspace(1.0, 2.0, 100))
        est = build_estimator(MIN_Q, "piecemeal-uniform")
        for r in records:
            out = est.update(r)
        assert out == pytest.approx(100.0, abs=1.0)  # all within 2x of min 1.0

    def test_strictly_decreasing_stream_min(self):
        # Every tuple is a new minimum: maximal reallocation churn.
        records = make_records(np.linspace(100.0, 1.0, 100))
        est = build_estimator(MIN_Q, "piecemeal-uniform")
        for r in records:
            out = est.update(r)
        assert np.isfinite(out) and out >= 1.0


class TestParameterExtremes:
    def test_minimum_bucket_budgets(self, rng):
        xs = rng.uniform(1.0, 100.0, size=200)
        cases = [
            (MIN_Q, "piecemeal-uniform", 2),
            (AVG_Q, "piecemeal-uniform", 4),
            (CorrelatedQuery("count", "min", epsilon=1.0, window=20), "piecemeal-uniform", 3),
            (CorrelatedQuery("count", "avg", window=20), "piecemeal-uniform", 4),
        ]
        for query, method, m in cases:
            est = build_estimator(query, method, num_buckets=m)
            for r in make_records(xs):
                out = est.update(r)
            assert np.isfinite(out)

    def test_huge_epsilon(self, rng):
        query = CorrelatedQuery("count", "min", epsilon=1e9)
        est = build_estimator(query, "piecemeal-uniform")
        records = make_records(rng.uniform(1.0, 100.0, size=300))
        for r in records:
            out = est.update(r)
        assert out == pytest.approx(300.0, rel=0.02)  # everything qualifies

    def test_tiny_epsilon(self, rng):
        query = CorrelatedQuery("count", "min", epsilon=1e-9)
        est = build_estimator(query, "piecemeal-uniform")
        records = make_records(rng.uniform(1.0, 100.0, size=300))
        for r in records:
            out = est.update(r)
        assert 0.0 <= out <= 5.0  # essentially only the minimum itself


class TestTimeSlidingEdges:
    def test_estimate_before_any_update(self):
        est = TimeSlidingEstimator(AVG_Q, duration=10.0)
        assert est.estimate() == 0.0

    def test_simultaneous_timestamps_allowed(self):
        est = TimeSlidingEstimator(AVG_Q, duration=10.0)
        for _ in range(20):
            out = est.update(5.0, Record(3.0))
        assert np.isfinite(out)

    def test_tuple_coercion(self):
        est = TimeSlidingEstimator(AVG_Q, duration=10.0)
        out = est.update(1.0, (4.0, 2.0))  # bare tuple accepted
        assert np.isfinite(out)


class TestAccessors:
    def test_query_property_everywhere(self):
        for query in (MIN_Q, AVG_Q):
            for method in methods_for_query(query):
                est = build_estimator(query, method, stream=make_records([1.0, 2.0]))
                if hasattr(est, "query"):
                    assert est.query is query

    def test_extremum_property_is_exact(self, rng):
        xs = rng.uniform(1.0, 100.0, size=200)
        est = build_estimator(MIN_Q, "piecemeal-uniform")
        for i, r in enumerate(make_records(xs)):
            est.update(r)
            assert est.extremum == xs[: i + 1].min()
