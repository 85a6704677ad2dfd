"""Tests for the landmark AVG estimator (paper Section 3.1.3)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exact import exact_series
from repro.core.landmark_avg import LandmarkAvgEstimator
from repro.histograms.mass import pour_uniform
from repro.core.query import CorrelatedQuery
from repro.exceptions import ConfigurationError, StreamError
from repro.histograms.bucket import BucketArray, Mass
from repro.streams.model import Record
from tests.conftest import make_records

AVG_Q = CorrelatedQuery("count", "avg")


class TestPourUniform:
    def test_spreads_mass_proportionally(self):
        h = BucketArray([0.0, 1.0, 2.0])
        pour_uniform(h, 0.0, 2.0, Mass(4.0, 8.0))
        assert h.counts == pytest.approx([2.0, 2.0])
        assert h.weights == pytest.approx([4.0, 4.0])

    def test_partial_overlap(self):
        h = BucketArray([0.0, 1.0, 2.0])
        pour_uniform(h, 0.5, 1.5, Mass(2.0, 2.0))
        assert h.counts == pytest.approx([1.0, 1.0])

    def test_degenerate_span_drops_into_nearest_bucket(self):
        h = BucketArray([0.0, 1.0])
        pour_uniform(h, 5.0, 5.0, Mass(3.0, 3.0))
        assert h.total() == Mass(3.0, 3.0)

    def test_zero_mass_is_noop(self):
        h = BucketArray([0.0, 1.0])
        pour_uniform(h, 0.0, 1.0, Mass(0.0, 0.0))
        assert h.total() == Mass(0.0, 0.0)


class TestValidation:
    def test_requires_avg_query(self):
        with pytest.raises(ConfigurationError):
            LandmarkAvgEstimator(CorrelatedQuery("count", "min", epsilon=1.0))

    def test_rejects_sliding(self):
        with pytest.raises(ConfigurationError):
            LandmarkAvgEstimator(CorrelatedQuery("count", "avg", window=10))

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigurationError):
            LandmarkAvgEstimator(AVG_Q, num_buckets=3)  # needs >= 4
        with pytest.raises(ConfigurationError):
            LandmarkAvgEstimator(AVG_Q, strategy="other")
        with pytest.raises(ConfigurationError):
            LandmarkAvgEstimator(AVG_Q, policy="other")
        with pytest.raises(ConfigurationError):
            LandmarkAvgEstimator(AVG_Q, k_std=0.0)
        with pytest.raises(ConfigurationError):
            LandmarkAvgEstimator(AVG_Q, drift_tolerance=0.0)

    def test_focus_interval_before_build_raises(self):
        est = LandmarkAvgEstimator(AVG_Q)
        with pytest.raises(StreamError):
            est.focus_interval


class TestWarmupAndFocus:
    def test_exact_during_warmup(self):
        est = LandmarkAvgEstimator(AVG_Q, num_buckets=6)
        records = make_records([2.0, 4.0, 6.0])
        exact = exact_series(records, AVG_Q)
        assert [est.update(r) for r in records] == exact

    def test_histogram_built_after_m_tuples(self):
        est = LandmarkAvgEstimator(AVG_Q, num_buckets=4)
        for x in [1.0, 2.0, 3.0]:
            est.update(Record(x))
        assert est.histogram is None
        est.update(Record(4.0))
        assert est.histogram is not None
        assert est.histogram.num_buckets == 2  # m - 2 tails

    def test_focus_contains_mean(self, rng):
        xs = rng.normal(loc=10.0, scale=2.0, size=500)
        est = LandmarkAvgEstimator(AVG_Q, num_buckets=10)
        for r in make_records(np.abs(xs) + 0.1):
            est.update(r)
        lo, hi = est.focus_interval
        assert lo <= est.mean <= hi

    def test_focus_shrinks_with_n(self, rng):
        xs = np.abs(rng.normal(loc=10.0, scale=2.0, size=4000)) + 0.1
        est = LandmarkAvgEstimator(AVG_Q, num_buckets=10)
        widths = []
        for i, r in enumerate(make_records(xs)):
            est.update(r)
            if i in (500, 3999):
                lo, hi = est.focus_interval
                widths.append(hi - lo)
        assert widths[1] < widths[0]

    def test_constant_stream_handled(self):
        est = LandmarkAvgEstimator(AVG_Q, num_buckets=4)
        for _ in range(20):
            out = est.update(Record(5.0))
        assert out == pytest.approx(0.0, abs=1e-6)  # nothing is > mean


class TestAccuracy:
    @pytest.mark.parametrize("strategy", ["wholesale", "piecemeal"])
    @pytest.mark.parametrize("policy", ["uniform", "quantile"])
    def test_close_to_exact_on_iid_stream(self, rng, strategy, policy):
        xs = rng.lognormal(mean=2.0, sigma=0.8, size=3000)
        records = make_records(xs)
        est = LandmarkAvgEstimator(
            AVG_Q, num_buckets=10, strategy=strategy, policy=policy
        )
        outputs = np.array([est.update(r) for r in records])
        exact = np.array(exact_series(records, AVG_Q))
        rmse = float(np.sqrt(np.mean((outputs - exact) ** 2)))
        assert rmse < 0.08 * exact[-1]

    def test_sum_dependent(self, rng):
        xs = rng.uniform(1.0, 100.0, size=1000)
        ys = rng.uniform(0.0, 5.0, size=1000)
        records = make_records(xs, ys)
        q = CorrelatedQuery("sum", "avg")
        est = LandmarkAvgEstimator(q, num_buckets=10)
        outputs = np.array([est.update(r) for r in records])
        exact = np.array(exact_series(records, q))
        assert outputs[-1] == pytest.approx(exact[-1], rel=0.1)

    def test_estimate_never_negative_nor_above_n(self, rng):
        xs = rng.exponential(scale=5.0, size=400) + 0.1
        est = LandmarkAvgEstimator(AVG_Q, num_buckets=6)
        for i, r in enumerate(make_records(xs), start=1):
            out = est.update(r)
            assert 0.0 <= out <= i + 1e-6

    @given(xs=st.lists(st.floats(0.1, 1000.0), min_size=1, max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_never_crashes(self, xs):
        est = LandmarkAvgEstimator(AVG_Q, num_buckets=5)
        for r in make_records(xs):
            out = est.update(r)
            assert np.isfinite(out)

    @given(
        xs=st.lists(st.floats(0.1, 1000.0), min_size=1, max_size=80),
        strategy=st.sampled_from(["wholesale", "piecemeal"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_narrow_focus_survives_disjoint_jumps(self, xs, strategy):
        # With a very narrow interval, the mean can jump past the entire
        # focus between reallocations — regression test for the disjoint
        # reallocation path.
        est = LandmarkAvgEstimator(AVG_Q, num_buckets=5, strategy=strategy, k_std=0.25)
        for r in make_records(xs):
            out = est.update(r)
            assert np.isfinite(out) and out >= 0.0
