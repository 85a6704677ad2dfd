"""Tests for the partitioning policies."""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.histograms.bucket import BucketArray
from repro.histograms.partition import (
    _repair_edges,
    normal_quantile_boundaries,
    quantile_boundaries_from_histogram,
    quantile_boundaries_from_values,
    uniform_boundaries,
)
from tests.conftest import outcome


def _strictly_increasing(edges):
    return all(b > a for a, b in zip(edges, edges[1:]))


class TestUniform:
    def test_even_spacing(self):
        edges = uniform_boundaries(0.0, 10.0, 5)
        assert edges == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]

    def test_endpoints_exact(self):
        edges = uniform_boundaries(0.1, 0.7, 3)
        assert edges[0] == 0.1 and edges[-1] == 0.7

    def test_single_bucket(self):
        assert uniform_boundaries(1.0, 2.0, 1) == [1.0, 2.0]

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            uniform_boundaries(0.0, 1.0, 0)
        with pytest.raises(ConfigurationError):
            uniform_boundaries(1.0, 1.0, 2)


class TestQuantileFromHistogram:
    def test_uniform_histogram_gives_uniform_edges(self):
        h = BucketArray([0.0, 5.0, 10.0], counts=[10.0, 10.0], weights=[10.0, 10.0])
        edges = quantile_boundaries_from_histogram(h, 4)
        assert edges == pytest.approx([0.0, 2.5, 5.0, 7.5, 10.0])

    def test_skewed_histogram_concentrates_edges(self):
        h = BucketArray([0.0, 5.0, 10.0], counts=[30.0, 10.0], weights=[1.0, 1.0])
        edges = quantile_boundaries_from_histogram(h, 4)
        # 3/4 of mass is in [0, 5], so 3 of 4 buckets live there.
        assert edges[3] == pytest.approx(5.0)

    def test_empty_histogram_falls_back_to_uniform(self):
        h = BucketArray([0.0, 10.0])
        edges = quantile_boundaries_from_histogram(h, 2)
        assert edges == pytest.approx([0.0, 5.0, 10.0])

    def test_subrange_target(self):
        h = BucketArray([0.0, 10.0], counts=[10.0], weights=[10.0])
        edges = quantile_boundaries_from_histogram(h, 2, low=2.0, high=6.0)
        assert edges[0] == 2.0 and edges[-1] == 6.0
        assert _strictly_increasing(edges)

    @given(
        counts=st.lists(st.floats(0.0, 100.0), min_size=2, max_size=8),
        m=st.integers(1, 12),
    )
    @settings(max_examples=80, deadline=None)
    def test_edges_always_valid(self, counts, m):
        edges_in = [float(i) for i in range(len(counts) + 1)]
        h = BucketArray(edges_in, counts=counts, weights=counts)
        edges = quantile_boundaries_from_histogram(h, m)
        assert len(edges) == m + 1
        assert edges[0] == h.low and edges[-1] == h.high
        assert _strictly_increasing(edges)

    @given(
        counts=st.lists(st.floats(1.0, 100.0), min_size=2, max_size=8),
        m=st.integers(2, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_quantile_edges_equalise_estimated_mass(self, counts, m):
        edges_in = [float(i) for i in range(len(counts) + 1)]
        h = BucketArray(edges_in, counts=counts, weights=counts)
        edges = quantile_boundaries_from_histogram(h, m)
        masses = [
            h.estimate_between(a, b).count for a, b in zip(edges, edges[1:])
        ]
        target = sum(counts) / m
        for mass in masses:
            assert mass == pytest.approx(target, rel=0.05, abs=0.5)


class TestQuantileFromValues:
    def test_median_split(self):
        values = [1.0, 2.0, 3.0, 4.0]
        edges = quantile_boundaries_from_values(values, 2, 0.0, 5.0)
        assert len(edges) == 3
        assert 2.0 <= edges[1] <= 3.0

    def test_few_values_fall_back_to_uniform(self):
        edges = quantile_boundaries_from_values([1.0], 4, 0.0, 8.0)
        assert edges == pytest.approx([0.0, 2.0, 4.0, 6.0, 8.0])

    def test_out_of_range_values_ignored(self):
        edges = quantile_boundaries_from_values([-5.0, 50.0], 2, 0.0, 10.0)
        assert edges == pytest.approx([0.0, 5.0, 10.0])

    @given(
        values=st.lists(st.floats(0.0, 100.0), min_size=0, max_size=60),
        m=st.integers(1, 10),
    )
    @settings(max_examples=80, deadline=None)
    def test_edges_always_valid(self, values, m):
        edges = quantile_boundaries_from_values(values, m, 0.0, 100.0)
        assert len(edges) == m + 1
        assert edges[0] == 0.0 and edges[-1] == 100.0
        assert _strictly_increasing(edges)


class TestNormalQuantiles:
    def test_symmetric_about_mean(self):
        edges = normal_quantile_boundaries(0.0, 1.0, 4, -2.0, 2.0)
        assert edges[2] == pytest.approx(0.0, abs=1e-6)
        assert edges[1] == pytest.approx(-edges[3], abs=1e-6)

    def test_edges_cover_interval(self):
        edges = normal_quantile_boundaries(5.0, 2.0, 6, 1.0, 9.0)
        assert edges[0] == 1.0 and edges[-1] == 9.0
        assert _strictly_increasing(edges)

    def test_zero_scale_falls_back_to_uniform(self):
        edges = normal_quantile_boundaries(5.0, 0.0, 2, 0.0, 10.0)
        assert edges == pytest.approx([0.0, 5.0, 10.0])

    def test_quantiles_equalise_normal_mass(self):
        mean, scale = 3.0, 1.5
        lo, hi = 0.0, 6.0
        edges = normal_quantile_boundaries(mean, scale, 5, lo, hi)
        cdf = NormalDist(mean, scale).cdf
        masses = [cdf(b) - cdf(a) for a, b in zip(edges, edges[1:])]
        target = (cdf(hi) - cdf(lo)) / 5
        for mass in masses:
            assert mass == pytest.approx(target, rel=0.02)

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            normal_quantile_boundaries(0.0, 1.0, 0, 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            normal_quantile_boundaries(0.0, 1.0, 2, 1.0, 1.0)


def _reference_normal_quantile_boundaries(mean, scale, num_buckets, low, high):
    """The 80-step bisection ``normal_quantile_boundaries`` replaced, verbatim."""
    if num_buckets <= 0:
        raise ConfigurationError(f"num_buckets must be positive, got {num_buckets}")
    if not high > low:
        raise ConfigurationError(f"need high > low, got [{low}, {high}]")
    if scale <= 0:
        return uniform_boundaries(low, high, num_buckets)

    def cdf(x: float) -> float:
        return 0.5 * (1.0 + math.erf((x - mean) / (scale * math.sqrt(2.0))))

    def inverse_cdf(p: float) -> float:
        lo, hi = low, high
        for _ in range(80):  # bisection: plenty for double precision
            mid = (lo + hi) / 2.0
            if cdf(mid) < p:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2.0

    p_low, p_high = cdf(low), cdf(high)
    if p_high - p_low <= 1e-12:
        return uniform_boundaries(low, high, num_buckets)
    edges = [low]
    for j in range(1, num_buckets):
        p = p_low + (p_high - p_low) * j / num_buckets
        edges.append(inverse_cdf(p))
    edges.append(high)
    return _repair_edges(edges, low, high)


_SUBNORMAL = st.integers(-64, 64).map(lambda k: k * 5e-324)
_ENDPOINT = st.one_of(
    st.floats(-1e3, 1e3),
    _SUBNORMAL,
    st.floats(-1e-300, 1e-300),
    st.floats(allow_nan=False, allow_infinity=False),
)
_SCALE = st.one_of(
    st.floats(1e-3, 1e3),
    st.floats(5e-324, 1e-290),  # tiny: the cdf is a step inside [low, high]
    st.floats(1e290, 1e308),  # huge: the cdf is flat
    st.floats(0.0, 1e-6),
    st.sampled_from([0.0, -1.0]),
)


class TestNormalQuantilesMatchFullBisection:
    """Stopping the bisection at its fixed point returns the very edges
    the full 80 steps returned (compared by ``repr``)."""

    @given(
        mean=st.one_of(_ENDPOINT, st.floats(-1e6, 1e6)),
        scale=_SCALE,
        num_buckets=st.integers(1, 12),
        a=_ENDPOINT,
        b=_ENDPOINT,
    )
    @settings(max_examples=500, deadline=None)
    def test_matches_full_bisection(self, mean, scale, num_buckets, a, b):
        low, high = min(a, b), max(a, b)
        args = (mean, scale, num_buckets, low, high)
        assert outcome(normal_quantile_boundaries, *args) == outcome(
            _reference_normal_quantile_boundaries, *args
        )

    @given(
        low=st.floats(-1e4, 1e4),
        width=st.floats(1e-9, 1e4),
        mean_offset=st.floats(-3.0, 3.0),  # in widths: inside or outside the span
        scale_ratio=st.floats(1e-4, 10.0),
        num_buckets=st.integers(2, 16),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_on_focus_like_intervals(
        self, low, width, mean_offset, scale_ratio, num_buckets
    ):
        high = low + width
        mean = low + mean_offset * width
        args = (mean, scale_ratio * width, num_buckets, low, high)
        assert outcome(normal_quantile_boundaries, *args) == outcome(
            _reference_normal_quantile_boundaries, *args
        )

    @pytest.mark.parametrize(
        "mean, scale, low, high",
        [
            (0.0, 1.0, -2.0, 2.0),  # span crossing 0, symmetric
            (0.0, 1e-320, -5e-323, 5e-323),  # subnormal span and scale
            (-0.0, 5e-324, -1e-323, 1.5e-323),
            (1e-310, 1e-312, 0.0, 5e-310),
            (50.0, 1.0, -1.0, 1.0),  # mean far above the span
            (-50.0, 0.5, -1.0, 1.0),  # mean far below the span
            (0.0, 1e300, -1e308, 1e308),
            (1e308, 1e307, -1.7e308, 1.7e308),
        ],
    )
    def test_edge_cases(self, mean, scale, low, high):
        for num_buckets in (1, 2, 5, 10):
            args = (mean, scale, num_buckets, low, high)
            assert outcome(normal_quantile_boundaries, *args) == outcome(
                _reference_normal_quantile_boundaries, *args
            )
