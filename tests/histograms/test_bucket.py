"""Tests for the BucketArray primitive."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, HistogramError
from repro.histograms.bucket import ZERO_MASS, BucketArray, Mass
from tests.conftest import outcome


class TestMass:
    def test_addition(self):
        assert Mass(1.0, 2.0) + Mass(3.0, 4.0) == Mass(4.0, 6.0)

    def test_scaled(self):
        assert Mass(2.0, 4.0).scaled(0.5) == Mass(1.0, 2.0)

    def test_clamped(self):
        assert Mass(-1.0, 3.0).clamped() == Mass(0.0, 3.0)

    def test_zero_constant(self):
        assert ZERO_MASS == Mass(0.0, 0.0)


class TestConstruction:
    def test_requires_two_edges(self):
        with pytest.raises(ConfigurationError):
            BucketArray([1.0])

    def test_requires_increasing_edges(self):
        with pytest.raises(ConfigurationError):
            BucketArray([1.0, 1.0])
        with pytest.raises(ConfigurationError):
            BucketArray([2.0, 1.0])

    def test_counts_length_checked(self):
        with pytest.raises(ConfigurationError):
            BucketArray([0.0, 1.0, 2.0], counts=[1.0])

    def test_initial_masses(self):
        h = BucketArray([0.0, 1.0, 2.0], counts=[3.0, 4.0], weights=[5.0, 6.0])
        assert h.total() == Mass(7.0, 11.0)


class TestAddLocate:
    def test_add_and_locate(self):
        h = BucketArray([0.0, 1.0, 2.0])
        h.add(0.5, 2.0)
        h.add(1.5)
        assert h.counts == [1.0, 1.0]
        assert h.weights == [2.0, 1.0]

    def test_boundaries_go_right(self):
        h = BucketArray([0.0, 1.0, 2.0])
        assert h.locate(1.0) == 1  # interior boundaries belong right

    def test_top_edge_goes_to_last_bucket(self):
        h = BucketArray([0.0, 1.0, 2.0])
        assert h.locate(2.0) == 1

    def test_outside_raises(self):
        h = BucketArray([0.0, 1.0])
        with pytest.raises(HistogramError):
            h.locate(-0.1)
        with pytest.raises(HistogramError):
            h.add(1.5)

    def test_remove_clamps(self):
        h = BucketArray([0.0, 1.0, 2.0])
        h.add(0.5)
        h.remove(-5.0)  # clamps into the first bucket
        assert h.counts == [0.0, 0.0]

    def test_contains(self):
        h = BucketArray([0.0, 2.0])
        assert 1.0 in h and 0.0 in h and 2.0 in h
        assert 2.1 not in h


class TestEstimation:
    def test_estimate_between_full_buckets(self):
        h = BucketArray([0.0, 1.0, 2.0], counts=[4.0, 6.0], weights=[8.0, 12.0])
        assert h.estimate_between(0.0, 2.0) == Mass(10.0, 20.0)

    def test_estimate_between_interpolates(self):
        h = BucketArray([0.0, 2.0], counts=[4.0], weights=[8.0])
        mass = h.estimate_between(0.0, 1.0)
        assert mass.count == pytest.approx(2.0)
        assert mass.weight == pytest.approx(4.0)

    def test_estimate_clips_to_range(self):
        h = BucketArray([0.0, 1.0], counts=[2.0], weights=[2.0])
        assert h.estimate_between(-5.0, 5.0) == Mass(2.0, 2.0)
        assert h.estimate_between(3.0, 5.0) == ZERO_MASS

    def test_estimate_leq_geq_partition_total(self):
        h = BucketArray([0.0, 1.0, 2.0], counts=[3.0, 5.0], weights=[3.0, 5.0])
        t = 1.3
        leq, geq = h.estimate_leq(t), h.estimate_geq(t)
        assert leq.count + geq.count == pytest.approx(8.0)

    def test_reversed_interval_raises(self):
        h = BucketArray([0.0, 1.0])
        with pytest.raises(HistogramError):
            h.estimate_between(1.0, 0.0)

    def test_bounds(self):
        h = BucketArray([0.0, 1.0, 2.0], counts=[3.0, 5.0], weights=[3.0, 5.0])
        lower = h.bound_leq(1.5, upper=False)
        upper = h.bound_leq(1.5, upper=True)
        interpolated = h.estimate_leq(1.5)
        assert lower.count <= interpolated.count <= upper.count
        assert lower == Mass(3.0, 3.0)
        assert upper == Mass(8.0, 8.0)

    def test_bounds_at_extremes(self):
        h = BucketArray([0.0, 1.0], counts=[2.0], weights=[2.0])
        assert h.bound_leq(-1.0, upper=True) == ZERO_MASS
        assert h.bound_leq(9.0, upper=False) == Mass(2.0, 2.0)


class TestStructuralEditing:
    def test_split_preserves_mass(self):
        h = BucketArray([0.0, 2.0], counts=[4.0], weights=[6.0])
        h.split_bucket(0)
        assert h.num_buckets == 2
        assert h.total() == Mass(4.0, 6.0)
        assert h.counts == [2.0, 2.0]

    def test_split_at_custom_point(self):
        h = BucketArray([0.0, 4.0], counts=[4.0], weights=[4.0])
        h.split_bucket(0, at=1.0)
        assert h.edges == [0.0, 1.0, 4.0]
        assert h.counts == [1.0, 3.0]

    def test_split_outside_raises(self):
        h = BucketArray([0.0, 1.0])
        with pytest.raises(HistogramError):
            h.split_bucket(0, at=1.5)

    def test_merge_preserves_mass(self):
        h = BucketArray([0.0, 1.0, 2.0], counts=[3.0, 4.0], weights=[1.0, 2.0])
        h.merge_buckets(0)
        assert h.num_buckets == 1
        assert h.total() == Mass(7.0, 3.0)

    def test_merge_last_raises(self):
        h = BucketArray([0.0, 1.0, 2.0])
        with pytest.raises(HistogramError):
            h.merge_buckets(1)

    def test_truncate_above_splits_straddler(self):
        h = BucketArray([0.0, 2.0, 4.0], counts=[2.0, 2.0], weights=[2.0, 2.0])
        dropped = h.truncate_above(3.0)
        assert h.high == 3.0
        assert dropped.count == pytest.approx(1.0)
        assert h.total().count == pytest.approx(3.0)

    def test_truncate_above_noop_beyond_range(self):
        h = BucketArray([0.0, 1.0], counts=[2.0], weights=[2.0])
        assert h.truncate_above(5.0) == ZERO_MASS

    def test_truncate_above_cannot_empty(self):
        h = BucketArray([0.0, 1.0])
        with pytest.raises(HistogramError):
            h.truncate_above(0.0)

    def test_truncate_below(self):
        h = BucketArray([0.0, 2.0, 4.0], counts=[2.0, 2.0], weights=[2.0, 2.0])
        dropped = h.truncate_below(1.0)
        assert h.low == 1.0
        assert dropped.count == pytest.approx(1.0)
        assert h.total().count == pytest.approx(3.0)

    def test_truncate_below_at_existing_edge(self):
        h = BucketArray([0.0, 1.0, 2.0], counts=[5.0, 7.0], weights=[5.0, 7.0])
        dropped = h.truncate_below(1.0)
        assert dropped == Mass(5.0, 5.0)
        assert h.edges == [1.0, 2.0]

    def test_extend_low_high(self):
        h = BucketArray([1.0, 2.0], counts=[3.0], weights=[3.0])
        h.extend_low(0.0)
        h.extend_high(5.0)
        assert h.edges == [0.0, 1.0, 2.0, 5.0]
        assert h.total() == Mass(3.0, 3.0)

    def test_extend_wrong_direction_raises(self):
        h = BucketArray([1.0, 2.0])
        with pytest.raises(HistogramError):
            h.extend_low(1.5)
        with pytest.raises(HistogramError):
            h.extend_high(1.5)

    def test_widest_and_heaviest(self):
        h = BucketArray([0.0, 1.0, 5.0], counts=[9.0, 2.0], weights=[9.0, 2.0])
        assert h.widest_bucket() == 1
        assert h.heaviest_bucket() == 0

    def test_copy_is_independent(self):
        h = BucketArray([0.0, 1.0], counts=[1.0], weights=[1.0])
        c = h.copy()
        c.add(0.5)
        assert h.total().count == 1.0
        assert c.total().count == 2.0


class TestMassConservationProperties:
    @given(
        xs=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=50),
        cut=st.floats(0.5, 9.5),
    )
    @settings(max_examples=80, deadline=None)
    def test_truncate_above_conserves_mass(self, xs, cut):
        h = BucketArray([0.0 + i for i in range(11)])
        for x in xs:
            h.add(x)
        before = h.total()
        dropped = h.truncate_above(cut)
        after = h.total()
        assert after.count + dropped.count == pytest.approx(before.count)
        assert after.weight + dropped.weight == pytest.approx(before.weight)

    @given(
        xs=st.lists(st.floats(0.0, 8.0), min_size=1, max_size=50),
        index=st.integers(0, 7),
    )
    @settings(max_examples=80, deadline=None)
    def test_split_then_merge_roundtrips_mass(self, xs, index):
        h = BucketArray([float(i) for i in range(9)])
        for x in xs:
            h.add(x)
        before = h.total()
        h.split_bucket(index)
        h.merge_buckets(index)
        assert h.total().count == pytest.approx(before.count)
        assert h.total().weight == pytest.approx(before.weight)

    @given(xs=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_leq_matches_brute_force_at_edges(self, xs):
        edges = [0.0, 2.5, 5.0, 7.5, 10.0]
        h = BucketArray(edges)
        for x in xs:
            h.add(x)
        # At bucket edges, the interpolated estimate is exact w.r.t. bucket
        # contents (no partial bucket involved).
        for edge in edges:
            expected = sum(1 for x in xs if h.locate(x) < h.locate(edge)) if edge > 0 else 0
            counted = sum(
                h.counts[i] for i in range(h.num_buckets) if h.edges[i + 1] <= edge
            )
            assert h.estimate_leq(edge).count == pytest.approx(counted)


def _full_scan_estimate(h, lo, hi):
    """The every-bucket scan ``estimate_between`` replaced, verbatim."""
    edges, counts, weights = h.edges, h.counts, h.weights
    if hi < lo:
        raise HistogramError(f"reversed interval [{lo}, {hi}]")
    lo = max(lo, edges[0])
    hi = min(hi, edges[-1])
    if hi <= lo:
        return ZERO_MASS
    count = 0.0
    weight = 0.0
    for i, (left, right) in enumerate(zip(edges, edges[1:])):
        overlap = min(hi, right) - max(lo, left)
        if overlap <= 0.0:
            continue
        fraction = overlap / (right - left)
        count += counts[i] * fraction
        weight += weights[i] * fraction
    return Mass(count, weight)


_SPECIAL_BOUNDS = [float("inf"), float("-inf"), float("nan"), 0.0, -0.0, 5e-324, -5e-324]


@st.composite
def _histogram_and_bounds(draw, finite_edges=True):
    edge_values = draw(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=not finite_edges),
            min_size=2,
            max_size=12,
            unique=True,
        )
    )
    edges = sorted(set(edge_values))  # set() folds 0.0/-0.0 into one edge
    if len(edges) < 2:
        edges = [edges[0], edges[0] + 1.0] if edges[0] < 1e308 else [0.0, edges[0]]
    k = len(edges) - 1
    mass = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, 1.0, 3.0]))
    counts = draw(st.lists(mass, min_size=k, max_size=k))
    weights = draw(st.lists(mass, min_size=k, max_size=k))
    bound = st.one_of(
        st.sampled_from(edges),  # exactly on an edge
        st.sampled_from(_SPECIAL_BOUNDS),
        st.floats(allow_nan=False, allow_infinity=False),  # anywhere, mostly outside
        st.floats(min(edges[0], -1e300), max(edges[-1], 1e300)),
    )
    if all(abs(e) < 1e300 for e in edges):
        span = edges[-1] - edges[0]
        bound = st.one_of(bound, st.floats(edges[0] - span, edges[-1] + span))
    return BucketArray(edges, counts, weights), draw(bound), draw(bound)


class TestEstimateBetweenMatchesFullScan:
    """The bisect-started scan adds the same terms, in the same order, as
    a scan of every bucket: answers are bit-identical (by ``repr``)."""

    @given(case=_histogram_and_bounds())
    @settings(max_examples=600, deadline=None)
    def test_matches_full_scan(self, case):
        h, lo, hi = case
        assert outcome(h.estimate_between, lo, hi) == outcome(_full_scan_estimate, h, lo, hi)
        # Reversed bounds raise in both.
        assert outcome(h.estimate_between, hi, lo) == outcome(_full_scan_estimate, h, hi, lo)

    @given(case=_histogram_and_bounds(finite_edges=False))
    @settings(max_examples=300, deadline=None)
    def test_matches_full_scan_with_infinite_edges(self, case):
        h, lo, hi = case
        assert outcome(h.estimate_between, lo, hi) == outcome(_full_scan_estimate, h, lo, hi)

    @pytest.mark.parametrize(
        "lo, hi",
        [
            (float("nan"), 1.5),
            (0.5, float("nan")),
            (float("nan"), float("nan")),
            (float("nan"), 0.0),  # NaN lo, hi on the low edge: still NaN
            (float("nan"), -5.0),
            (float("-inf"), float("inf")),
            (float("-inf"), 0.25),
            (2.75, float("inf")),
            (float("inf"), float("inf")),
            (float("-inf"), float("-inf")),
            (1.0, 2.0),  # both on interior edges
            (0.0, 0.0),
        ],
    )
    def test_non_finite_and_edge_bounds(self, lo, hi):
        h = BucketArray([0.0, 1.0, 2.0, 3.0], counts=[1.0, 2.0, 4.0], weights=[-1.0, 0.5, 8.0])
        assert outcome(h.estimate_between, lo, hi) == outcome(_full_scan_estimate, h, lo, hi)

    def test_nan_bound_gives_nan_mass(self):
        h = BucketArray([0.0, 1.0, 2.0], counts=[1.0, 1.0], weights=[1.0, 1.0])
        assert repr(h.estimate_between(float("nan"), 1.5)) == "Mass(count=nan, weight=nan)"
