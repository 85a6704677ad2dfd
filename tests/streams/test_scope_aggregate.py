"""Tests for the exact level-0 scope aggregate, against brute force."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, EmptyScopeError
from repro.streams.model import Record
from repro.streams.operators import KINDS, ScopeAggregate
from repro.streams.scopes import full_scope_positions, sliding_scope_positions
from repro.structures.welford import RunningMoments
from tests.conftest import outcome

# NaN-free streams of any finite magnitude (sums can cancel or overflow),
# duplicate-heavy streams, and streams of signed zeros and subnormals.
_STREAMS = st.one_of(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
    st.lists(st.sampled_from([1.0, 2.0, 2.0, 3.0, 1e16, -1e16]), min_size=1, max_size=40),
    st.lists(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]), min_size=1, max_size=40),
)


def _reference(kind: str, xs: list[float], sliding: bool) -> float:
    """``kind`` recomputed from scratch over the scope's values."""
    if kind == "min":
        return min(xs)
    if kind == "max":
        return max(xs)
    if kind == "avg" and not sliding:
        moments = RunningMoments()
        for x in xs:
            moments.push(x)
        return moments.mean
    if sliding:
        total = math.fsum(xs)
        return total / len(xs) if kind == "avg" else total
    total = 0.0
    for x in xs:  # the landmark SUM is the arrival-order float sum
        total += x
    return total


class TestAgainstBruteForce:
    @given(
        values=_STREAMS,
        kind=st.sampled_from(KINDS),
        window=st.one_of(st.none(), st.integers(1, 8)),
    )
    @settings(max_examples=400, deadline=None)
    def test_every_scope_and_kind(self, values, kind, window):
        agg = ScopeAggregate(kind, window)
        for i, x in enumerate(values, start=1):
            evicted = agg.push(Record(x))
            if window is None:
                positions = full_scope_positions(i)
                assert evicted is None
            else:
                positions = sliding_scope_positions(i, window)
                expired = i - window
                assert evicted == (Record(values[expired - 1]) if expired >= 1 else None)
            xs = [values[p - 1] for p in positions]
            assert len(agg) == len(xs)
            if kind in ("min", "max"):
                assert agg.value() == _reference(kind, xs, window is not None)
            else:
                expected = outcome(_reference, kind, xs, window is not None)
                assert outcome(agg.value) == expected


def _values(agg: ScopeAggregate, xs: list[float]) -> list[float]:
    out = []
    for x in xs:
        agg.push(Record(x))
        out.append(agg.value())
    return out


class TestAggregate:
    def test_landmark_kinds(self):
        outputs = {kind: _values(ScopeAggregate(kind), [5.0, 2.0, 8.0]) for kind in KINDS}
        assert outputs == {
            "min": [5.0, 2.0, 2.0],
            "max": [5.0, 5.0, 8.0],
            "avg": [5.0, 3.5, 5.0],
            "sum": [5.0, 7.0, 15.0],
        }

    def test_sliding_extrema_forget(self):
        outputs = _values(ScopeAggregate("min", window=3), [5.0, 3.0, 7.0, 4.0, 8.0])
        assert outputs == [5.0, 3.0, 3.0, 3.0, 4.0]

    def test_sliding_window_is_the_live_records(self):
        agg = ScopeAggregate("sum", window=2)
        records = [Record(1.0, 9.0), Record(2.0), Record(3.0)]
        assert [agg.push(r) for r in records] == [None, None, records[0]]
        assert list(agg.window) == records[1:]
        assert ScopeAggregate("sum").window is None

    def test_zero_ties(self):
        # Landmark extrema keep the older of two equal values; the sliding
        # deque keeps the newer one.
        for window, expected in ((None, "0.0"), (4, "-0.0")):
            for kind in ("min", "max"):
                assert repr(_values(ScopeAggregate(kind, window), [0.0, -0.0])[-1]) == expected

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("window", [None, 3])
    def test_empty_scope_raises(self, kind, window):
        with pytest.raises(EmptyScopeError):
            ScopeAggregate(kind, window).value()

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            ScopeAggregate("median")
