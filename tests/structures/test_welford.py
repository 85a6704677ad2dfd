"""Tests for the Welford running-moments structure."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import EmptyScopeError, StreamError
from repro.structures.welford import RunningMoments


class TestRunningMoments:
    def test_mean_and_variance_simple(self):
        m = RunningMoments()
        for v in [2.0, 4.0, 6.0]:
            m.push(v)
        assert m.mean == pytest.approx(4.0)
        assert m.variance == pytest.approx(np.var([2.0, 4.0, 6.0]))
        assert m.std == pytest.approx(np.std([2.0, 4.0, 6.0]))

    def test_extrema(self):
        m = RunningMoments()
        for v in [3.0, -1.0, 7.0]:
            m.push(v)
        assert m.minimum == -1.0
        assert m.maximum == 7.0

    def test_standard_error(self):
        m = RunningMoments()
        for v in [1.0, 2.0, 3.0, 4.0]:
            m.push(v)
        assert m.standard_error == pytest.approx(m.std / 2.0)

    def test_empty_access_raises(self):
        m = RunningMoments()
        for attr in ("mean", "variance", "std", "minimum", "maximum", "standard_error"):
            with pytest.raises(EmptyScopeError):
                getattr(m, attr)

    def test_remove_reverses_push(self):
        m = RunningMoments()
        values = [5.0, 1.0, 8.0, 3.0]
        for v in values:
            m.push(v)
        m.remove(8.0)
        kept = [5.0, 1.0, 3.0]
        assert m.count == 3
        assert m.mean == pytest.approx(np.mean(kept))
        assert m.variance == pytest.approx(np.var(kept))

    def test_remove_last_element_resets(self):
        m = RunningMoments()
        m.push(7.0)
        m.remove(7.0)
        assert m.count == 0

    def test_remove_from_empty_raises(self):
        with pytest.raises(StreamError):
            RunningMoments().remove(1.0)

    def test_single_value_has_zero_variance(self):
        m = RunningMoments()
        m.push(42.0)
        assert m.variance == 0.0

    def test_merge(self):
        a, b = RunningMoments(), RunningMoments()
        left, right = [1.0, 2.0, 3.0], [10.0, 20.0]
        for v in left:
            a.push(v)
        for v in right:
            b.push(v)
        a.merge(b)
        combined = left + right
        assert a.count == 5
        assert a.mean == pytest.approx(np.mean(combined))
        assert a.variance == pytest.approx(np.var(combined))
        assert a.minimum == 1.0
        assert a.maximum == 20.0

    def test_merge_into_empty(self):
        a, b = RunningMoments(), RunningMoments()
        b.push(3.0)
        b.push(5.0)
        a.merge(b)
        assert a.count == 2
        assert a.mean == pytest.approx(4.0)

    def test_merge_empty_is_noop(self):
        a = RunningMoments()
        a.push(1.0)
        a.merge(RunningMoments())
        assert a.count == 1

    @given(values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_matches_numpy(self, values):
        m = RunningMoments()
        for v in values:
            m.push(v)
        assert m.mean == pytest.approx(np.mean(values), rel=1e-9, abs=1e-6)
        assert m.variance == pytest.approx(np.var(values), rel=1e-6, abs=1e-3)
        assert m.minimum == min(values)
        assert m.maximum == max(values)

    @given(
        values=st.lists(st.floats(-1e4, 1e4), min_size=2, max_size=60),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_sliding_push_remove_matches_numpy(self, values, data):
        window = data.draw(st.integers(1, len(values)))
        m = RunningMoments()
        for i, v in enumerate(values):
            m.push(v)
            if i >= window:
                m.remove(values[i - window])
            live = values[max(0, i - window + 1) : i + 1]
            assert m.count == len(live)
            assert m.mean == pytest.approx(np.mean(live), rel=1e-6, abs=1e-6)
            assert m.variance == pytest.approx(np.var(live), rel=1e-4, abs=1e-4)


# Signed zeros and repeats make extremum ties, where the kept zero's sign
# shows; a replay must keep the same one as the pushes.
_TIE_HEAVY = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]),
    st.floats(-1e3, 1e3),
)


class TestReplay:
    """``replay``/``restore`` against the scalar ``push`` loop, bit for bit."""

    @given(
        prefix=st.lists(_TIE_HEAVY, max_size=40),
        values=st.lists(_TIE_HEAVY, max_size=80),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_replay_matches_pushes(self, prefix, values, data):
        moments = RunningMoments()
        for v in prefix:
            moments.push(v)
        before = repr(vars(moments))
        replay = moments.replay(values)
        assert repr(vars(moments)) == before  # the replay leaves it alone

        scalar = RunningMoments()
        for v in prefix:
            scalar.push(v)
        for i, v in enumerate(values):
            scalar.push(v)
            row = (
                replay.count[i], replay.mean[i], replay.m2[i],
                replay.minimum[i], replay.maximum[i],
            )
            expected = (
                scalar.count, scalar.mean, scalar._m2, scalar.minimum, scalar.maximum
            )
            assert repr(tuple(map(float, row))) == repr(tuple(map(float, expected)))

        k = data.draw(st.integers(0, len(values)))
        expected = RunningMoments()
        for v in prefix + values[:k]:
            expected.push(v)
        moments.restore(replay, k)
        assert vars(moments) == vars(expected)
        assert repr(vars(moments)) == repr(vars(expected))

    def test_restore_keeps_python_types(self):
        moments = RunningMoments()
        replay = moments.replay([3.0, 1.0, 2.0])
        moments.restore(replay, 2)
        assert type(moments.count) is int
        assert all(type(v) is float for v in (moments.mean, moments.minimum, moments.maximum))
        moments.restore(replay, 0)
        assert vars(moments) == vars(RunningMoments())
