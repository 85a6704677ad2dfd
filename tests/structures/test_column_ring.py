"""Tests for the column ring: the sliding windows' one row store."""

from __future__ import annotations

import hashlib
import pickle
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, StreamError
from repro.structures.column_ring import ClockedRing, ColumnRing


def _rows(n: int, start: int = 0) -> list[tuple[float, float, int]]:
    return [(float(i), float(-i), i % 3) for i in range(start, start + n)]


def _push_columns(ring: ColumnRing, rows) -> list[tuple[float, float, int]]:
    xs, ys, sides = zip(*rows) if rows else ((), (), ())
    evicted = ring.push_columns(
        np.array(xs, dtype=np.float64), np.array(ys, dtype=np.float64), np.array(sides)
    )
    return list(zip(*(column.tolist() for column in evicted)))


class TestColumnRing:
    def test_push_at_capacity_evicts_oldest_with_its_side(self):
        ring = ColumnRing(2)
        ring.push(1.0, 10.0)
        ring.set_newest_side(2)
        ring.push(2.0, 20.0)
        assert ring.push(3.0, 30.0) == (1.0, 10.0, 2)
        assert ring.push(4.0, 40.0) == (2.0, 20.0, 0)
        assert list(ring) == [(3.0, 30.0, 0), (4.0, 40.0, 0)]

    def test_assign_sides_routes_oldest_first(self):
        ring = ColumnRing(3)
        for i in range(4):
            ring.push(float(i), float(10 * i))
        seen = []

        def route(x, y):
            seen.append((x, y))
            return int(x) % 2 + 1

        ring.assign_sides(route)
        assert seen == [(1.0, 10.0), (2.0, 20.0), (3.0, 30.0)]
        assert [row[2] for row in ring] == [2, 1, 2]
        filling = ColumnRing(4)
        filling.push(5.0, 1.0)
        filling.push(6.0, 1.0)
        filling.assign_sides(lambda x, y: int(x) - 4)
        assert [row[2] for row in filling] == [1, 2]

    def test_chunk_longer_than_the_window_evicts_its_own_rows(self):
        ring = ColumnRing(3)
        ring.push(-1.0, 1.0)
        evicted = _push_columns(ring, _rows(5))
        assert evicted == [(-1.0, 1.0, 0), *_rows(2)]
        assert list(ring) == _rows(3, start=2)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            ColumnRing(0)

    def test_same_rows_pickle_equal_whatever_the_head(self):
        # Two rings hold rows 5..7, one with its head mid-storage, one
        # with it at 0: pickled state names the live rows only.
        wrapped = ColumnRing(3)
        for x, y, side in _rows(8):
            wrapped.push(x, y)
            wrapped.set_newest_side(side)
        fresh = ColumnRing(3)
        _push_columns(fresh, _rows(3, start=5))
        assert list(wrapped) == list(fresh)
        assert pickle.dumps(wrapped) == pickle.dumps(fresh)

    def test_sparse_window_pickles_small(self):
        ring = ColumnRing(10_000)
        ring.push(1.0, 1.0)
        assert len(pickle.dumps(ring)) < 200

    @pytest.mark.parametrize(
        "pushes,digest",
        [
            (3, "e995608ddfa6102ffbfccba97988a044c31f6d16e1822ff0a1eb2327ba969d57"),
            (6, "d8c025a8252399c058745864a3ffa54719ccb448c3529f07fa0854068a4b8735"),
            (9, "d65d8145a4d1d7674cf2cf5c10e44df3ee7e201f67dedfd53ce9d871ea602e65"),
        ],
    )
    def test_count_ring_pickles_to_pinned_bytes(self, pushes, digest):
        # A count ring's pickled bytes are part of every sliding-window
        # checkpoint: these digests were taken from the ring before time
        # windows shared it, and must not move.
        ring = ColumnRing(4)
        for i in range(pushes):
            ring.push(float(i) + 0.5, 10.0 - i)
            ring.set_newest_side(i % 4)
        assert hashlib.sha256(pickle.dumps(ring, protocol=5)).hexdigest() == digest


class TestClockedRing:
    def test_a_push_expires_every_row_the_clock_passed(self):
        ring = ClockedRing(duration=5.0, capacity=2)
        for t, x in [(0.0, 1.0), (1.0, 2.0), (1.0, 3.0)]:
            ring.tick(t)
            assert ring.push(x, -x) is None
            ring.set_newest_side(int(x))
        ring.tick(6.0)  # cutoff 1.0: all three rows go, the newest stays
        assert ring.push(4.0, -4.0) == [(1.0, -1.0, 1), (2.0, -2.0, 2), (3.0, -3.0, 3)]
        assert list(ring) == [(4.0, -4.0, 0)]

    def test_clock_must_be_finite_and_non_decreasing(self):
        ring = ClockedRing(duration=1.0)
        ring.tick(2.0)
        with pytest.raises(StreamError, match="non-decreasing"):
            ring.tick(1.0)
        with pytest.raises(StreamError, match="non-finite"):
            ring.tick(float("nan"))
        assert ring.now == 2.0

    def test_bad_duration_rejected(self):
        for duration in (0.0, -1.0, float("nan")):
            with pytest.raises(ConfigurationError):
                ClockedRing(duration)


def _clocked_steps(data, duration):
    """Non-decreasing times (duplicates, short steps and gaps > duration)
    with a row each."""
    steps = data.draw(
        st.lists(
            st.tuples(
                st.one_of(
                    st.just(0.0),
                    st.floats(0.0, duration / 4),
                    st.floats(duration, 3 * duration),
                ),
                _row,
            ),
            max_size=60,
        )
    )
    times = np.cumsum([gap for gap, _ in steps]).tolist()
    return [(t, row) for t, (_, row) in zip(times, steps)]


@given(duration=st.sampled_from([0.5, 1.0, 7.0]), capacity=st.integers(1, 3), data=st.data())
@settings(max_examples=300, deadline=None)
def test_clocked_ring_matches_a_timed_deque(duration, capacity, data):
    """A clocked ring keeps and hands back what a deque drained by time
    does: expired rows oldest first with their sides, through any number
    of doublings and pickle round trips."""
    ring = ClockedRing(duration, capacity=capacity)
    model: deque = deque()
    shadow = pickle.loads(pickle.dumps(ring))  # restored before every step
    for now, (x, y, side) in _clocked_steps(data, duration):
        expected = []
        while model and model[0][0] <= now - duration:
            expected.append(model.popleft()[1])
        model.append((now, (x, y, side)))
        for copy in (ring, shadow):
            copy.tick(now)
            assert repr(copy.push(x, y)) == repr(expected or None)
            copy.set_newest_side(side)
        live = [row for _, row in model]
        assert repr(list(ring)) == repr(live)
        assert repr(list(shadow)) == repr(live)
        assert len(ring) == len(model)
        assert repr(ring.x_values()) == repr([row[0] for row in live])
        shadow = pickle.loads(pickle.dumps(ring))
        assert shadow.now == ring.now and shadow.duration == ring.duration
    # Side assignment walks the live rows oldest first, wherever the head is.
    ring.assign_sides(lambda x, y: 3)
    assert [row[2] for row in ring] == [3] * len(model)


def test_clocked_ring_grows_by_doubling():
    ring = ClockedRing(duration=100.0, capacity=1)
    for i in range(40):
        ring.tick(float(i))
        assert ring.push(float(i), 1.0) is None
    assert len(ring) == 40
    assert ring.x_values() == [float(i) for i in range(40)]


#: One operation: a scalar push (with the side set after it, as the
#: estimators do) or a columnar push of a chunk of rows.
_values = st.floats(allow_nan=False, allow_infinity=False, width=64)
_row = st.tuples(_values, _values, st.integers(0, 3))


@given(
    capacity=st.integers(1, 6),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_matches_a_bounded_deque(capacity, data):
    """Random push/push_columns mixes evict and keep what a deque(maxlen) does."""
    ring = ColumnRing(capacity)
    model: deque = deque(maxlen=capacity)
    ops = data.draw(
        st.lists(
            st.one_of(
                _row.map(lambda row: ("push", row)),
                st.lists(_row, max_size=3 * capacity).map(lambda rows: ("columns", rows)),
            ),
            max_size=12,
        )
    )
    for kind, payload in ops:
        if kind == "push":
            x, y, side = payload
            expected = model[0] if len(model) == capacity else None
            model.append(payload)
            got = ring.push(x, y)
            ring.set_newest_side(side)
            assert repr(got) == repr(expected)
        else:
            expected = []
            for row in payload:
                if len(model) == capacity:
                    expected.append(model[0])
                model.append(row)
            assert repr(_push_columns(ring, payload)) == repr(expected)
        # repr compares bit for bit: 0.0 and -0.0 differ.
        assert repr(list(ring)) == repr(list(model))
        assert len(ring) == len(model)
        assert repr(ring.x_values()) == repr([row[0] for row in model])
        restored = pickle.loads(pickle.dumps(ring))
        assert repr(list(restored)) == repr(list(model))
        # A restored ring carries on exactly like the original.
        assert restored.push(0.5, 0.25) == ring.push(0.5, 0.25)
        assert list(restored) == list(ring)
        model.append((0.5, 0.25, 0))
