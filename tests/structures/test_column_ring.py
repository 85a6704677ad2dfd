"""Tests for the column ring: the sliding windows' one row store."""

from __future__ import annotations

import pickle
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.structures.column_ring import ColumnRing


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
