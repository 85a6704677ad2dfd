"""Tests for the fixed-capacity ring buffer."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.structures.ring_buffer import RingBuffer


class TestRingBuffer:
    def test_push_below_capacity_evicts_nothing(self):
        buf = RingBuffer(3)
        assert buf.push("a") is None
        assert buf.push("b") is None
        assert len(buf) == 2
        assert not buf.is_full

    def test_push_at_capacity_evicts_oldest(self):
        buf = RingBuffer(2)
        buf.push(1)
        buf.push(2)
        assert buf.push(3) == 1
        assert buf.push(4) == 2
        assert list(buf) == [3, 4]

    def test_iteration_order_is_fifo(self):
        buf = RingBuffer(4)
        for i in range(7):
            buf.push(i)
        assert list(buf) == [3, 4, 5, 6]

    def test_oldest_and_newest(self):
        buf = RingBuffer(3)
        for i in range(5):
            buf.push(i)
        assert buf.oldest() == 2
        assert buf.newest() == 4

    def test_indexing(self):
        buf = RingBuffer(3)
        for i in range(5):
            buf.push(i)
        assert buf[0] == 2
        assert buf[2] == 4
        assert buf[-1] == 4
        with pytest.raises(IndexError):
            _ = buf[3]

    def test_empty_access_raises(self):
        buf = RingBuffer(2)
        with pytest.raises(IndexError):
            buf.oldest()
        with pytest.raises(IndexError):
            buf.newest()

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            RingBuffer(0)

    def test_capacity_one(self):
        buf = RingBuffer(1)
        assert buf.push("x") is None
        assert buf.push("y") == "x"
        assert list(buf) == ["y"]

    def test_none_is_storable(self):
        buf = RingBuffer(2)
        buf.push(None)
        buf.push(None)
        assert len(buf) == 2
        assert list(buf) == [None, None]

    @given(
        capacity=st.integers(1, 16),
        items=st.lists(st.integers(), min_size=0, max_size=64),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_list_tail(self, capacity, items):
        buf = RingBuffer(capacity)
        evictions = []
        for item in items:
            evicted = buf.push(item)
            if evicted is not None or (len(evictions) < len(items) - capacity):
                evictions.append(evicted)
        assert list(buf) == items[-capacity:]
        if len(items) > capacity:
            assert buf.oldest() == items[-capacity]


class TestLoad:
    """``load`` is the columnar kernels' bulk window rebuild."""

    def test_load_replaces_contents(self):
        buf = RingBuffer(4)
        for item in (1, 2, 3, 4, 5):
            buf.push(item)
        buf.load([9, 8])
        assert list(buf) == [9, 8]
        assert len(buf) == 2
        assert buf.oldest() == 9 and buf.newest() == 8
        assert buf.push(7) is None  # not full after a partial load

    def test_load_respects_capacity(self):
        with pytest.raises(ConfigurationError, match="capacity"):
            RingBuffer(2).load([1, 2, 3])

    def test_load_then_push_evicts_in_order(self):
        buf = RingBuffer(3)
        buf.load([1, 2, 3])
        assert buf.push(4) == 1
        assert list(buf) == [2, 3, 4]
