"""Columnar conversions: both ``records_to_columns`` paths, bit for bit."""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.streams.columns import as_columns, columns_to_records, records_to_columns
from repro.streams.model import Record

RECORDS = [Record(1.5, 2.0), Record(-3.25, 1.0), Record(0.0, 7.5)]


class TestRoundTrip:
    def test_records_to_columns_and_back(self):
        xs, ys = records_to_columns(RECORDS)
        assert list(xs) == [1.5, -3.25, 0.0]
        assert list(ys) == [2.0, 1.0, 7.5]
        assert columns_to_records(xs, ys) == RECORDS

    def test_as_columns_defaults_y_to_one(self):
        xs, ys = as_columns([4.0, 5.0])
        assert list(ys) == [1.0, 1.0]
        assert len(xs) == 2

    def test_as_columns_rejects_length_mismatch(self):
        with pytest.raises(ConfigurationError, match="mismatch"):
            as_columns([1.0, 2.0], [3.0])


class TestOutFastPath:
    def test_fills_buffers_in_place_and_returns_views(self):
        xs_buf = np.zeros(8, dtype=np.float64)
        ys_buf = np.zeros(8, dtype=np.float64)
        xs, ys = records_to_columns(RECORDS, out=(xs_buf, ys_buf))
        assert xs.base is xs_buf or xs.base is xs_buf.base
        assert list(xs) == [1.5, -3.25, 0.0]
        assert list(ys) == [2.0, 1.0, 7.5]
        # In place: the backing buffers hold the converted prefix.
        assert list(xs_buf[:3]) == [1.5, -3.25, 0.0]

    def test_reuse_across_chunks_overwrites_cleanly(self):
        buf = (np.empty(4, dtype=np.float64), np.empty(4, dtype=np.float64))
        first = records_to_columns(RECORDS, out=buf)
        assert list(first[0]) == [1.5, -3.25, 0.0]
        second = records_to_columns([Record(9.0, 9.0)], out=buf)
        assert list(second[0]) == [9.0]
        assert len(second[0]) == 1

    def test_matches_allocating_path_bit_for_bit(self):
        records = [Record(float(i) / 7.0, float(i) * 3.0) for i in range(50)]
        fresh = records_to_columns(records)
        buf = (np.empty(64, dtype=np.float64), np.empty(64, dtype=np.float64))
        hoisted = records_to_columns(records, out=buf)
        assert np.array_equal(fresh[0], hoisted[0])
        assert np.array_equal(fresh[1], hoisted[1])

    def test_undersized_buffers_raise(self):
        buf = (np.empty(2, dtype=np.float64), np.empty(2, dtype=np.float64))
        with pytest.raises(ConfigurationError, match="out= buffers hold 2"):
            records_to_columns(RECORDS, out=buf)

    def test_empty_chunk_returns_empty_views(self):
        buf = (np.empty(4, dtype=np.float64), np.empty(4, dtype=np.float64))
        xs, ys = records_to_columns([], out=buf)
        assert len(xs) == 0 and len(ys) == 0

    def test_writes_into_shared_memory_views(self):
        """The shm transport's use case: fill an externally owned buffer."""
        shm = shared_memory.SharedMemory(create=True, size=2 * 8 * 8)
        try:
            xs_buf = np.frombuffer(shm.buf, dtype=np.float64, count=8, offset=0)
            ys_buf = np.frombuffer(shm.buf, dtype=np.float64, count=8, offset=64)
            records_to_columns(RECORDS, out=(xs_buf, ys_buf))
            again = np.frombuffer(bytes(shm.buf[:24]), dtype=np.float64)
            assert list(again) == [1.5, -3.25, 0.0]
            del xs_buf, ys_buf
        finally:
            shm.close()
            shm.unlink()



# Field values the sharded transport must carry unchanged: signed zeros,
# subnormals, the largest magnitudes, non-finite values, and ints (which
# convert as float() converts them, rounding past 2**53).
_FIELDS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308]),
    st.integers(-(2**70), 2**70),
)


def _per_field(records) -> tuple[np.ndarray, np.ndarray]:
    """The reference walk: one ``float()`` per field, record by record."""
    xs = np.array([float(r.x) for r in records], dtype=np.float64)
    ys = np.array([float(r.y) for r in records], dtype=np.float64)
    return xs, ys


def _bits(column) -> list[int]:
    return np.asarray(column, dtype=np.float64).view(np.uint64).tolist()


class TestFlatWalkBitIdentity:
    """Both paths equal the per-field walk, compared as raw 64-bit patterns."""

    @given(
        pool=st.lists(_FIELDS, min_size=1, max_size=16),
        n=st.sampled_from([0, 1, 2, 1025]),
    )
    @settings(max_examples=150, deadline=None)
    def test_both_paths_and_a_slab_match_float_per_field(self, pool, n):
        # Cycle a small drawn pool out to n records, so 1,025-record
        # chunks cost no more to draw than short ones.
        records = [
            Record(pool[i % len(pool)], pool[(7 * i + 3) % len(pool)]) for i in range(n)
        ]
        want_xs, want_ys = _per_field(records)

        xs, ys = records_to_columns(records)
        assert (_bits(xs), _bits(ys)) == (_bits(want_xs), _bits(want_ys))
        for column in (xs, ys):
            assert column.dtype == np.float64 and column.flags["C_CONTIGUOUS"]

        buf = (np.full(n + 3, 7.0), np.full(n + 3, 7.0))
        hoisted = records_to_columns(records, out=buf)
        assert (_bits(hoisted[0]), _bits(hoisted[1])) == (_bits(want_xs), _bits(want_ys))
        assert _bits(buf[0][n:]) == _bits([7.0] * 3)  # nothing past the chunk

        capacity = 1025
        shm = shared_memory.SharedMemory(create=True, size=2 * capacity * 8)
        try:
            slab = (
                np.frombuffer(shm.buf, dtype=np.float64, count=capacity, offset=0),
                np.frombuffer(shm.buf, dtype=np.float64, count=capacity, offset=capacity * 8),
            )
            records_to_columns(records, out=slab)
            del slab
            raw = np.frombuffer(bytes(shm.buf), dtype=np.float64)
            assert _bits(raw[:n]) == _bits(want_xs)
            assert _bits(raw[capacity : capacity + n]) == _bits(want_ys)
        finally:
            shm.close()
            shm.unlink()
