"""Columnar conversions, including the ``out=`` allocation-hoisting path."""

from __future__ import annotations

import pytest

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
        import numpy as np

        xs_buf = np.zeros(8, dtype=np.float64)
        ys_buf = np.zeros(8, dtype=np.float64)
        xs, ys = records_to_columns(RECORDS, out=(xs_buf, ys_buf))
        assert xs.base is xs_buf or xs.base is xs_buf.base
        assert list(xs) == [1.5, -3.25, 0.0]
        assert list(ys) == [2.0, 1.0, 7.5]
        # In place: the backing buffers hold the converted prefix.
        assert list(xs_buf[:3]) == [1.5, -3.25, 0.0]

    def test_reuse_across_chunks_overwrites_cleanly(self):
        import numpy as np

        buf = (np.empty(4, dtype=np.float64), np.empty(4, dtype=np.float64))
        first = records_to_columns(RECORDS, out=buf)
        assert list(first[0]) == [1.5, -3.25, 0.0]
        second = records_to_columns([Record(9.0, 9.0)], out=buf)
        assert list(second[0]) == [9.0]
        assert len(second[0]) == 1

    def test_matches_allocating_path_bit_for_bit(self):
        import numpy as np

        records = [Record(float(i) / 7.0, float(i) * 3.0) for i in range(50)]
        fresh = records_to_columns(records)
        buf = (np.empty(64, dtype=np.float64), np.empty(64, dtype=np.float64))
        hoisted = records_to_columns(records, out=buf)
        assert np.array_equal(fresh[0], hoisted[0])
        assert np.array_equal(fresh[1], hoisted[1])

    def test_undersized_buffers_raise(self):
        import numpy as np

        buf = (np.empty(2, dtype=np.float64), np.empty(2, dtype=np.float64))
        with pytest.raises(ConfigurationError, match="out= buffers hold 2"):
            records_to_columns(RECORDS, out=buf)

    def test_empty_chunk_returns_empty_views(self):
        import numpy as np

        buf = (np.empty(4, dtype=np.float64), np.empty(4, dtype=np.float64))
        xs, ys = records_to_columns([], out=buf)
        assert len(xs) == 0 and len(ys) == 0

    def test_writes_into_shared_memory_views(self):
        """The shm transport's use case: fill an externally owned buffer."""
        import numpy as np
        from multiprocessing import shared_memory

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

