"""Tests for estimator checkpoint/restore.

The key invariant: resuming from a checkpoint must continue *identically*
to an uninterrupted run — same outputs, bit for bit — for every estimator
type, including the sliding ones (whose state includes the live window).
"""

from __future__ import annotations

import pickle
import sys
import types
from collections import deque

import pytest

from repro.core.engine import build_estimator
from repro.core.query import CorrelatedQuery
from repro.core.time_sliding import TimeSlidingEstimator
from repro.exceptions import StreamError
from repro.keyed import GatedKeyedBank
from repro.persistence import (
    FORMAT_VERSION,
    dumps_estimator,
    load_estimator,
    loads_estimator,
    save_estimator,
)
from repro.streams.model import Record
from tests.conftest import make_records

QUERIES = {
    "lm-min": CorrelatedQuery("count", "min", epsilon=9.0),
    "lm-avg": CorrelatedQuery("sum", "avg"),
    "sw-min": CorrelatedQuery("count", "min", epsilon=9.0, window=40),
    "sw-avg": CorrelatedQuery("count", "avg", window=40),
}


def _methods_for(key: str) -> list[str]:
    if key.startswith("sw"):
        base = ["piecemeal-uniform", "wholesale-quantile", "equidepth", "exact"]
    else:
        base = [
            "piecemeal-uniform",
            "wholesale-quantile",
            "streaming-equidepth",
            "equidepth",
            "exact",
        ]
        base.append("heuristic-running" if "avg" in key else "heuristic-reset")
    return base


class TestResumeEquivalence:
    @pytest.mark.parametrize("query_key", sorted(QUERIES))
    def test_checkpoint_resume_is_bitwise_identical(self, rng, query_key):
        query = QUERIES[query_key]
        records = make_records(rng.uniform(1.0, 100.0, size=300))
        for method in _methods_for(query_key):
            uninterrupted = build_estimator(query, method, stream=records)
            reference = [uninterrupted.update(r) for r in records]

            first = build_estimator(query, method, stream=records)
            for r in records[:150]:
                first.update(r)
            resumed = loads_estimator(dumps_estimator(first))
            tail = [resumed.update(r) for r in records[150:]]
            assert tail == reference[150:], method

    def test_keyed_bank_checkpoints(self, rng):
        bank = GatedKeyedBank(QUERIES["lm-min"], promote_threshold=1)
        records = make_records(rng.uniform(1.0, 100.0, size=100))
        for i, r in enumerate(records):
            bank.update(f"k{i % 3}", r)
        restored = loads_estimator(dumps_estimator(bank))
        assert restored.estimates() == bank.estimates()


#: Time-window checkpoint stream: a warm-up, a gap longer than the
#: duration, then a Poisson-spaced steady state.
TIME_DURATION = 20.0
TIME_QUERIES = {
    "count-min": CorrelatedQuery("count", "min", epsilon=9.0),
    "sum-avg": CorrelatedQuery("sum", "avg"),
}


def _timed_stream(rng):
    times = [0.5 * i for i in range(60)]
    times.append(times[-1] + 2.5 * TIME_DURATION)
    clock = times[-1]
    for gap in rng.exponential(0.4, size=300):
        clock += float(gap)
        times.append(clock)
    xs = rng.lognormal(2.0, 0.7, size=len(times))
    ys = rng.uniform(0.5, 3.0, size=len(times))
    return list(zip(times, make_records(xs, ys)))


def _time_estimator(query, method):
    strategy, policy = method.split("-")
    return TimeSlidingEstimator(
        query, duration=TIME_DURATION, num_buckets=8, strategy=strategy, policy=policy
    )


class TestTimeWindowResume:
    @pytest.mark.parametrize("method", ["piecemeal-uniform", "wholesale-quantile"])
    @pytest.mark.parametrize("query_key", sorted(TIME_QUERIES))
    def test_resume_is_bitwise_identical(self, rng, query_key, method):
        """Saved during warm-up, right after a gap that empties the window,
        and in steady state, a time window resumes bit for bit."""
        query = TIME_QUERIES[query_key]
        stream = _timed_stream(rng)
        uninterrupted = _time_estimator(query, method)
        reference = [uninterrupted.update(t, r) for t, r in stream]
        for cut, phase in [(5, "warmup"), (61, "gap"), (250, "steady")]:
            first = _time_estimator(query, method)
            for t, r in stream[:cut]:
                first.update(t, r)
            if phase == "warmup":
                assert first.histogram is None
            elif phase == "gap":
                assert first.live_count == 1 and first.histogram is not None
            resumed = loads_estimator(dumps_estimator(first))
            tail = [resumed.update(t, r) for t, r in stream[cut:]]
            assert tail == reference[cut:], phase
            assert resumed.obs_state() == uninterrupted.obs_state()
            # The batched time path resumes identically too.
            batched = loads_estimator(dumps_estimator(first))
            rest = stream[cut:]
            assert (
                batched.update_columns(
                    [r.x for _, r in rest], [r.y for _, r in rest], times=[t for t, _ in rest]
                )
                == reference[cut:]
            )


class TestFileRoundTrip:
    def test_save_and_load(self, tmp_path, rng):
        query = QUERIES["lm-avg"]
        est = build_estimator(query, "piecemeal-uniform")
        for r in make_records(rng.uniform(1.0, 50.0, size=80)):
            est.update(r)
        path = tmp_path / "checkpoint.bin"
        save_estimator(est, path)
        restored = load_estimator(path)
        assert restored.estimate() == est.estimate()


class TestHeaderValidation:
    def test_garbage_rejected(self):
        with pytest.raises(StreamError):
            loads_estimator(b"definitely not a checkpoint")

    def test_foreign_pickle_rejected(self):
        with pytest.raises(StreamError):
            loads_estimator(pickle.dumps({"some": "dict"}))

    def test_future_format_rejected(self):
        est = build_estimator(QUERIES["lm-min"], "heuristic-reset")
        blob = dumps_estimator(est)
        payload = pickle.loads(blob)
        payload["format"] = FORMAT_VERSION + 1
        with pytest.raises(StreamError):
            loads_estimator(pickle.dumps(payload))

    def test_format_1_rejected(self):
        # Format 1 pickled the exact oracle's and the baselines' private
        # scope state; later formats hold one ScopeAggregate instead.
        oracle = build_estimator(QUERIES["sw-min"], "exact", universe=[1.0])
        payload = pickle.loads(dumps_estimator(oracle))
        payload["format"] = 1
        with pytest.raises(StreamError, match="checkpoint format 1 is not supported"):
            loads_estimator(pickle.dumps(payload))

    def test_format_2_sliding_checkpoint_refused_by_its_format(self, monkeypatch):
        # Format 2 pickled the estimator inline, and a sliding window as a
        # RingBuffer of [Record, side] cells; that class is gone.  The
        # header is still read, so the refusal names the format instead
        # of failing on the missing class.
        legacy = types.ModuleType("repro.structures.ring_buffer")

        class RingBuffer:
            def __init__(self, cells):
                self._items = cells
                self._start = 0
                self._size = len(cells)

        RingBuffer.__module__ = legacy.__name__
        RingBuffer.__qualname__ = "RingBuffer"
        legacy.RingBuffer = RingBuffer
        monkeypatch.setitem(sys.modules, legacy.__name__, legacy)
        estimator = build_estimator(QUERIES["sw-min"], "piecemeal-uniform")
        records = make_records([float(x) for x in range(100, 40, -1)])
        for r in records:
            estimator.update(r)
        estimator._ring = RingBuffer([[r, "I"] for r in records[-40:]])
        blob = pickle.dumps(
            {
                "magic": b"repro-checkpoint",
                "format": 2,
                "library": "0",
                "estimator": estimator,
            }
        )
        monkeypatch.delitem(sys.modules, legacy.__name__)
        with pytest.raises(ModuleNotFoundError):
            pickle.loads(blob)
        with pytest.raises(StreamError, match="checkpoint format 2 is not supported"):
            loads_estimator(blob)

    def test_format_3_time_window_checkpoint_refused_by_its_format(self, rng):
        # Format 3 pickled a time window as a deque of [time, record, side]
        # cells plus a separate last-time field; format 4 keeps a
        # ClockedRing.  Rebuild that layout from a live estimator, exactly
        # as the format-3 library pickled it.
        stream = _timed_stream(rng)[:40]
        estimator = _time_estimator(TIME_QUERIES["sum-avg"], "piecemeal-uniform")
        for t, r in stream:
            estimator.update(t, r)
        state = estimator.__dict__
        ring = state.pop("_ring")
        times = [t for t, _ in stream][-len(ring) :]
        state["_live"] = deque(
            [t, Record(x, y), side] for t, (x, y, side) in zip(times, ring)
        )
        state["_last_time"] = ring.now
        state["_duration"] = ring.duration
        state["_warmup_target"] = state["_m"]
        state["_buffer"] = None
        inner = pickle.dumps(estimator, protocol=pickle.HIGHEST_PROTOCOL)
        blob = pickle.dumps(
            {"magic": b"repro-checkpoint", "format": 3, "library": "0", "estimator": inner}
        )
        # Unpickled as-is, the old layout is an estimator with no window.
        stale = pickle.loads(inner)
        with pytest.raises(AttributeError, match="_ring"):
            stale.update(100.0, Record(1.0))
        with pytest.raises(StreamError, match="checkpoint format 3 is not supported"):
            loads_estimator(blob)

    def test_missing_estimator_payload_rejected(self):
        # Regression: a blob with a valid header but no 'estimator' key used
        # to escape as a raw KeyError instead of a StreamError.
        blob = dumps_estimator(object())
        payload = pickle.loads(blob)
        del payload["estimator"]
        with pytest.raises(StreamError, match="estimator"):
            loads_estimator(pickle.dumps(payload))


class TestAtomicSave:
    def test_mid_write_crash_preserves_previous_checkpoint(self, tmp_path, rng):
        # Regression: save_estimator used to write the final path in place,
        # so a crash mid-write destroyed the previous good checkpoint.
        from repro.testing.faults import FailingFilesystem, InjectedFault

        est = build_estimator(QUERIES["lm-min"], "piecemeal-uniform")
        for r in make_records(rng.uniform(1.0, 100.0, size=50)):
            est.update(r)
        path = tmp_path / "checkpoint.bin"
        save_estimator(est, path)
        good = path.read_bytes()

        for r in make_records(rng.uniform(1.0, 100.0, size=50)):
            est.update(r)
        with pytest.raises(InjectedFault):
            save_estimator(est, path, fs=FailingFilesystem("write", partial=64))
        assert path.read_bytes() == good
        assert load_estimator(path).estimate() is not None

    def test_successful_save_leaves_no_tmp_debris(self, tmp_path, rng):
        est = build_estimator(QUERIES["lm-min"], "piecemeal-uniform")
        save_estimator(est, tmp_path / "checkpoint.bin")
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.bin"]
