"""Tests for the crash-safe checkpoint/resume runtime.

The contract under test: a processor killed at any point and resumed from
its newest intact generation produces exactly the outputs an uninterrupted
run would — and every deviation (corrupt blob, wrong source, truncated
stream) fails loudly instead of resuming wrong.
"""

from __future__ import annotations

import pytest

from repro.checkpoint import CheckpointManager, CheckpointState, generation_name
from repro.core.engine import build_estimator
from repro.core.multiplex import QueryEngine
from repro.core.query import CorrelatedQuery
from repro.eval.tracker import evaluate_methods
from repro.exceptions import ConfigurationError, StreamError
from repro.keyed import GatedKeyedBank
from repro.obs.sink import RecordingSink
from repro.persistence import dumps_estimator, loads_estimator
from repro.streams.model import Record
from repro.testing.faults import flip_bit, truncate_file
from tests.conftest import make_records

MIN_Q = CorrelatedQuery("count", "min", epsilon=9.0)
SW_Q = CorrelatedQuery("count", "avg", window=30)


def _stream(rng, n=200):
    return make_records(rng.uniform(1.0, 100.0, size=n))


def _evaluate(manager, records, query=MIN_Q, resume=False) -> list[float]:
    """One checkpointed piecemeal-uniform evaluation; its per-tuple outputs."""
    results = evaluate_methods(
        records, query, methods=["piecemeal-uniform"], checkpoint=manager, resume=resume
    )
    return results["piecemeal-uniform"].outputs.tolist()


class TestScheduling:
    def test_validation(self, tmp_path):
        with pytest.raises(ConfigurationError):
            CheckpointManager(tmp_path, every=0)
        with pytest.raises(ConfigurationError):
            CheckpointManager(tmp_path, retain=0)
        with pytest.raises(ConfigurationError):
            CheckpointManager(tmp_path).save(object(), -1)

    def test_every_n_schedule(self, tmp_path, rng):
        manager = CheckpointManager(tmp_path, every=50, retain=10)
        est = build_estimator(MIN_Q, "piecemeal-uniform")
        for i, r in enumerate(_stream(rng, 120), start=1):
            est.update(r)
            took = manager.maybe_save(est, i)
            assert (took is not None) == (i % 50 == 0), i
        assert [offset for offset, _ in manager.generations()] == [50, 100]

    def test_on_demand_save_without_schedule(self, tmp_path, rng):
        manager = CheckpointManager(tmp_path)  # every=None
        est = build_estimator(MIN_Q, "piecemeal-uniform")
        for r in _stream(rng, 10):
            est.update(r)
        assert manager.maybe_save(est, 10) is None
        path = manager.save(est, 10)
        assert path.exists()
        assert manager.last_saved == 10

    def test_rotation_keeps_newest(self, tmp_path, rng):
        manager = CheckpointManager(tmp_path, every=10, retain=3)
        _evaluate(manager, _stream(rng, 100))
        assert [offset for offset, _ in manager.generations()] == [80, 90, 100]

    def test_run_takes_final_generation(self, tmp_path, rng):
        # 95 tuples with every=50: schedule fires at 50, the end-of-stream
        # save covers the 45-tuple tail.
        manager = CheckpointManager(tmp_path, every=50, retain=10)
        _evaluate(manager, _stream(rng, 95))
        assert [offset for offset, _ in manager.generations()] == [50, 95]


class TestRestore:
    def test_restore_empty_directory(self, tmp_path):
        assert CheckpointManager(tmp_path).restore() is None
        assert CheckpointManager(tmp_path / "never-created").restore() is None

    def test_resume_without_checkpoint_needs_fresh(self, tmp_path, rng):
        manager = CheckpointManager(tmp_path)
        with pytest.raises(StreamError):
            manager.resume(_stream(rng, 5))
        target, offset = manager.resume(_stream(rng, 5), fresh=lambda: "new")
        assert (target, offset) == ("new", 0)

    def test_restore_picks_newest(self, tmp_path, rng):
        manager = CheckpointManager(tmp_path, retain=5)
        est = build_estimator(MIN_Q, "piecemeal-uniform")
        records = _stream(rng)
        for i, r in enumerate(records, start=1):
            est.update(r)
            if i in (60, 120, 180):
                manager.save(est, i)
        restored = CheckpointManager(tmp_path).restore()
        assert restored is not None and restored.offset == 180

    def test_tmp_debris_is_ignored(self, tmp_path, rng):
        manager = CheckpointManager(tmp_path)
        est = build_estimator(MIN_Q, "piecemeal-uniform")
        manager.save(est, 10)
        (tmp_path / (generation_name(99) + ".tmp.1234")).write_bytes(b"torn")
        restored = CheckpointManager(tmp_path).restore()
        assert restored is not None and restored.offset == 10

    def test_corrupt_latest_falls_back_one_generation(self, tmp_path, rng):
        sink = RecordingSink()
        manager = CheckpointManager(tmp_path, retain=5)
        est = build_estimator(MIN_Q, "piecemeal-uniform")
        records = _stream(rng)
        reference = []
        for i, r in enumerate(records, start=1):
            reference.append(est.update(r))
            if i in (100, 150):
                manager.save(est, i)
        truncate_file(tmp_path / generation_name(150), 32)
        restored = CheckpointManager(tmp_path, sink=sink).restore()
        assert restored is not None
        assert restored.offset == 100 and restored.skipped == 1
        assert sink.count("checkpoint.corrupt") == 1.0
        # ... and the survivor really resumes identically.
        tail = [restored.target.update(r) for r in records[100:]]
        assert tail == reference[100:]

    def test_all_generations_corrupt_raises(self, tmp_path, rng):
        manager = CheckpointManager(tmp_path, retain=5)
        est = build_estimator(MIN_Q, "piecemeal-uniform")
        for r in _stream(rng, 20):
            est.update(r)
        manager.save(est, 10)
        manager.save(est, 20)
        flip_bit(tmp_path / generation_name(10))
        truncate_file(tmp_path / generation_name(20), 7)
        with pytest.raises(StreamError, match="corrupt"):
            CheckpointManager(tmp_path).restore()

    def test_foreign_payload_is_treated_as_corrupt(self, tmp_path):
        # A valid repro checkpoint whose payload is not a CheckpointState
        # (e.g. a bare estimator saved via save_estimator) is not resumable.
        from repro.persistence import atomic_write_bytes

        atomic_write_bytes(
            tmp_path / generation_name(5), dumps_estimator({"not": "state"})
        )
        with pytest.raises(StreamError, match="corrupt"):
            CheckpointManager(tmp_path).restore()

    def test_source_mismatch_raises(self, tmp_path, rng):
        est = build_estimator(MIN_Q, "piecemeal-uniform")
        CheckpointManager(tmp_path, source="USAGE:2000").save(est, 10)
        with pytest.raises(StreamError, match="source"):
            CheckpointManager(tmp_path, source="ZIPF:2000").restore()

    def test_offset_beyond_stream_raises(self, tmp_path, rng):
        est = build_estimator(MIN_Q, "piecemeal-uniform")
        manager = CheckpointManager(tmp_path)
        manager.save(est, 50)
        with pytest.raises(StreamError, match="beyond"):
            manager.resume(_stream(rng, 20))


class TestResumeEquivalence:
    @pytest.mark.parametrize("query", [MIN_Q, SW_Q], ids=["landmark", "sliding"])
    def test_killed_and_resumed_run_matches_uninterrupted(self, tmp_path, rng, query):
        records = _stream(rng, 240)
        uninterrupted = build_estimator(query, "piecemeal-uniform")
        reference = [uninterrupted.update(r) for r in records]

        manager = CheckpointManager(tmp_path, every=40)
        head = _evaluate(manager, records[:170], query)  # "crash" at tuple 170
        assert head == reference[:170]

        # The process is gone; only the directory survives.
        resumed = CheckpointManager(tmp_path, every=40)
        _, offset = resumed.resume(records)
        assert offset == 170  # the evaluation takes a final generation at end of feed
        outputs = _evaluate(resumed, records, query, resume=True)
        tail = outputs[offset:]
        assert head[:offset] + tail == reference

    def test_events_flow_through_sink(self, tmp_path, rng):
        sink = RecordingSink()
        manager = CheckpointManager(tmp_path, every=25, sink=sink)
        _evaluate(manager, _stream(rng, 100))
        assert sink.count("checkpoint.write") == 4.0
        resumed = CheckpointManager(tmp_path, sink=sink)
        resumed.resume(_stream(rng, 100))
        assert sink.count("checkpoint.restore") == 1.0
        assert sink.count("recovery.replayed") == 1.0
        [event] = sink.events_named("recovery.replayed")
        assert event.fields == {"offset": 100.0, "count": 0.0}


class TestCompositeRoundTrips:
    def test_query_engine_round_trip(self, tmp_path, rng):
        engine = QueryEngine()
        engine.register("band", MIN_Q)
        engine.register("above-mean", CorrelatedQuery("sum", "avg"))
        fired = []
        engine.subscribe(10, lambda pos, report: fired.append(pos))
        records = _stream(rng, 90)
        for r in records:
            engine.update(r)

        manager = CheckpointManager(tmp_path)
        manager.save(engine, engine.position)
        restored, offset = CheckpointManager(tmp_path).resume(records)
        assert offset == engine.position == restored.position
        assert restored.report() == engine.report()
        assert restored.obs_state() == engine.obs_state()

    def test_restored_engine_drops_subscribers(self, tmp_path, rng):
        engine = QueryEngine()
        engine.register("q", MIN_Q)
        fired = []
        engine.subscribe(5, lambda pos, report: fired.append(pos))
        manager = CheckpointManager(tmp_path)
        manager.save(engine, 0)
        restored = manager.restore().target
        for r in _stream(rng, 10):
            restored.update(r)
        assert fired == []  # callbacks are process-local; re-subscribe after resume

    def test_keyed_bank_round_trip(self, tmp_path, rng):
        bank = GatedKeyedBank(MIN_Q, promote_threshold=1)
        records = _stream(rng, 120)
        for i, r in enumerate(records):
            bank.update(f"customer-{i % 4}", r)
        CheckpointManager(tmp_path).save(bank, len(records))
        restored, offset = CheckpointManager(tmp_path).resume(records)
        assert offset == len(records)
        assert restored.estimates() == bank.estimates()
        assert restored.obs_state() == bank.obs_state()
        # The restored bank keeps its keys and routes new records alike.
        assert sorted(restored.keys()) == sorted(bank.keys())
        extra = Record(5.0)
        assert restored.update("customer-0", extra) == bank.update("customer-0", extra)


class TestStatePayload:
    def test_state_survives_persistence_layer(self):
        state = CheckpointState(target={"a": 1}, offset=7, source="s")
        back = loads_estimator(dumps_estimator(state))
        assert back == state
