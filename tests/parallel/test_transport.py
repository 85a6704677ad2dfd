"""The shared-memory slot ring: parity, slot recycling, fault paths, cleanup.

The fault paths pinned here: a worker SIGKILLed mid-slot must surface as
a :class:`~repro.exceptions.StreamError` (not a hang); a worker error
must surface with its traceback wherever the coordinator waits, a slot
acquire included; a coordinator crash must leave slabs that
:func:`~repro.parallel.transport.unlink_stale_slabs` can mop up, and no
worker running; normal
and worker-error runs must be silent under ``-W error`` (no leaked
shared-memory warnings, no resource-tracker noise, no unclosed pipe
ends); start/close cycles must leak no file descriptors; and merged
results must be bit-identical across ``fork``/``spawn`` and to an
in-process merge of the same per-shard substreams.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import random
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.core.engine import build_estimator
from repro.core.query import CorrelatedQuery
from repro.exceptions import ConfigurationError, StreamError
from repro.obs.sink import RecordingSink
from repro.parallel import ShardedIngestor, make_partitioner, merge_all, unlink_stale_slabs
from repro.parallel.transport import DEFAULT_SLOTS, ShmTransport
from repro.streams.columns import records_to_columns
from repro.streams.model import Record

MIN_QUERY = CorrelatedQuery(dependent="count", independent="min", epsilon=0.5)
AVG_QUERY = CorrelatedQuery(dependent="count", independent="avg")

HAS_DEV_SHM = Path("/dev/shm").is_dir()


def _stream(n: int, seed: int = 3) -> list[Record]:
    rng = random.Random(seed)
    return [Record(x=rng.gauss(100.0, 20.0), y=1.0) for _ in range(n)]


def _substreams(records, partition: str, shards: int, chunk_size: int) -> list[list[Record]]:
    """Each shard's records from one ``ingest(records)`` call, in arrival order.

    Replays the coordinator's partitioning in process: round-robin
    stripes granules of ``min(chunk_size, ceil(len / shards))`` records
    cyclically, and a range partitioner primes on the whole call when it
    holds at least one chunk's worth of records.
    """
    partitioner = make_partitioner(partition, shards)
    parts: list[list[Record]] = [[] for _ in range(shards)]
    if partition == "round-robin":
        size = min(chunk_size, max(1, -(-len(records) // shards)))
        for lo in range(0, len(records), size):
            parts[partitioner.next_chunk_shard()].extend(records[lo : lo + size])
        return parts
    if partition == "range":
        assert len(records) >= max(chunk_size, 4 * shards)
        partitioner.prime([r.x for r in records])
    for record in records:
        parts[partitioner.assign(record)].append(record)
    return parts


def _in_process_merge(query, records, partition: str, shards: int, chunk_size: int):
    """``merge_all`` over one in-process estimator per replayed substream."""
    estimators = []
    for part in _substreams(records, partition, shards, chunk_size):
        estimator = build_estimator(query, "piecemeal-uniform", num_buckets=10)
        if part:
            estimator.update_columns(*records_to_columns(part), collect="none")
        estimators.append(estimator)
    return merge_all(estimators)


class TestValidation:
    @pytest.mark.parametrize("name", ["queue", "shem"])
    def test_only_shm_transport_is_accepted(self, name):
        with pytest.raises(ConfigurationError, match="shm is the only transport"):
            ShardedIngestor(MIN_QUERY, transport=name)

    def test_shm_is_still_accepted(self):
        state = ShardedIngestor(MIN_QUERY, transport="shm").obs_state()
        assert state["transport.slots"] == 0.0

    def test_transport_rejects_bad_chunk_size(self):
        with pytest.raises(ConfigurationError, match="chunk_size"):
            ShmTransport(0)

    def test_shm_rejects_bad_slot_count(self):
        with pytest.raises(ConfigurationError, match="slots_per_shard"):
            ShmTransport(64, slots_per_shard=0)


class TestInProcessParity:
    """The ring's merged summary is bit-identical to an in-process merge."""

    @pytest.mark.parametrize("partition", ["round-robin", "hash", "range"])
    def test_merged_estimates_bit_identical(self, partition):
        records = _stream(3000, seed=11)
        with ShardedIngestor(
            MIN_QUERY, shards=3, partition=partition, chunk_size=128
        ) as ingestor:
            ingestor.ingest(records)
            merged = ingestor.merged_estimator()
            sharded = (merged.estimate(), merged.extremum, ingestor.merge_error_bound())
        # Same substreams into the same estimators, merged in shard order:
        # the wire must not change a single bit.
        reference = _in_process_merge(MIN_QUERY, records, partition, 3, 128)
        assert sharded == (
            reference.estimate(),
            reference.extremum,
            reference.merge_error_bound(),
        )

    def test_avg_query_parity(self):
        records = _stream(2000, seed=19)
        with ShardedIngestor(AVG_QUERY, shards=2, chunk_size=256) as ingestor:
            ingestor.ingest(records)
            sharded = (ingestor.query(), ingestor.merge_error_bound())
        reference = _in_process_merge(AVG_QUERY, records, "round-robin", 2, 256)
        assert sharded == (reference.estimate(), reference.merge_error_bound())

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_shm_fork_spawn_parity(self, start_method):
        if start_method not in mp.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable on this platform")
        records = _stream(1200, seed=29)
        single = build_estimator(MIN_QUERY, "piecemeal-uniform", num_buckets=10)
        single.update_many(records)
        with ShardedIngestor(
            MIN_QUERY,
            shards=2,
            chunk_size=100,
            start_method=start_method,
        ) as ingestor:
            ingestor.ingest(records)
            merged = ingestor.merged_estimator()
        assert merged.extremum == single.extremum
        assert math.isfinite(merged.estimate())


class TestSlotRing:
    """Coordinator/worker slot recycling, driven in-process for determinism."""

    def test_roundtrip_through_slots_in_process(self):
        transport = ShmTransport(chunk_size=8, slots_per_shard=DEFAULT_SLOTS)
        transport.start(mp.get_context(), shards=1)
        endpoint = transport.worker_endpoint(0)
        endpoint.attach()
        try:
            seen = []
            # 3 chunks > 2 slots: only draining between sends keeps this
            # from stalling, which exercises release() -> reuse.
            for lo in range(0, 24, 8):
                transport.send_records(0, _stream(24)[lo : lo + 8])
                kind, (xs, ys) = endpoint.recv()
                assert kind == "columns"
                seen.extend(float(x) for x in xs)
                del xs, ys  # drop slab views before release/teardown
                endpoint.release()
            assert seen == [r.x for r in _stream(24)]
            stats = transport.stats()
            assert stats["slots"] == 3.0
            assert stats["bytes"] == 3 * 2 * 8 * 8.0
            assert stats["stalls"] == 0.0
        finally:
            endpoint.detach()
            transport.close()

    def test_oversized_buffer_splits_at_capacity(self):
        transport = ShmTransport(chunk_size=10, slots_per_shard=4)
        transport.start(mp.get_context(), shards=1)
        endpoint = transport.worker_endpoint(0)
        endpoint.attach()
        try:
            transport.send_records(0, _stream(25))
            lengths = []
            for _ in range(3):
                _, (xs, _ys) = endpoint.recv()
                lengths.append(len(xs))
                del xs, _ys
                endpoint.release()
            assert lengths == [10, 10, 5]
        finally:
            endpoint.detach()
            transport.close()

    def test_exhausted_ring_stalls_then_times_out(self):
        transport = ShmTransport(chunk_size=4, slots_per_shard=1, stall_timeout=0.3)
        transport.start(mp.get_context(), shards=1)
        try:
            transport.send_records(0, _stream(4))  # takes the only slot
            with pytest.raises(StreamError, match="transport slot"):
                transport.send_records(0, _stream(4))  # nobody drains
            stats = transport.stats()
            assert stats["stalls"] >= 1.0
            assert stats["stall_seconds"] >= 0.3
        finally:
            transport.close()

    def test_close_is_idempotent_and_unlinks(self):
        transport = ShmTransport(chunk_size=4)
        transport.start(mp.get_context(), shards=2)
        names = [slab.name for row in transport._slabs for slab in row]
        transport.close()
        transport.close()
        if HAS_DEV_SHM:
            for name in names:
                assert not (Path("/dev/shm") / name).exists()

    def test_endpoint_state_drops_attached_maps(self):
        # Queues themselves only pickle during a real spawn (covered by the
        # spawn-parity test), so check the reduced state directly: an
        # attached endpoint must never ship its local mmaps to the child.
        transport = ShmTransport(chunk_size=4)
        transport.start(mp.get_context(), shards=1)
        try:
            endpoint = transport.worker_endpoint(0)
            endpoint.attach()
            state = endpoint.__getstate__()
            assert state["_slabs"] is None and state["_views"] is None
            assert state["_names"]  # slab names survive for re-attach
            endpoint.detach()
        finally:
            transport.close()


class TestFaultPaths:
    def test_worker_sigkill_mid_slot_raises_instead_of_hanging(self):
        # One shard, a one-deep ring: once the worker dies holding the
        # slot, the very next send must fail fast via the liveness probe.
        ingestor = ShardedIngestor(MIN_QUERY, shards=1, chunk_size=64)
        try:
            ingestor.start()
            ingestor.ingest(_stream(500))
            victim = ingestor._processes[0]
            victim.kill()
            victim.join(timeout=5.0)
            with pytest.raises(StreamError, match="died|dead|failed"):
                for _ in range(200):  # enough flushes to exhaust the ring
                    ingestor.ingest(_stream(64))
                    ingestor.flush()
        finally:
            ingestor.close()

    def test_worker_error_reports_partial_ingested_count(self):
        with ShardedIngestor(MIN_QUERY, shards=1, chunk_size=100) as ingestor:
            ingestor.ingest(_stream(300))
            ingestor.flush()
            # NaN x blows up inside the worker's update_columns.
            ingestor.ingest([Record(x=float("nan"), y=1.0)] * 100)
            with pytest.raises(StreamError, match=r"after ingesting 300 of"):
                ingestor.query()

    def test_worker_error_surfaces_while_blocked_on_a_slot(self):
        # One shard, NaN chunks flushed one after another: the coordinator
        # is waiting for a free slot, not for a summary, when the worker's
        # error arrives, and it must still raise that error in full.
        with ShardedIngestor(MIN_QUERY, shards=1, chunk_size=100) as ingestor:
            ingestor.ingest(_stream(300))
            ingestor.flush()
            with pytest.raises(StreamError) as caught:
                for _ in range(50):
                    ingestor.ingest([Record(x=float("nan"), y=1.0)] * 100)
                    ingestor.flush()
        message = str(caught.value)
        assert "shard 0 failed after ingesting 300 of" in message
        assert "Traceback (most recent call last)" in message
        assert "non-finite" in message

    def test_worker_error_emits_obs_event(self):
        sink = RecordingSink()
        with ShardedIngestor(MIN_QUERY, shards=1, chunk_size=64, sink=sink) as ingestor:
            ingestor.ingest([Record(x=float("nan"), y=1.0)] * 64)
            with pytest.raises(StreamError):
                ingestor.query()
        events = sink.events_named("parallel.worker_error")
        assert events and events[0].fields["shard"] == 0.0

    def test_ingestion_continues_after_query_on_shm(self):
        records = _stream(1000, seed=5)
        with ShardedIngestor(MIN_QUERY, shards=2, chunk_size=64) as ingestor:
            ingestor.ingest(records[:500])
            first = ingestor.merged_estimator()
            ingestor.ingest(records[500:])
            second = ingestor.merged_estimator()
        assert second.extremum <= first.extremum


@pytest.mark.skipif(not HAS_DEV_SHM, reason="needs /dev/shm")
class TestSlabCleanup:
    def test_runs_are_warning_clean_under_W_error(self):
        """Normal and worker-error runs leak no shared memory, pipes or tracker noise."""
        script = textwrap.dedent(
            """
            import random
            from repro.core.query import CorrelatedQuery
            from repro.exceptions import StreamError
            from repro.parallel import ShardedIngestor
            from repro.streams.model import Record
            rng = random.Random(7)
            records = [Record(x=rng.uniform(1.0, 9.0), y=1.0) for _ in range(800)]
            poison = [Record(x=float("nan"), y=1.0)] * 64
            query = CorrelatedQuery(dependent="count", independent="min", epsilon=0.5)
            for start_method in ("fork", "spawn"):
                with ShardedIngestor(
                    query, shards=2, chunk_size=64, start_method=start_method,
                ) as ingestor:
                    ingestor.ingest(records)
                    ingestor.query()
                # A worker that fails mid-chunk must still unmap its slabs.
                with ShardedIngestor(
                    query, shards=1, chunk_size=64, start_method=start_method,
                ) as ingestor:
                    ingestor.ingest(records[:128])
                    try:
                        for _ in range(20):
                            ingestor.ingest(poison)
                            ingestor.flush()
                        ingestor.query()
                    except StreamError:
                        pass
                    else:
                        raise SystemExit("the poisoned shard did not fail")
            print("OK")
            """
        )
        env = dict(os.environ, PYTHONPATH=self._src_path())
        result = subprocess.run(
            [sys.executable, "-W", "error", "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        assert "OK" in result.stdout
        assert "leaked shared_memory" not in result.stderr
        assert "KeyError" not in result.stderr
        assert "BufferError" not in result.stderr
        assert "ResourceWarning" not in result.stderr
        assert "Exception ignored" not in result.stderr

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="Linux only")
    def test_start_close_cycles_leak_no_file_descriptors(self):
        def open_fds() -> int:
            return len(os.listdir("/proc/self/fd"))

        def cycle() -> None:
            with ShardedIngestor(MIN_QUERY, shards=2, chunk_size=64) as ingestor:
                ingestor.ingest(_stream(300))
                ingestor.query()

        # The first cycle may start the process-wide resource tracker,
        # which keeps one pipe open for the interpreter's lifetime.
        cycle()
        before = open_fds()
        for _ in range(20):
            cycle()
        assert open_fds() == before

    def test_coordinator_crash_leaves_slabs_for_the_stale_mop(self):
        """SIGKILLed coordinator + dead tracker: unlink_stale_slabs mops up."""
        # The script disables its resource tracker's registrations to
        # model the tracker dying with the process group, then SIGKILLs
        # itself mid-stream with slabs mapped.
        script = textwrap.dedent(
            """
            import multiprocessing as mp
            import os, signal, sys
            from multiprocessing import resource_tracker
            from repro.parallel.transport import ShmTransport
            transport = ShmTransport(chunk_size=32)
            transport.start(mp.get_context(), shards=2)
            for row in transport._slabs:
                for slab in row:
                    print(slab.name)
                    resource_tracker.unregister(slab._name, "shared_memory")
            sys.stdout.flush()
            os.kill(os.getpid(), signal.SIGKILL)
            """
        )
        env = dict(os.environ, PYTHONPATH=self._src_path())
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert result.returncode == -signal.SIGKILL
        names = [line.strip() for line in result.stdout.splitlines() if line.strip()]
        assert len(names) == 2 * DEFAULT_SLOTS
        for name in names:
            assert (Path("/dev/shm") / name).exists(), "slab should survive the crash"
        removed = unlink_stale_slabs()
        assert set(names) <= set(removed)
        for name in names:
            assert not (Path("/dev/shm") / name).exists()

    @pytest.mark.skipif(not Path("/proc/self/stat").is_file(), reason="Linux only")
    def test_sigkilled_coordinator_leaves_no_workers(self, tmp_path):
        """Workers of a SIGKILLed coordinator exit instead of blocking forever."""
        script = textwrap.dedent(
            """
            import os, random, signal, sys
            from repro.core.query import CorrelatedQuery
            from repro.parallel import ShardedIngestor
            from repro.streams.model import Record
            rng = random.Random(5)
            records = [Record(x=rng.uniform(1.0, 9.0), y=1.0) for _ in range(400)]
            query = CorrelatedQuery(dependent="count", independent="min", epsilon=0.5)
            ingestor = ShardedIngestor(query, shards=2, chunk_size=64, start_method="fork")
            ingestor.ingest(records)
            ingestor.query()
            print(*(process.pid for process in ingestor._processes))
            sys.stdout.flush()
            os.kill(os.getpid(), signal.SIGKILL)
            """
        )

        def alive(pid: int) -> bool:
            # A reparented worker that exited may linger as a zombie
            # until its new parent reaps it: that counts as gone.
            try:
                stat = Path(f"/proc/{pid}/stat").read_text()
            except FileNotFoundError:
                return False
            return stat.rsplit(")", 1)[1].split()[0] != "Z"

        # Output goes to files, not pipes: the workers inherit the
        # coordinator's stdout, and a pipe would stay open while they live.
        out = tmp_path / "stdout"
        err = tmp_path / "stderr"
        env = dict(os.environ, PYTHONPATH=self._src_path())
        with out.open("w") as stdout, err.open("w") as stderr:
            returncode = subprocess.run(
                [sys.executable, "-c", script],
                stdout=stdout,
                stderr=stderr,
                timeout=60,
                env=env,
            ).returncode
        pids = [int(pid) for pid in out.read_text().split()]
        try:
            assert returncode == -signal.SIGKILL, err.read_text()
            assert len(pids) == 2
            deadline = time.monotonic() + 5.0
            while any(alive(pid) for pid in pids) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(alive(pid) for pid in pids)
        finally:
            for pid in pids:
                if alive(pid):
                    os.kill(pid, signal.SIGKILL)

    @staticmethod
    def _src_path() -> str:
        src = str(Path(__file__).resolve().parents[2] / "src")
        existing = os.environ.get("PYTHONPATH")
        return f"{src}{os.pathsep}{existing}" if existing else src


class TestObservability:
    def test_transport_gauges_and_event(self):
        sink = RecordingSink()
        with ShardedIngestor(MIN_QUERY, shards=2, chunk_size=64, sink=sink) as ingestor:
            ingestor.ingest(_stream(600, seed=21))
            ingestor.query()
            state = ingestor.obs_state()
        assert state["transport.slots"] >= 1.0
        assert state["transport.bytes"] >= 2 * 8 * 600
        assert "transport.stalls" in state and "transport.stall_seconds" in state
        event = next(e for e in sink.events if e.name == "parallel.transport")
        assert event.fields["slots"] == state["transport.slots"]
