"""Sharded multi-process ingestion over mergeable summaries.

:class:`ShardedIngestor` is a front-end over the existing estimators: it
partitions a stream across ``multiprocessing`` workers, each running one
estimator over its shard via the columnar ``update_columns`` path, and merges
the per-shard summaries at query time in the coordinator (the
``add``/``merge``/``end`` aggregation-function shape).

Exactness boundaries (see docs/PARALLEL.md for the full table):

* counts, weights, moments (mean/variance) and extrema merge **exactly**;
* GK rank sketches merge within ``(sum of shard eps) * n`` ranks;
* bucket-histogram mass is re-poured pro-rata under the paper's local-
  uniformity assumption — the merged estimator's ``merge_error_bound()``
  reports the mass whose placement relied on it.

Only landmark-scope focused estimators are shardable: sliding windows are
defined over a single arrival order, which partitioning destroys, so
sliding queries (and ``time_window=``) are rejected up front.

IPC protocol: one duplex pipe per shard beside the shared-memory slot
ring of :class:`~repro.parallel.transport.ShmTransport` (chunks travel
as float64 columns written straight into a slab; the pipe's FIFO makes
the query message a natural barrier, and carries the slot returns,
summaries and errors back) — see :mod:`repro.parallel.transport` for
the slot lifecycle and backpressure semantics.  Each worker feeds chunks
straight into its estimator's ``update_columns`` kernel with
``collect="none"`` — no per-record estimates, no per-record objects on
the wire.  Workers receive their estimator as an explicit pickle payload, so construction is
identical — and tested — under both ``fork`` and ``spawn`` start methods.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import traceback
from collections.abc import Iterable

from repro.core.engine import FOCUSED_METHODS, build_estimator
from repro.core.focused import FocusedEstimatorBase
from repro.core.query import CorrelatedQuery
from repro.exceptions import ConfigurationError, StreamError
from repro.obs.sink import NULL_SINK, ObsSink
from repro.obs.trace import NULL_TRACER, Tracer
from repro.parallel.mergeable import merge_all
from repro.parallel.partition import RangePartitioner, RoundRobinPartitioner, make_partitioner
from repro.parallel.transport import ShmTransport
from repro.streams.model import Record

__all__ = ["ShardedIngestor"]

_MAX_SHARDS = 64


def _shard_worker(estimator_payload: bytes, endpoint) -> None:
    """One worker process: unpickle the estimator, drain chunks, answer queries."""
    ingested = 0
    try:
        estimator = pickle.loads(estimator_payload)
        endpoint.attach()
        while True:
            kind, chunk = endpoint.recv()
            if kind == "columns":
                xs, ys = chunk
                estimator.update_columns(xs, ys, collect="none")
                ingested += len(xs)
                del xs, ys, chunk  # drop slab views before the slot is reused
                endpoint.release()
            elif kind == "query":
                endpoint.reply(("summary", estimator, ingested))
            elif kind == "stop":
                return
    except Exception as exc:
        # Report how far this shard got so the coordinator can log the
        # partial progress alongside the traceback.  The traceback's
        # frames, this one's included, still hold slab views: drop them
        # all, or detach() cannot unmap the slabs.
        report = traceback.format_exc()
        xs = ys = chunk = None
        traceback.clear_frames(exc.__traceback__)
        endpoint.reply(("error", report, ingested))
    finally:
        try:
            endpoint.detach()
        except Exception:  # pragma: no cover - teardown must never mask
            pass


class ShardedIngestor:
    """Partition a stream across worker processes; merge summaries on query.

    Parameters
    ----------
    query:
        A landmark-scope :class:`~repro.core.query.CorrelatedQuery`
        (sliding windows are not shardable).
    method:
        One of the four focused methods — their estimators implement the
        MergeableSummary protocol.
    shards:
        Number of worker processes (``1..64``).
    partition:
        ``'round-robin'`` (default), ``'hash'``, or ``'range'`` — see
        :mod:`repro.parallel.partition` for the trade-offs.
    transport:
        ``'shm'``, the only transport: the zero-copy shared-memory slot
        ring of :mod:`repro.parallel.transport`.
    chunk_size:
        Records per slot hand-off; sizes the ring's slabs.
    start_method:
        ``multiprocessing`` start method (``'fork'``/``'spawn'``/...);
        ``None`` uses the platform default.
    sink, tracer:
        Coordinator-side observability.  Workers run without obs plumbing
        (their summaries travel back whole; per-shard gauges are exposed
        via :meth:`obs_state` and the ``parallel.*`` events instead).
    estimator_kwargs:
        Forwarded to :func:`~repro.core.engine.build_estimator` for every
        shard's estimator (``k_std``, ``swap_period``, ...).
    """

    def __init__(
        self,
        query: CorrelatedQuery,
        method: str = "piecemeal-uniform",
        num_buckets: int = 10,
        shards: int = 2,
        partition: str = "round-robin",
        transport: str = "shm",
        chunk_size: int = 4096,
        start_method: str | None = None,
        result_timeout: float = 120.0,
        sink: ObsSink | None = None,
        tracer: Tracer | None = None,
        **estimator_kwargs,
    ) -> None:
        if not isinstance(shards, int) or not 1 <= shards <= _MAX_SHARDS:
            raise ConfigurationError(
                f"shards must be an integer in [1, {_MAX_SHARDS}], got {shards!r}"
            )
        if chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
        if transport != "shm":
            raise ConfigurationError(
                f"unknown transport {transport!r}; shm is the only transport"
            )
        if query.is_sliding:
            raise ConfigurationError(
                "sliding-window queries are not shardable: the window is "
                "defined over a single arrival order, which partitioning "
                "destroys; drop the window= scope or ingest single-process"
            )
        if "time_window" in estimator_kwargs:
            raise ConfigurationError(
                "time_window= is not shardable (a time window is a sliding "
                "scope); drop it or ingest single-process"
            )
        if method not in FOCUSED_METHODS:
            raise ConfigurationError(
                "sharded ingestion merges focused summaries; method must be "
                f"one of {FOCUSED_METHODS}, not {method!r}"
            )
        valid = (None,) + tuple(mp.get_all_start_methods())
        if start_method not in valid:
            raise ConfigurationError(
                f"unknown start method {start_method!r}; "
                f"this platform supports {mp.get_all_start_methods()}"
            )
        self._query = query
        self._method = method
        self._shards = shards
        self._chunk_size = chunk_size
        self._partitioner = make_partitioner(partition, shards)
        self._transport = ShmTransport(chunk_size, stall_timeout=result_timeout)
        self._start_method = start_method
        self._obs = sink if sink is not None else NULL_SINK
        self._tracer = tracer if tracer is not None else NULL_TRACER
        # Build every shard's estimator in the coordinator and ship it as
        # an explicit pickle: workers never re-run the factory, and the
        # payload path exercises spawn-safety identically under fork.
        self._payloads = [
            pickle.dumps(
                build_estimator(query, method, num_buckets=num_buckets, **estimator_kwargs),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
            for _ in range(shards)
        ]
        self._buffers: list[list[Record]] = [[] for _ in range(shards)]
        self._prime_buffer: list[Record] = []
        self._ingested = 0
        self._last_bound: float | None = None
        self._processes: list[mp.process.BaseProcess] = []
        self._started = False
        self._closed = False

    # ------------------------------------------------------------ lifecycle

    def start(self) -> None:
        """Launch the worker processes (idempotent)."""
        if self._started:
            return
        if self._closed:
            raise StreamError("ShardedIngestor was closed; build a new one")
        ctx = mp.get_context(self._start_method)
        self._transport.start(ctx, self._shards)
        self._transport.on_error = self._worker_failed
        self._processes = []
        try:
            for shard_id in range(self._shards):
                process = ctx.Process(
                    target=_shard_worker,
                    args=(
                        self._payloads[shard_id],
                        self._transport.worker_endpoint(shard_id),
                    ),
                    daemon=True,
                    name=f"repro-shard-{shard_id}",
                )
                process.start()
                self._processes.append(process)
                self._transport.adopt(process)
        except BaseException:
            # A worker that failed to launch must not leak the slabs the
            # transport already mapped.
            self._transport.close()
            raise
        self._started = True

    def _worker_failed(self, shard: int, ingested: int, sent: int) -> None:
        """Obs hook the transport calls before raising a worker's error."""
        if self._obs.enabled:
            self._obs.emit(
                "parallel.worker_error",
                shard=float(shard),
                ingested=float(ingested),
                sent=float(sent),
            )

    def close(self) -> None:
        """Stop the workers, reclaim the processes, release the transport."""
        if not self._started or self._closed:
            self._closed = True
            return
        for shard in range(self._shards):
            try:
                self._transport.send_control(shard, ("stop",))
            except StreamError:  # already dead; join() reaps it below
                pass
        for process in self._processes:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
            if not process.is_alive():
                process.close()  # releases its sentinel now, not at collection
        self._transport.close()
        self._closed = True
        self._started = False

    def __enter__(self) -> "ShardedIngestor":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------ ingestion

    def ingest(self, records: Iterable[Record]) -> None:
        """Partition a batch of records across the shards."""
        if not self._started:
            self.start()
        records = [r if isinstance(r, Record) else Record(*r) for r in records]
        if not records:
            return
        if self._tracer.enabled:
            with self._tracer.span("parallel.ingest", records=float(len(records))):
                self._partition_records(records)
        else:
            self._partition_records(records)
        self._ingested += len(records)
        if self._obs.enabled:
            self._obs.emit(
                "parallel.ingest", records=float(len(records)), shards=float(self._shards)
            )

    def _partition_records(self, records: list[Record]) -> None:
        partitioner = self._partitioner
        if isinstance(partitioner, RangePartitioner) and not partitioner.primed:
            # Buffer until one chunk's worth of sample fixes the split points.
            self._prime_buffer.extend(records)
            if len(self._prime_buffer) < max(self._chunk_size, 4 * self._shards):
                return
            self._prime_range()
            return
        if isinstance(partitioner, RoundRobinPartitioner):
            # Chunk-granular striping: one assignment per chunk keeps the
            # coordinator loop out of the per-record hot path entirely.
            # The stripe granule shrinks for small batches so a single
            # ingest() call still spreads over every shard.
            size = min(self._chunk_size, max(1, -(-len(records) // self._shards)))
            for i in range(0, len(records), size):
                chunk = records[i : i + size]
                shard = partitioner.next_chunk_shard()
                buffer = self._buffers[shard]
                buffer.extend(chunk)
                if len(buffer) >= self._chunk_size:
                    self._flush_shard(shard)
            return
        buffers = self._buffers
        assign = partitioner.assign
        for record in records:
            buffers[assign(record)].append(record)
        for shard, buffer in enumerate(buffers):
            if len(buffer) >= self._chunk_size:
                self._flush_shard(shard)

    def _prime_range(self) -> None:
        assert isinstance(self._partitioner, RangePartitioner)
        sample = self._prime_buffer
        self._prime_buffer = []
        self._partitioner.prime([r.x for r in sample])
        self._partition_records(sample)

    def _flush_shard(self, shard: int) -> None:
        buffer = self._buffers[shard]
        if not buffer:
            return
        self._transport.send_records(shard, buffer)
        self._buffers[shard] = []

    def flush(self) -> None:
        """Push every partially filled buffer out to its shard."""
        if isinstance(self._partitioner, RangePartitioner) and self._prime_buffer:
            self._prime_range()
        for shard in range(self._shards):
            self._flush_shard(shard)

    # -------------------------------------------------------------- queries

    def merged_estimator(self) -> FocusedEstimatorBase:
        """Collect every shard's summary and merge them into one estimator.

        The returned estimator is a coordinator-side snapshot: the workers
        keep their live estimators, so ingestion can continue and further
        queries see the newer state.
        """
        if not self._started:
            self.start()
        self.flush()
        for shard in range(self._shards):
            self._transport.send_control(shard, ("query",))
        replies = self._transport.collect()
        with self._tracer.span("parallel.merge", shards=float(self._shards)):
            merged = merge_all([summary for summary, _ in replies])
        try:
            self._last_bound = merged.merge_error_bound()
        except ConfigurationError:  # AVG dependents have no defined bound
            self._last_bound = None
        if self._obs.enabled:
            counts = [float(ingested) for _, ingested in replies]
            fields = {f"shard_{i}_records": count for i, count in enumerate(counts)}
            self._obs.emit(
                "parallel.merge",
                shards=float(self._shards),
                records=sum(counts),
                **fields,
            )
            self._obs.emit("parallel.transport", **self._transport.stats())
        return merged

    def query(self) -> float:
        """The merged estimate over everything ingested so far."""
        return self.merged_estimator().estimate()

    def merge_error_bound(self) -> float | None:
        """The bound reported by the most recent merge (None before any)."""
        return self._last_bound

    # -------------------------------------------------------- observability

    @property
    def shards(self) -> int:
        return self._shards

    @property
    def ingested(self) -> int:
        """Records accepted by :meth:`ingest` so far."""
        return self._ingested

    def obs_state(self) -> dict[str, float]:
        """Per-shard gauges for the instrumentation layer."""
        state = {
            "shards": float(self._shards),
            "pending": float(
                sum(len(b) for b in self._buffers) + len(self._prime_buffer)
            ),
            "ingested": float(self._ingested),
        }
        for shard in range(self._shards):
            state[f"shard.{shard}.records"] = float(self._transport.records_sent(shard))
        for key, value in self._transport.stats().items():
            state[f"transport.{key}"] = float(value)
        return state
