"""``sharded-ingest``: landmark COUNT/AVG through two shared-memory shard workers.

A ZIPF-shaped stream is handed, one ``ingest()`` call per chunk, to a
``ShardedIngestor(shards=2, partition="round-robin", transport="shm")``
running ``piecemeal-uniform``; every ``query_every`` chunks (and after
the last one) the coordinator reads the merged answer with ``query()``.
Ingestion and queries share the workers.  The ingestor lives across
passes, so each pass extends one continual stream by another copy of the
inputs.  It is the only workload that crosses processes.
"""

from __future__ import annotations

import pickle
from time import perf_counter

import numpy as np

from harness import Verification, Workload
from repro.core.engine import build_estimator
from repro.core.query import CorrelatedQuery
from repro.datasets.zipf import zipf_stream
from repro.parallel import ShardedIngestor
from repro.streams.columns import records_to_columns

QUERY = CorrelatedQuery("count", "avg")
METHOD = "piecemeal-uniform"
NUM_BUCKETS = 10
SHARDS = 2


class ShardedIngest(Workload):
    name = "sharded-ingest"
    fresh_passes = False

    def __init__(
        self, tuples: int = 262_144, chunk: int = 256, slot: int = 2048, query_every: int = 8
    ) -> None:
        self.tuples = tuples
        self.chunk = chunk
        self.slot = slot
        self.query_every = query_every
        self.provenance = {
            "why": (
                "partitioning, the shm slot ring (stalls measure waiting) and the "
                "query-time merge barrier; the only cross-process workload"
            ),
            "loads": [
                "datasets.zipf", "parallel.sharded", "parallel.partition",
                "parallel.transport", "streams.columns", "core.landmark_avg (workers)",
            ],
            "bypasses": ["checkpoint", "keyed", "core.sliding_*", "core.exact", "eval"],
            "loop": "closed: one coordinator process, each call waits for the previous one; "
            "2 worker processes",
            "cadence": {
                "tuples_per_pass": tuples,
                "chunk_tuples": chunk,
                "transport_slot_tuples": slot,
                "query_every_chunks": query_every,
                "checkpoint": None,
            },
        }
        self.records: list = []
        self.ingestor: ShardedIngestor | None = None

    def _ingestor(self) -> ShardedIngestor:
        return ShardedIngestor(
            QUERY,
            METHOD,
            num_buckets=NUM_BUCKETS,
            shards=SHARDS,
            partition="round-robin",
            transport="shm",
            chunk_size=self.slot,
        )

    def setup(self, seed: int, spans) -> None:
        with spans.span("datasets.gen"):
            self.records = zipf_stream(n=self.tuples, seed=seed)
        self.ingestor = self._ingestor()
        with spans.span("parallel.start"):
            self.ingestor.start()

    def close(self) -> None:
        if self.ingestor is not None:
            self.ingestor.close()
            self.ingestor = None

    def _chunks(self):
        """(chunk, query due) for every ``ingest()`` call of one pass."""
        records, size = self.records, self.chunk
        last = (len(records) - 1) // size
        for index, lo in enumerate(range(0, len(records), size)):
            yield records[lo : lo + size], (index + 1) % self.query_every == 0 or index == last

    def run_pass(self, rec) -> list[float]:
        spans = rec.spans
        rec.marks.setdefault("start", self.ingestor.obs_state())
        ingest, query = self.ingestor.ingest, self.ingestor.query
        answers = []
        for chunk, due in self._chunks():
            started = perf_counter()
            with spans.span("bench.chunk"):
                with spans.span("parallel.ingest"):
                    ingest(chunk)
                if due:
                    asked = perf_counter()
                    with spans.span("parallel.query"):
                        answers.append(query())
                    rec.query_s.append(perf_counter() - asked)
            rec.chunk_done(started)
        rec.tuples += len(self.records)
        return answers

    def counters(self, rec, passes: int) -> dict[str, float]:
        start, end = rec.marks["start"], self.ingestor.obs_state()
        delta = {key: end[key] - start.get(key, 0.0) for key in end}
        sent = [delta[f"shard.{shard}.records"] for shard in range(SHARDS)]
        mean = sum(sent) / len(sent)
        return {
            "parallel.transport.bytes": delta["transport.bytes"] / passes,
            "parallel.transport.slots": delta["transport.slots"] / passes,
            "parallel.transport.stalls": delta["transport.stalls"] / passes,
            "parallel.transport.stall_s": delta["transport.stall_seconds"] / passes,
            "parallel.shard_skew": max(sent) / mean - 1.0 if mean else 0.0,
        }

    def baseline(self, untraced, seconds: float) -> dict[str, float]:
        """The honest single-process path on the same chunks and queries:
        ``records_to_columns`` + ``update_columns(collect="none")``."""
        estimator = build_estimator(QUERY, METHOD, num_buckets=NUM_BUCKETS)
        tuples = 0
        started = perf_counter()
        while True:
            for chunk, due in self._chunks():
                xs, ys = records_to_columns(chunk)
                estimator.update_columns(xs, ys, collect="none")
                if due:
                    estimator.estimate()
            tuples += len(self.records)
            elapsed = perf_counter() - started
            if elapsed >= seconds:
                break
        single = tuples / elapsed
        return {
            "parallel.single_tps": single,
            "parallel.speedup_vs_single": (untraced.tuples / untraced.wall_s) / single,
        }

    def _replica(self) -> tuple[list[float], list]:
        """Answers of an in-process replay of the same round-robin partition.

        ``ShardedIngestor`` stripes each ``ingest()`` call in granules of
        ``min(chunk_size, ceil(len / shards))`` records, cyclically; merged
        answers come from pickled shard summaries folded with
        ``merge_from``.
        """
        shards = [build_estimator(QUERY, METHOD, num_buckets=NUM_BUCKETS) for _ in range(SHARDS)]
        pending: list[list] = [[] for _ in range(SHARDS)]
        turn = 0
        answers = []
        for chunk, due in self._chunks():
            granule = min(self.slot, max(1, -(-len(chunk) // SHARDS)))
            for lo in range(0, len(chunk), granule):
                pending[turn].extend(chunk[lo : lo + granule])
                turn = (turn + 1) % SHARDS
            if due:
                for estimator, part in zip(shards, pending):
                    if part:
                        estimator.update_columns(*records_to_columns(part), collect="none")
                    part.clear()
                copies = [pickle.loads(pickle.dumps(e, pickle.HIGHEST_PROTOCOL)) for e in shards]
                merged = copies[0]
                for other in copies[1:]:
                    merged.merge_from(other)
                answers.append(merged.estimate())
        return answers, shards

    def verify(self, rec) -> Verification:
        v = Verification()
        n = len(self.records)
        answers = []
        with self._ingestor() as ingestor:
            for chunk, due in self._chunks():
                ingestor.ingest(chunk)
                if due:
                    answers.append(ingestor.query())
            state = ingestor.obs_state()
        replica, shards = self._replica()
        v.check(len(answers) == len(replica), "sharded and replayed query counts differ")
        for index, (got, want) in enumerate(zip(answers, replica)):
            v.check(got == want, f"query {index}: sharded {got!r} != in-process replay {want!r}")
        sent = sum(state[f"shard.{shard}.records"] for shard in range(SHARDS))
        v.check(sent == n, f"per-shard counts sum to {sent}, not the stream length {n}")
        v.check(state["ingested"] == n, f"ingested {state['ingested']} of {n} records")
        xs = np.fromiter((r.x for r in self.records), dtype=np.float64, count=n)
        ends = []
        for index, (chunk, due) in enumerate(self._chunks()):
            if due:
                ends.append(min((index + 1) * self.chunk, n))
        exact = np.array([float(np.count_nonzero(xs[:end] > xs[:end].mean())) for end in ends])
        got = np.asarray(answers)
        v.final_rel_err = float(abs(got[-1] - exact[-1]) / max(exact[-1], 1.0))
        v.rmse_n = float(np.sqrt(np.mean((got - exact) ** 2)))
        v.state_bytes = float(sum(len(pickle.dumps(e, pickle.HIGHEST_PROTOCOL)) for e in shards))
        return v
