"""Sharded multi-process ingestion over mergeable summaries.

The paper's estimators decompose into naturally mergeable components
(Welford moments, GK sketches, bucket mass arrays), so a stream can be
partitioned across worker processes and the per-shard summaries combined
at query time.  This package provides:

* :class:`~repro.parallel.mergeable.MergeableSummary` — the protocol
  (``merge_from`` + ``merge_error_bound``) the summary layer implements;
* :mod:`~repro.parallel.partition` — round-robin / hash / range stream
  partitioning policies;
* :mod:`~repro.parallel.transport` — the zero-copy shared-memory slot
  ring that carries chunks from the coordinator to its workers;
* :class:`~repro.parallel.sharded.ShardedIngestor` — the coordinator
  that runs the workers and merges their summaries.

See docs/PARALLEL.md for merge semantics, exactness boundaries and the
slot ring.
"""

from repro.parallel.mergeable import MergeableSummary, merge_all
from repro.parallel.partition import PARTITION_POLICIES, make_partitioner
from repro.parallel.sharded import ShardedIngestor
from repro.parallel.transport import ShmTransport, unlink_stale_slabs

__all__ = [
    "MergeableSummary",
    "merge_all",
    "PARTITION_POLICIES",
    "make_partitioner",
    "ShardedIngestor",
    "ShmTransport",
    "unlink_stale_slabs",
]
