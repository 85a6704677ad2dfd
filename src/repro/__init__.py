"""repro — correlated aggregates over continual data streams.

A complete reproduction of Gehrke, Korn & Srivastava, *"On Computing
Correlated Aggregates Over Continual Data Streams"* (SIGMOD 2001): focused
adaptive histograms for single-pass approximation of correlated aggregates
such as ``COUNT{y : x <= (1+eps) * MIN(x)}`` and ``COUNT{y : x > AVG(x)}``,
over landmark and sliding-window scopes.

Quickstart::

    from repro import CorrelatedQuery, build_estimator
    from repro.datasets import usage_stream

    query = CorrelatedQuery(dependent="count", independent="min", epsilon=99.0)
    estimator = build_estimator(query, "piecemeal-uniform", num_buckets=10)
    for record in usage_stream():
        answer = estimator.update(record)   # S_out[i], one value per tuple

See DESIGN.md for the architecture and EXPERIMENTS.md for the figure-by-
figure reproduction of the paper's evaluation.
"""

from repro.checkpoint import CheckpointManager
from repro.core.engine import METHODS, build_estimator
from repro.core.exact import ExactOracle, exact_series
from repro.core.multiplex import QueryEngine
from repro.keyed import GatedKeyedBank, KeyEstimate, SpaceSavingAdmission
from repro.core.parser import parse_query
from repro.core.query import CorrelatedQuery
from repro.obs.audit import AccuracyAuditor
from repro.obs.http import LiveExportHub, MetricsServer
from repro.obs.registry import MetricsRegistry
from repro.obs.sink import NULL_SINK, LoggingSink, NullSink, ObsSink, RecordingSink
from repro.obs.trace import NULL_TRACER, Tracer
from repro.parallel import (
    PARTITION_POLICIES,
    MergeableSummary,
    ShardedIngestor,
    merge_all,
)
from repro.streams.model import Record, materialize, run_stream

__version__ = "1.0.0"

__all__ = [
    "CheckpointManager",
    "CorrelatedQuery",
    "GatedKeyedBank",
    "KeyEstimate",
    "SpaceSavingAdmission",
    "QueryEngine",
    "parse_query",
    "Record",
    "build_estimator",
    "METHODS",
    "ExactOracle",
    "exact_series",
    "run_stream",
    "materialize",
    "MetricsRegistry",
    "ObsSink",
    "NullSink",
    "NULL_SINK",
    "RecordingSink",
    "LoggingSink",
    "Tracer",
    "NULL_TRACER",
    "AccuracyAuditor",
    "LiveExportHub",
    "MetricsServer",
    "MergeableSummary",
    "ShardedIngestor",
    "merge_all",
    "PARTITION_POLICIES",
    "__version__",
]
