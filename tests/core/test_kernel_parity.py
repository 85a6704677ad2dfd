"""Golden parity for the focused-estimator kernel.

The fixture in ``fixtures/kernel_parity.json`` was recorded by
``tools/record_parity_fixtures.py`` *before* the five focused estimators
were collapsed onto :class:`~repro.core.focused.FocusedEstimatorBase`.
These tests replay the identical configurations and assert byte-identical
behaviour — every per-step output, every final ``obs_state()`` gauge, and
every lifecycle-event counter — so the refactored lifecycle provably
computes the same floats in the same order as the original five modules.

The second half asserts the batched-ingestion contract: for every method
name in :data:`~repro.core.engine.METHODS` (and the time-sliding
estimator), ``update_many(records)`` returns exactly the outputs of
calling ``update`` once per record.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.engine import METHODS, build_estimator
from repro.core.query import CorrelatedQuery
from repro.core.time_sliding import TimeSlidingEstimator
from repro.datasets.registry import load_dataset
from repro.obs.sink import RecordingSink
from repro.streams.model import Record

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "kernel_parity.json"

with FIXTURE_PATH.open() as fh:
    FIXTURE = json.load(fh)

RUN_KEYS = sorted(FIXTURE["runs"])


@pytest.fixture(scope="module")
def stream():
    spec = FIXTURE["stream"]
    return load_dataset(spec["dataset"], size=spec["size"])


def _query_for(shape_name: str) -> CorrelatedQuery:
    window = FIXTURE["window"] if shape_name.startswith("sliding") else None
    if shape_name.endswith("-min"):
        return CorrelatedQuery("count", "min", epsilon=99.0, window=window)
    if shape_name == "landmark-avg" or shape_name == "time-avg":
        return CorrelatedQuery("sum", "avg", window=window)
    return CorrelatedQuery("count", "avg", window=window)


def _replay(run_key: str, stream):
    method, shape_name = run_key.split("/")
    query = _query_for(shape_name)
    sink = RecordingSink()
    if shape_name.startswith("time"):
        strategy, policy = method.split("-")
        estimator = TimeSlidingEstimator(
            query,
            duration=FIXTURE["duration"],
            num_buckets=FIXTURE["num_buckets"],
            strategy=strategy,
            policy=policy,
            sink=sink,
        )
        outputs = [
            estimator.update(time=i * 0.5, record=r) for i, r in enumerate(stream)
        ]
    else:
        estimator = build_estimator(
            query, method, num_buckets=FIXTURE["num_buckets"], sink=sink
        )
        outputs = [estimator.update(r) for r in stream]
    events = {
        name: value
        for name, value in sink.registry.as_dict().items()
        if name.startswith("events.")
    }
    return outputs, estimator.obs_state(), events


@pytest.mark.parametrize("run_key", RUN_KEYS)
def test_outputs_match_golden(run_key, stream):
    """Every per-step output is bit-for-bit the pre-refactor value."""
    golden = FIXTURE["runs"][run_key]
    outputs, obs_state, events = _replay(run_key, stream)
    assert outputs == golden["outputs"]
    assert obs_state == golden["obs_state"]
    assert events == golden["events"]


# --------------------------------------------------------- update_many ≡ update

BATCH_SLICE = 300
BATCH_WINDOW = 100

_BATCH_QUERIES = {
    "min-landmark": CorrelatedQuery("count", "min", epsilon=99.0),
    "avg-landmark": CorrelatedQuery("sum", "avg"),
    "min-sliding": CorrelatedQuery("count", "min", epsilon=99.0, window=BATCH_WINDOW),
    "avg-sliding": CorrelatedQuery("count", "avg", window=BATCH_WINDOW),
}


def _batch_cases():
    """Every METHODS entry, paired with each query shape it supports."""
    cases = []
    for method in METHODS:
        for shape, query in _BATCH_QUERIES.items():
            if query.is_sliding and method in (
                "streaming-equidepth",
                "heuristic-reset",
                "heuristic-continue",
                "heuristic-running",
            ):
                continue  # landmark-only methods
            if query.independent == "avg" and method in (
                "heuristic-reset",
                "heuristic-continue",
            ):
                continue
            if query.independent in ("min", "max") and method == "heuristic-running":
                continue
            cases.append((method, shape))
    return cases


@pytest.mark.parametrize("method,shape", _batch_cases())
def test_update_many_equals_repeated_update(method, shape, stream):
    """``update_many`` is an exact batch transcription of ``update``."""
    records = stream[:BATCH_SLICE]
    query = _BATCH_QUERIES[shape]
    single = build_estimator(query, method, num_buckets=10, stream=records)
    batched = build_estimator(query, method, num_buckets=10, stream=records)
    expected = [single.update(r) for r in records]
    got = batched.update_many(records)
    assert got == expected
    # Split batches hit the same state transitions as one big batch.
    chunked = build_estimator(query, method, num_buckets=10, stream=records)
    out = []
    for i in range(0, len(records), 37):
        out.extend(chunked.update_many(records[i : i + 37]))
    assert out == expected


def test_update_many_accepts_bare_tuples(stream):
    """Batched ingestion coerces ``(x, y)`` tuples exactly like run_stream."""
    records = stream[:50]
    query = _BATCH_QUERIES["min-landmark"]
    single = build_estimator(query, "piecemeal-uniform", num_buckets=10)
    batched = build_estimator(query, "piecemeal-uniform", num_buckets=10)
    expected = [single.update(r) for r in records]
    assert batched.update_many([(r.x, r.y) for r in records]) == expected
    from_generator = build_estimator(query, "piecemeal-uniform", num_buckets=10)
    assert from_generator.update_many(r for r in records) == expected


def test_update_many_ingests_the_callers_records(stream):
    """The adapter hands ``Record`` objects on as-is, never rebuilt."""
    query = _BATCH_QUERIES["min-landmark"]
    warming = build_estimator(query, "piecemeal-uniform", num_buckets=10)
    records = [Record(float(x)) for x in range(100, 95, -1)]
    warming.update_many(records, collect="none")
    assert warming._buffer is not None and len(warming._buffer) == len(records)
    assert all(a is b for a, b in zip(warming._buffer, records))
    # Steady scalar steps too: a sliding window keeps the values of the
    # records it saw (its ring stores columns, not Record objects).
    window = CorrelatedQuery("count", "avg", window=50)
    steady = build_estimator(window, "piecemeal-uniform", num_buckets=10)
    records = stream[:200]
    steady.update_many(records)
    assert len(steady._ring) == 50
    assert [row[:2] for row in steady._ring] == [tuple(r) for r in records[-50:]]


def test_batched_time_sliding(stream):
    """The time-window estimator batches a time column exactly."""
    records = stream[:BATCH_SLICE]
    query = CorrelatedQuery("count", "min", epsilon=99.0)
    single = TimeSlidingEstimator(query, duration=50.0, num_buckets=10)
    batched = TimeSlidingEstimator(query, duration=50.0, num_buckets=10)
    expected = [
        single.update(time=i * 0.5, record=r) for i, r in enumerate(records)
    ]
    times = [i * 0.5 for i in range(len(records))]
    xs = [r.x for r in records]
    ys = [r.y for r in records]
    assert batched.update_columns(xs, ys, times=times) == expected
