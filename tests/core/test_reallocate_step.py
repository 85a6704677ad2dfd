"""The one reallocation step: every family moves its buckets through the kernel.

:meth:`~repro.core.focused.FocusedEstimatorBase._reallocate` is the only
reallocation body; each family supplies its regime test, restart and
spill hooks.  So under a :class:`~repro.obs.trace.Tracer` every
``region.shift`` event has exactly one ``kernel.reallocate`` span — for
every family, strategy and policy, on the scalar and the columnar path,
and for the reallocation a landmark-AVG merge runs.
"""

from __future__ import annotations

import pytest

from repro.core.engine import build_estimator
from repro.core.query import CorrelatedQuery
from repro.core.time_sliding import TimeSlidingEstimator
from repro.datasets.registry import load_dataset
from repro.histograms.bucket import Mass
from repro.obs.sink import RecordingSink
from repro.obs.trace import Tracer
from repro.streams.model import Record

SIZE = 600
WINDOW = 200
DURATION = 100.0
METHODS = ("wholesale-uniform", "wholesale-quantile", "piecemeal-uniform", "piecemeal-quantile")

FAMILIES = {
    "landmark_extrema": CorrelatedQuery("count", "min", epsilon=99.0),
    "landmark_avg": CorrelatedQuery("sum", "avg"),
    "sliding_extrema": CorrelatedQuery("count", "min", epsilon=99.0, window=WINDOW),
    "sliding_avg": CorrelatedQuery("count", "avg", window=WINDOW),
    "time_extrema": CorrelatedQuery("count", "min", epsilon=99.0),
    "time_avg": CorrelatedQuery("sum", "avg"),
}


@pytest.fixture(scope="module")
def stream():
    return load_dataset("USAGE", size=SIZE)


def _build(family: str, method: str, sink: RecordingSink, epsilon: float | None = None):
    tracer = Tracer(sink=sink)
    query = FAMILIES[family]
    if epsilon is not None:
        query = CorrelatedQuery(
            query.dependent, query.independent, epsilon=epsilon, window=query.window
        )
    if family.startswith("time"):
        strategy, policy = method.split("-")
        return TimeSlidingEstimator(
            query, duration=DURATION, num_buckets=10, strategy=strategy,
            policy=policy, sink=sink, tracer=tracer,
        )
    return build_estimator(query, method, num_buckets=10, sink=sink, tracer=tracer)


def _counts(sink: RecordingSink) -> tuple[float, float]:
    counters = sink.registry.as_dict()
    return (
        counters.get("events.span.kernel.reallocate", 0.0),
        counters.get("events.region.shift", 0.0),
    )


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_region_shift_opens_one_reallocate_span(family, method, stream):
    sink = RecordingSink()
    estimator = _build(family, method, sink)
    if family.startswith("time"):
        for i, record in enumerate(stream):
            estimator.update(time=i * 0.5, record=record)
    else:
        for record in stream:
            estimator.update(record)
    spans, shifts = _counts(sink)
    assert shifts > 0
    assert spans == shifts


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_columnar_ingest_keeps_the_pairing(family, method, stream):
    sink = RecordingSink()
    estimator = _build(family, method, sink)
    xs = [r.x for r in stream]
    ys = [r.y for r in stream]
    if family.startswith("time"):
        estimator.update_columns(xs, ys, times=[i * 0.5 for i in range(SIZE)], collect="none")
    else:
        estimator.update_columns(xs, ys, collect="none")
    spans, shifts = _counts(sink)
    assert shifts > 0
    assert spans == shifts


@pytest.mark.parametrize("method", METHODS)
def test_landmark_avg_merge_reallocates_through_the_kernel(method, stream):
    """Range-partitioned shards: the merged mean lands far from our region."""
    ordered = sorted(stream, key=lambda r: r.x)
    sink = RecordingSink()
    ours = _build("landmark_avg", method, sink)
    theirs = build_estimator(FAMILIES["landmark_avg"], method, num_buckets=10)
    for record in ordered[: SIZE // 2]:
        ours.update(record)
    for record in ordered[SIZE // 2 :]:
        theirs.update(record)
    before = _counts(sink)
    ours.merge_from(theirs)
    spans, shifts = _counts(sink)
    assert shifts == before[1] + 1
    assert spans == shifts


@pytest.mark.parametrize(
    "family,restart",
    [
        ("landmark_extrema", "events.hist.reinit"),
        ("sliding_extrema", "hist.rebuild.reason.regime"),
        ("time_extrema", "hist.rebuild.reason.regime"),
    ],
)
def test_regime_break_restarts_inside_the_span(family, restart):
    """A deep new minimum breaks the regime: each family's restart hook
    runs (an empty re-init, or a rebuild from the window) under the span."""
    jump = [Record(1000.0 + i % 7) for i in range(300)] + [Record(10.0)]
    sink = RecordingSink()
    estimator = _build(family, "piecemeal-uniform", sink, epsilon=0.01)
    for i, record in enumerate(jump):
        if family.startswith("time"):
            estimator.update(time=i * 0.5, record=record)
        else:
            estimator.update(record)
    counters = sink.registry.as_dict()
    assert counters.get(restart, 0.0) == 1.0
    assert counters["region.shift.disjoint"]["max"] == 1.0
    assert _counts(sink)[0] == _counts(sink)[1] > 0


def test_mass_difference():
    assert Mass(3.0, 1.5) - Mass(1.0, 2.0) == Mass(2.0, -0.5)
