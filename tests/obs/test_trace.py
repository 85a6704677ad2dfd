"""Span tracing: nesting, export, retention, overhead discipline."""

from __future__ import annotations

import pickle

import pytest

from repro.core.query import CorrelatedQuery
from repro.core.sliding_extrema import SlidingExtremaEstimator
from repro.core.landmark_extrema import LandmarkExtremaEstimator
from repro.core.time_sliding import TimeSlidingEstimator
from repro.exceptions import ConfigurationError
from repro.obs.sink import RecordingSink
from repro.obs.trace import NOOP_SPAN, NULL_TRACER, NullTracer, Tracer
from repro.streams.model import Record


class TestSpanBasics:
    def test_span_records_duration_and_ids(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id == 0
        assert outer.duration_ns >= inner.duration_ns >= 0
        assert outer.span_id != inner.span_id

    def test_attributes_at_creation_and_mid_flight(self):
        tracer = Tracer()
        with tracer.span("work", phase="build") as span:
            span.set("scanned", 42.0)
        recent = tracer.recent()[-1]
        assert recent["attributes"] == {"phase": "build", "scanned": 42.0}

    def test_exception_marks_error_attribute(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        recent = tracer.recent()[-1]
        assert recent["attributes"]["error"] == "ValueError"
        assert recent["duration_ns"] >= 0

    def test_sibling_spans_share_parent(self):
        tracer = Tracer()
        with tracer.span("parent") as parent:
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        spans = {s["name"]: s for s in tracer.recent()}
        assert spans["a"]["parent_id"] == parent.span_id
        assert spans["b"]["parent_id"] == parent.span_id


class TestTracerExportAndRetention:
    def test_finished_spans_export_through_sink(self):
        sink = RecordingSink()
        tracer = Tracer(sink)
        with tracer.span("kernel.build", buckets=10.0):
            pass
        assert sink.count("span.kernel.build") == 1.0
        hist = sink.registry.histogram("span.kernel.build.duration_ns")
        assert hist.count == 1

    def test_ring_buffer_bounded(self):
        tracer = Tracer(max_spans=4)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer) == 4
        names = [s["name"] for s in tracer.recent()]
        assert names == ["s6", "s7", "s8", "s9"]

    def test_recent_limit(self):
        tracer = Tracer()
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert [s["name"] for s in tracer.recent(limit=2)] == ["s3", "s4"]

    def test_max_spans_validated(self):
        with pytest.raises(ConfigurationError):
            Tracer(max_spans=0)

    def test_tracer_pickles_without_ring(self):
        tracer = Tracer(RecordingSink(), max_spans=7)
        with tracer.span("x"):
            pass
        clone = pickle.loads(pickle.dumps(tracer))
        assert len(clone) == 0  # ring is diagnostics, not stream state
        with clone.span("y"):
            pass
        assert clone.recent()[-1]["name"] == "y"
        assert clone.recent()[-1]["span_id"] > 1  # ids keep counting


class TestNullTracer:
    def test_disabled_and_shared_noop(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.span("anything", k=1.0) is NOOP_SPAN
        assert NULL_TRACER.recent() == []

    def test_noop_span_protocol(self):
        with NullTracer().span("x") as span:
            span.set("ignored", 1.0)  # must not raise


class TestKernelInstrumentation:
    def _records(self, n=400, seed=3):
        import random

        rng = random.Random(seed)
        return [Record(rng.uniform(0.0, 100.0), rng.uniform(0.0, 5.0)) for _ in range(n)]

    def test_landmark_kernel_emits_lifecycle_spans(self):
        query = CorrelatedQuery("count", "min", epsilon=50.0)
        tracer = Tracer(max_spans=4096)
        est = LandmarkExtremaEstimator(query, num_buckets=8, tracer=tracer)
        for r in self._records():
            est.update(r)
        names = {s["name"] for s in tracer.recent()}
        assert "kernel.build" in names
        assert "kernel.answer" in names
        # a decreasing-min stream must shift the region at least once
        assert "kernel.reallocate" in names

    def test_sliding_kernel_emits_rebuild_spans(self):
        query = CorrelatedQuery("count", "min", epsilon=50.0, window=100)
        tracer = Tracer(max_spans=8192)
        est = SlidingExtremaEstimator(
            query, num_buckets=8, rebuild_period=50, tracer=tracer
        )
        for r in self._records():
            est.update(r)
        names = {s["name"] for s in tracer.recent()}
        assert "kernel.rebuild" in names
        rebuilds = [s for s in tracer.recent() if s["name"] == "kernel.rebuild"]
        assert all("scanned" in s["attributes"] for s in rebuilds)

    def test_tracing_does_not_change_outputs(self):
        query = CorrelatedQuery("count", "min", epsilon=50.0, window=100)
        records = self._records()
        plain = SlidingExtremaEstimator(query, num_buckets=8)
        traced = SlidingExtremaEstimator(query, num_buckets=8, tracer=Tracer())
        assert [plain.update(r) for r in records] == [
            traced.update(r) for r in records
        ]

    def test_batched_ingestion_matches_scalar_under_tracing(self):
        query = CorrelatedQuery("count", "min", epsilon=50.0)
        records = self._records()
        scalar = LandmarkExtremaEstimator(query, num_buckets=8, tracer=Tracer())
        batched = LandmarkExtremaEstimator(query, num_buckets=8, tracer=Tracer())
        expected = [scalar.update(r) for r in records]
        assert batched.update_many(records) == expected


class TestTimeWindowInstrumentation:
    """A time window runs the kernel's update, so it traces like one."""

    def _timed(self, n=300, seed=5):
        import random

        rng = random.Random(seed)
        clock = 0.0
        rows = []
        for i in range(n):
            # bursts of simultaneous arrivals, and one gap past the window
            clock += 60.0 if i == n // 2 else (0.0 if i % 5 else rng.uniform(0.0, 4.0))
            rows.append((clock, Record(rng.uniform(1.0, 100.0), rng.uniform(0.0, 5.0))))
        return rows

    def _estimator(self, sink):
        return TimeSlidingEstimator(
            CorrelatedQuery("sum", "avg"), duration=25.0, num_buckets=8,
            sink=sink, tracer=Tracer(sink),
        )

    def test_one_answer_span_per_tuple(self):
        rows = self._timed()
        scalar_sink = RecordingSink()
        scalar = self._estimator(scalar_sink)
        expected = [scalar.update(t, r) for t, r in rows]
        batched_sink = RecordingSink()
        batched = self._estimator(batched_sink)
        got = batched.update_columns(
            [r.x for _, r in rows], [r.y for _, r in rows],
            collect="all", times=[t for t, _ in rows],
        )
        assert got == expected
        for sink in (scalar_sink, batched_sink):
            counters = sink.registry.as_dict()
            assert counters["events.span.kernel.answer"] == len(rows)
            assert "events.span.kernel.rebuild" in counters
        lean_sink = RecordingSink()
        lean = self._estimator(lean_sink)
        lean.update_columns([r.x for _, r in rows], times=[t for t, _ in rows], collect="none")
        assert "events.span.kernel.answer" not in lean_sink.registry.as_dict()

    def test_one_expire_event_per_expired_row(self):
        rows = self._timed()
        sink = RecordingSink()
        estimator = self._estimator(sink)
        expired = 0
        for i, (t, r) in enumerate(rows):
            before = estimator.live_count
            estimator.update(t, r)
            expired += before + 1 - estimator.live_count
        counters = sink.registry.as_dict()
        assert expired > len(rows) // 2  # the gap empties a full window
        assert counters["events.window.expire"] == expired
        assert counters["window.expire.count"]["total"] == expired
        sides = sum(v for k, v in counters.items() if k.startswith("window.expire.side."))
        assert sides == expired
