"""The live accuracy auditor: shadow exactness, gauges, budget events."""

from __future__ import annotations

import random

import pytest

from repro.core.engine import build_estimator
from repro.core.exact import exact_series
from repro.core.query import CorrelatedQuery
from repro.exceptions import ConfigurationError
from repro.obs.audit import AccuracyAuditor, relative_error
from repro.obs.sink import RecordingSink
from repro.obs.trace import Tracer
from repro.streams.model import Record, StreamAlgorithm


def _records(n, seed=11, low=0.0, high=100.0):
    rng = random.Random(seed)
    return [Record(rng.uniform(low, high), rng.uniform(0.0, 10.0)) for _ in range(n)]


class TestRelativeError:
    def test_zero_against_zero(self):
        assert relative_error(0.0, 0.0) == 0.0

    def test_symmetric(self):
        assert relative_error(5.0, 10.0) == relative_error(10.0, 5.0) == 0.5

    def test_zero_truth_does_not_blow_up(self):
        assert relative_error(5.0, 0.0) == 1.0


class TestShadowExactness:
    """While the population fits, the shadow must equal the exact oracle."""

    @pytest.mark.parametrize(
        "query",
        [
            CorrelatedQuery("count", "min", epsilon=50.0),
            CorrelatedQuery("sum", "max", epsilon=0.5),
            CorrelatedQuery("count", "avg"),
            CorrelatedQuery("count", "min", epsilon=50.0, window=64),
            CorrelatedQuery("sum", "avg", window=64),
        ],
        ids=["count-min", "sum-max", "count-avg", "win-count-min", "win-sum-avg"],
    )
    def test_shadow_matches_exact_series(self, query):
        records = _records(300)
        estimator = build_estimator(query, "exact", stream=records)
        auditor = AccuracyAuditor(estimator, query, every=50)
        reference = exact_series(records, query)
        for i, r in enumerate(records):
            auditor.update(r)
            if (i + 1) % 50 == 0:
                assert auditor.shadow_answer() == pytest.approx(reference[i], rel=1e-9)

    def test_exact_estimator_audits_to_zero_error(self):
        query = CorrelatedQuery("count", "min", epsilon=50.0)
        records = _records(200)
        estimator = build_estimator(query, "exact", stream=records)
        auditor = AccuracyAuditor(estimator, query, every=20, budget=0.01)
        auditor.update_many(records)
        assert auditor.checks == 10
        assert auditor.breaches == 0
        assert auditor.registry.gauge("audit.relative_error").value == 0.0
        assert auditor.registry.gauge("audit.within_budget").value == 1.0

    def test_landmark_shadow_degrades_to_reservoir(self):
        # COUNT{y: x > AVG(x)}: about half the stream qualifies, so the
        # 128-sample reservoir estimate has low enough variance to bound.
        query = CorrelatedQuery("count", "avg")
        records = _records(600)
        estimator = build_estimator(query, "exact", stream=records)
        auditor = AccuracyAuditor(estimator, query, every=100, reservoir=128)
        auditor.update_many(records)
        assert auditor.shadow_sampled
        exact = exact_series(records, query)[-1]
        assert auditor.shadow_answer() == pytest.approx(exact, rel=0.3)

    def test_sliding_shadow_stays_exact_forever(self):
        query = CorrelatedQuery("count", "min", epsilon=50.0, window=32)
        records = _records(400)
        estimator = build_estimator(query, "exact", stream=records)
        auditor = AccuracyAuditor(estimator, query, every=400)
        auditor.update_many(records)
        assert not auditor.shadow_sampled
        assert auditor.shadow_answer() == pytest.approx(
            exact_series(records, query)[-1], rel=1e-9
        )


class TestBatchedIngest:
    def test_is_a_stream_algorithm(self):
        query = CorrelatedQuery("count", "min", epsilon=50.0)
        auditor = AccuracyAuditor(build_estimator(query, "exact", universe=[1.0]), query)
        assert isinstance(auditor, StreamAlgorithm)

    def test_chunked_columns_audit_like_the_scalar_loop(self):
        query = CorrelatedQuery("count", "min", epsilon=50.0)
        records = _records(300)

        def audited():
            estimator = TestBudgetAccounting._Biased(
                build_estimator(query, "exact", stream=records)
            )
            return AccuracyAuditor(estimator, query, every=40, budget=0.1)

        scalar = audited()
        for r in records:
            scalar.update(r)
        chunked = audited()
        for lo in range(0, len(records), 32):
            chunk = records[lo : lo + 32]
            out = chunked.update_columns(
                [r.x for r in chunk], [r.y for r in chunk], collect="none"
            )
            assert out == []
        assert (chunked.checks, chunked.breaches) == (scalar.checks, scalar.breaches)
        assert chunked.checks == 7 and chunked.breaches == 7
        assert chunked.estimate() == scalar.estimate()


class TestBudgetAccounting:
    class _Biased:
        """An estimator that is always exactly 2x the truth's count."""

        def __init__(self, inner):
            self.inner = inner

        def update(self, record):
            return 2.0 * self.inner.update(record)

        def estimate(self):
            return 2.0 * self.inner.estimate()

    def test_breaches_count_and_emit_events(self):
        query = CorrelatedQuery("count", "min", epsilon=50.0)
        records = _records(200)
        sink = RecordingSink()
        estimator = self._Biased(build_estimator(query, "exact", stream=records))
        auditor = AccuracyAuditor(estimator, query, every=40, budget=0.1, sink=sink)
        auditor.update_many(records)
        assert auditor.breaches == auditor.checks == 5
        assert sink.count("audit.error_budget") == 5.0
        event = sink.events_named("audit.error_budget")[0]
        assert event.fields["budget"] == 0.1
        assert event.fields["error"] == pytest.approx(0.5)
        assert auditor.registry.gauge("audit.within_budget").value == 0.0
        assert auditor.registry.value("audit.budget_breaches") == 5.0

    def test_registry_defaults_to_recording_sink(self):
        query = CorrelatedQuery("count", "min", epsilon=50.0)
        sink = RecordingSink()
        auditor = AccuracyAuditor(
            build_estimator(query, "exact", universe=[1.0]), query, sink=sink
        )
        assert auditor.registry is sink.registry

    def test_audit_spans(self):
        query = CorrelatedQuery("count", "min", epsilon=50.0)
        records = _records(20)
        tracer = Tracer()
        auditor = AccuracyAuditor(
            build_estimator(query, "exact", stream=records),
            query,
            every=10,
            tracer=tracer,
        )
        auditor.update_many(records)
        names = [s["name"] for s in tracer.recent()]
        assert names.count("audit.check") == 2

    def test_obs_state_forwards_and_extends(self):
        query = CorrelatedQuery("count", "min", epsilon=50.0)
        records = _records(50)
        estimator = build_estimator(
            query, "piecemeal-uniform", num_buckets=8, stream=records
        )
        auditor = AccuracyAuditor(estimator, query, every=25)
        auditor.update_many(records)
        state = auditor.obs_state()
        assert state["audit_checks"] == 2.0
        assert "buckets" in state  # inner estimator's gauges ride along

    @pytest.mark.parametrize(
        ("kwargs", "message"),
        [
            ({"every": 0}, "every"),
            ({"budget": 0.0}, "budget"),
            ({"budget": -1.0}, "budget"),
            ({"reservoir": 0}, "reservoir"),
        ],
    )
    def test_validation(self, kwargs, message):
        query = CorrelatedQuery("count", "min", epsilon=50.0)
        estimator = build_estimator(query, "exact", universe=[1.0])
        with pytest.raises(ConfigurationError, match=message):
            AccuracyAuditor(estimator, query, **kwargs)
