"""Live accuracy auditing: a sampled exact shadow next to any estimator.

The paper's claim is *continual* answers with bounded error, but error is
only observable against ground truth — which the offline eval tracker
computes after the fact.  An :class:`AccuracyAuditor` makes the error
budget observable **while the stream is live**: it wraps any
:class:`~repro.streams.model.StreamAlgorithm`, maintains an exact shadow
of the query next to it, and at configurable query points compares the
estimator's answer against the shadow's, publishing online error gauges
and threshold-crossing ``audit.error_budget`` events.

The shadow
----------

* **Sliding queries** keep the full live window (bounded by ``window``
  tuples), so the shadow answer is exact.
* **Landmark queries** track the independent aggregate exactly (running
  MIN/MAX/AVG are all O(1)) and estimate the dependent aggregate from a
  fixed-size uniform **reservoir** of the stream (Vitter's algorithm R):
  the qualifying fraction observed in the reservoir is scaled by the true
  stream length.  The shadow is exact until the stream outgrows the
  reservoir and an unbiased sample estimate after — which is precisely
  what makes it affordable to run forever next to a production stream.

Published metrics (into ``registry``), per audit point:

==============================  =============================================
``audit.checks`` (counter)      audit points evaluated so far
``audit.relative_error`` (g)    latest symmetric relative error
``audit.estimate`` (gauge)      estimator's answer at the audit point
``audit.exact`` (gauge)         shadow's ground-truth answer
``audit.relative_errors`` (h)   distribution of all observed errors
``audit.budget_breaches`` (c)   audit points where error exceeded ``budget``
``audit.within_budget`` (g)     1.0 while the latest error is inside budget
==============================  =============================================

plus one ``audit.error_budget`` event through the sink per breach.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterable
from random import Random
from typing import TYPE_CHECKING

from repro.exceptions import ConfigurationError
from repro.obs.registry import MetricsRegistry
from repro.obs.sink import NULL_SINK, ObsSink, RecordingSink
from repro.obs.trace import NULL_TRACER, Tracer
from repro.streams.model import BatchedIngest, Record, StreamAlgorithm

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.query import CorrelatedQuery

#: Default reservoir capacity for the landmark shadow.
SHADOW_RESERVOIR = 4096


def relative_error(estimate: float, exact: float) -> float:
    """Symmetric relative error ``|e - t| / max(|e|, |t|)``, 0 for 0/0.

    Symmetric so a zero ground truth doesn't blow up the gauge: an
    estimate of 5 against a truth of 0 reads 1.0 (one hundred percent
    off), not infinity.
    """
    denominator = max(abs(estimate), abs(exact))
    if denominator == 0.0:
        return 0.0
    return abs(estimate - exact) / denominator


class AccuracyAuditor(BatchedIngest):
    """Wrap a stream algorithm with a live, sampled ground-truth shadow.

    The auditor is itself a :class:`~repro.streams.model.StreamAlgorithm`:
    ``update``/``estimate`` forward to the wrapped estimator, and the
    batch entry points come from :class:`~repro.streams.model.BatchedIngest`
    (row by row, so audit points fire mid-batch), so it drops into any
    replay loop unchanged.

    Parameters
    ----------
    estimator:
        The algorithm under audit (its outputs are returned verbatim).
    query:
        The :class:`~repro.core.query.CorrelatedQuery` both sides answer.
    every:
        Audit period in tuples: the shadow answer is computed (O(window)
        for sliding scopes, O(reservoir) for landmark) every ``every``-th
        update, keeping the amortised cost a knob, not a surprise.
    budget:
        Relative-error threshold; crossing it emits one
        ``audit.error_budget`` event and counts a breach.  ``None``
        disables breach accounting (gauges still publish).
    reservoir:
        Landmark-shadow sample capacity (ignored for sliding queries).
    sink:
        Event sink for ``audit.error_budget`` events.
    registry:
        Where gauges/histograms/counters publish.  Defaults to the sink's
        registry when ``sink`` is a :class:`~repro.obs.sink.RecordingSink`
        (the common wiring), else a fresh private registry.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; each audit point runs
        inside an ``audit.check`` span.
    seed:
        Reservoir RNG seed (audits are reproducible by default).
    """

    def __init__(
        self,
        estimator: StreamAlgorithm,
        query: CorrelatedQuery,
        every: int = 100,
        budget: float | None = None,
        reservoir: int = SHADOW_RESERVOIR,
        sink: ObsSink | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        seed: int = 0,
    ) -> None:
        if every < 1:
            raise ConfigurationError(f"every must be >= 1, got {every}")
        if budget is not None and budget <= 0.0:
            raise ConfigurationError(f"budget must be positive, got {budget}")
        if reservoir < 1:
            raise ConfigurationError(f"reservoir must be >= 1, got {reservoir}")
        self._estimator = estimator
        self._query = query
        self._every = every
        self._budget = budget
        self._reservoir = reservoir
        self._obs = sink if sink is not None else NULL_SINK
        if registry is None:
            registry = (
                self._obs.registry
                if isinstance(self._obs, RecordingSink)
                else MetricsRegistry()
            )
        self.registry = registry
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._steps = 0
        self._checks = 0
        self._breaches = 0
        if query.is_sliding:
            assert query.window is not None
            self._window: deque[Record] | None = deque(maxlen=query.window)
            self._samples: list[Record] = []
            self._rng: Random | None = None
        else:
            self._window = None
            self._samples = []
            self._rng = Random(seed)
        self._extremum: float | None = None
        self._x_count = 0
        self._x_total = 0.0

    # ------------------------------------------------------------ plumbing

    @property
    def estimator(self) -> StreamAlgorithm:
        """The wrapped algorithm."""
        return self._estimator

    @property
    def query(self) -> CorrelatedQuery:
        return self._query

    @property
    def checks(self) -> int:
        """Audit points evaluated so far."""
        return self._checks

    @property
    def breaches(self) -> int:
        """Audit points whose error exceeded the budget."""
        return self._breaches

    @property
    def shadow_sampled(self) -> bool:
        """True once the landmark shadow has downgraded to a sample."""
        return self._window is None and self._steps > len(self._samples)

    # -------------------------------------------------------------- stream

    def update(self, record: Record) -> float:
        """Forward one tuple; audit when the period comes due."""
        if not isinstance(record, Record):
            record = Record(*record)
        value = self._estimator.update(record)
        self._observe(record)
        self._steps += 1
        if self._steps % self._every == 0:
            self.audit_now(value)
        return value

    def estimate(self) -> float:
        """The wrapped estimator's current answer."""
        return self._estimator.estimate()  # type: ignore[attr-defined]

    def _observe(self, record: Record) -> None:
        """Feed the shadow: window push, or trackers + reservoir."""
        if self._window is not None:
            self._window.append(record)
            return
        x = record.x
        independent = self._query.independent
        if independent == "avg":
            self._x_count += 1
            self._x_total += x
        elif self._extremum is None:
            self._extremum = x
        elif independent == "min":
            self._extremum = min(self._extremum, x)
        else:
            self._extremum = max(self._extremum, x)
        samples = self._samples
        if len(samples) < self._reservoir:
            samples.append(record)
        else:
            assert self._rng is not None
            slot = self._rng.randrange(self._steps + 1)
            if slot < len(samples):
                samples[slot] = record

    # -------------------------------------------------------------- shadow

    def shadow_answer(self) -> float:
        """The shadow's ground-truth (or sampled-exact) answer right now."""
        query = self._query
        if self._window is not None:
            live: Iterable[Record] = self._window
            population = len(self._window)
            if population == 0:
                return 0.0
            if query.independent == "avg":
                independent = math.fsum(r.x for r in live) / population
            elif query.independent == "min":
                independent = min(r.x for r in live)
            else:
                independent = max(r.x for r in live)
            scale = 1.0
            sample: Iterable[Record] = live
        else:
            population = self._steps
            if population == 0:
                return 0.0
            if query.independent == "avg":
                independent = self._x_total / self._x_count
            else:
                assert self._extremum is not None
                independent = self._extremum
            sample = self._samples
            scale = population / len(self._samples)
        count = 0.0
        weight = 0.0
        for r in sample:
            if query.qualifies(r.x, independent):
                count += 1.0
                weight += r.y
        return query.value_from(count * scale, weight * scale)

    # --------------------------------------------------------------- audit

    def audit_now(self, estimate: float | None = None) -> float:
        """Run one audit point immediately; returns the relative error."""
        with self._tracer.span("audit.check", step=float(self._steps)):
            if estimate is None:
                estimate = self.estimate()
            exact = self.shadow_answer()
            error = relative_error(estimate, exact)
        registry = self.registry
        self._checks += 1
        registry.counter("audit.checks").inc()
        registry.gauge("audit.relative_error").set(error)
        registry.gauge("audit.estimate").set(estimate)
        registry.gauge("audit.exact").set(exact)
        registry.histogram("audit.relative_errors").observe(error)
        if self._budget is not None:
            within = error <= self._budget
            registry.gauge("audit.within_budget").set(1.0 if within else 0.0)
            if not within:
                self._breaches += 1
                registry.counter("audit.budget_breaches").inc()
                if self._obs.enabled:
                    self._obs.emit(
                        "audit.error_budget",
                        step=float(self._steps),
                        error=error,
                        budget=self._budget,
                        estimate=estimate,
                        exact=exact,
                    )
        return error

    # -------------------------------------------------------- observability

    def obs_state(self) -> dict[str, float]:
        """The wrapped estimator's gauges plus the shadow's footprint."""
        state_fn = getattr(self._estimator, "obs_state", None)
        state = dict(state_fn()) if state_fn is not None else {}
        state["audit_shadow"] = float(
            len(self._window) if self._window is not None else len(self._samples)
        )
        state["audit_checks"] = float(self._checks)
        state["audit_breaches"] = float(self._breaches)
        return state
