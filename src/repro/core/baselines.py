"""Correlated-aggregate estimators built on traditional histograms.

These are the paper's competing methods: the value histogram covers the
whole domain — equiwidth (fixed a-priori domain, single pass) or "true"
equidepth (exact per-step quantile boundaries, the paper's deliberately
unfair multi-pass baseline) — and the threshold query is answered from it
by interpolation.  The independent aggregate itself is maintained exactly,
by the same :class:`~repro.streams.operators.ScopeAggregate` the exact
oracle holds (running extrema and mean for landmark scopes; monotonic-deque
extrema and the exactly rounded window mean for sliding scopes) — more
unfair advantage, since the focused methods must approximate sliding
extrema.

The comparison isolates the paper's thesis: the *bucket placement* is what
matters, not the quality of the threshold.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core.query import CorrelatedQuery
from repro.exceptions import ConfigurationError
from repro.histograms.bucket import Mass
from repro.histograms.equidepth import EquidepthHistogram
from repro.histograms.equiwidth import EquiwidthHistogram
from repro.histograms.streaming_equidepth import StreamingEquidepthHistogram
from repro.obs.sink import NULL_SINK, ObsSink
from repro.streams.model import BatchedIngest, Record, ensure_finite
from repro.streams.operators import ScopeAggregate


class _TraditionalEstimator(BatchedIngest):
    """Shared scaffolding: exact independent aggregate + domain histogram."""

    def __init__(self, query: CorrelatedQuery, sink: ObsSink | None = None) -> None:
        self._query = query
        self._obs = sink if sink is not None else NULL_SINK
        self._scope = ScopeAggregate(query.independent, query.window)

    @property
    def query(self) -> CorrelatedQuery:
        return self._query

    def _independent_value(self) -> float:
        return self._scope.value()

    # Subclasses provide histogram add/remove/estimates.

    def _histogram_add(self, record: Record) -> None:
        raise NotImplementedError

    def _histogram_remove(self, record: Record) -> None:
        raise NotImplementedError

    def _histogram_leq(self, threshold: float) -> Mass:
        raise NotImplementedError

    def _histogram_geq(self, threshold: float) -> Mass:
        raise NotImplementedError

    def update(self, record: Record) -> float:
        """Consume the next tuple; return the current estimate."""
        ensure_finite(record)
        evicted = self._scope.push(record)
        if evicted is not None:
            self._histogram_remove(evicted)
            if self._obs.enabled:
                self._obs.emit("window.expire", count=1.0)
        self._histogram_add(record)
        return self.estimate()

    def obs_state(self) -> dict[str, float]:
        """Live state-size gauges for the instrumentation layer."""
        state = {"live": float(len(self._scope))}
        if self._query.is_sliding:
            state["ring"] = state["live"]
        return state

    def estimate(self) -> float:
        """Current estimate of the correlated aggregate."""
        if not len(self._scope):
            return 0.0
        query = self._query
        lo, hi = query.band(self._independent_value())
        if query.independent == "min":
            mass = self._histogram_leq(hi)
        elif query.independent == "max" or not query.two_sided:
            mass = self._histogram_geq(lo)
        else:  # two-sided AVG band
            below_hi = self._histogram_leq(hi)
            below_lo = self._histogram_leq(lo)
            mass = Mass(
                below_hi.count - below_lo.count, below_hi.weight - below_lo.weight
            )
        mass = mass.clamped()
        return query.value_from(mass.count, mass.weight)


class EquiwidthEstimator(_TraditionalEstimator):
    """Correlated aggregates from a whole-domain equiwidth histogram.

    Parameters
    ----------
    query:
        Any :class:`~repro.core.query.CorrelatedQuery`.
    num_buckets:
        Bucket budget ``m``.
    domain:
        The a-priori value domain ``(low, high)`` — knowledge the paper
        grants this baseline but not the focused methods.
    """

    def __init__(
        self,
        query: CorrelatedQuery,
        num_buckets: int,
        domain: tuple[float, float],
        sink: ObsSink | None = None,
    ) -> None:
        super().__init__(query, sink=sink)
        low, high = domain
        if not high > low:
            raise ConfigurationError(f"need domain high > low, got {domain}")
        self._hist = EquiwidthHistogram(num_buckets, low, high)

    def obs_state(self) -> dict[str, float]:
        """Live state-size gauges for the instrumentation layer."""
        state = super().obs_state()
        state["buckets"] = float(self._hist.num_buckets)
        return state

    def _histogram_add(self, record: Record) -> None:
        self._hist.add(record.x, record.y)

    def _histogram_remove(self, record: Record) -> None:
        self._hist.remove(record.x, record.y)

    def _histogram_leq(self, threshold: float) -> Mass:
        return self._hist.estimate_leq(threshold)

    def _histogram_geq(self, threshold: float) -> Mass:
        return self._hist.estimate_geq(threshold)


class StreamingEquidepthEstimator(_TraditionalEstimator):
    """Correlated aggregates from a *feasible* single-pass equidepth histogram.

    Bucket boundaries come from a Greenwald–Khanna summary instead of
    offline sorting — the baseline the paper's footnote 5 anticipates.
    Landmark scopes only (GK summaries cannot delete).

    Parameters
    ----------
    query:
        A landmark-scope :class:`~repro.core.query.CorrelatedQuery`.
    num_buckets:
        Bucket budget ``m``.
    eps:
        GK rank-error bound.
    """

    def __init__(
        self,
        query: CorrelatedQuery,
        num_buckets: int,
        eps: float = 0.01,
        sink: ObsSink | None = None,
    ) -> None:
        if query.is_sliding:
            raise ConfigurationError(
                "streaming-equidepth is insert-only; sliding windows need the "
                "offline equidepth baseline"
            )
        super().__init__(query, sink=sink)
        self._hist = StreamingEquidepthHistogram(num_buckets, eps=eps, sink=sink)

    def obs_state(self) -> dict[str, float]:
        """Live state-size gauges, including the GK sketch footprint."""
        state = super().obs_state()
        state["buckets"] = float(self._hist.num_buckets)
        state["gk_entries"] = float(self._hist.summary_entries)
        return state

    def _histogram_add(self, record: Record) -> None:
        self._hist.add(record.x, record.y)

    def _histogram_remove(self, record: Record) -> None:  # pragma: no cover
        self._hist.remove(record.x, record.y)

    def _histogram_leq(self, threshold: float) -> Mass:
        return self._hist.estimate_leq(threshold)

    def _histogram_geq(self, threshold: float) -> Mass:
        return self._hist.estimate_geq(threshold)


class EquidepthEstimator(_TraditionalEstimator):
    """Correlated aggregates from the paper's "true" equidepth histogram.

    Parameters
    ----------
    query:
        Any :class:`~repro.core.query.CorrelatedQuery`.
    num_buckets:
        Bucket budget ``m``.
    universe:
        Every x value the stream will ever contain (offline knowledge —
        the paper explicitly gives equidepth this multi-pass advantage).
    """

    def __init__(
        self,
        query: CorrelatedQuery,
        num_buckets: int,
        universe: Iterable[float],
        sink: ObsSink | None = None,
    ) -> None:
        super().__init__(query, sink=sink)
        self._hist = EquidepthHistogram(num_buckets, universe)

    def obs_state(self) -> dict[str, float]:
        """Live state-size gauges for the instrumentation layer."""
        state = super().obs_state()
        state["buckets"] = float(self._hist.num_buckets)
        return state

    def _histogram_add(self, record: Record) -> None:
        self._hist.add(record.x, record.y)

    def _histogram_remove(self, record: Record) -> None:
        self._hist.remove(record.x, record.y)

    def _histogram_leq(self, threshold: float) -> Mass:
        return self._hist.estimate_leq(threshold)

    def _histogram_geq(self, threshold: float) -> Mass:
        return self._hist.estimate_geq(threshold)
