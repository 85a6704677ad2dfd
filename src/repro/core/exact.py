"""The exact-answer oracle: ``S_exact`` for any supported correlated query.

The paper defines approximation quality against the stream of exact answers
(Section 2.3).  Exact evaluation is equivalent to the multi-pass
computation (one pass for the independent aggregate, one for the dependent)
but is implemented here with an order-statistics Fenwick index so a whole
20K–65K tuple stream evaluates in O(n log n) — fast enough that the test
suite asserts against it directly.

The oracle needs the universe of x values up front (it replays recorded
streams), which is consistent with its role: it is ground truth, not a
competing stream algorithm.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.core.query import CorrelatedQuery
from repro.exceptions import ConfigurationError
from repro.streams.model import BatchedIngest, Record, ensure_finite
from repro.streams.operators import ScopeAggregate
from repro.structures.fenwick import OrderStatisticsIndex


class ExactOracle(BatchedIngest):
    """Exact per-step values of a correlated aggregate.

    Parameters
    ----------
    query:
        The :class:`~repro.core.query.CorrelatedQuery` to evaluate.
    universe:
        Every x value that will ever be pushed.
    sink:
        Accepted for interface parity with the estimators; the oracle has
        no lifecycle events to emit (it is ground truth, not a summary).
    """

    def __init__(
        self, query: CorrelatedQuery, universe: Iterable[float], sink: object | None = None
    ) -> None:
        self._query = query
        self._index = OrderStatisticsIndex(universe)
        self._scope = ScopeAggregate(query.independent, query.window)

    @property
    def query(self) -> CorrelatedQuery:
        return self._query

    def _independent_value(self) -> float:
        return self._scope.value()

    def update(self, record: Record) -> float:
        """Consume the next tuple; return the exact aggregate value."""
        ensure_finite(record)
        evicted = self._scope.push(record)
        if evicted is not None:
            self._index.delete(evicted.x, evicted.y)
        self._index.insert(record.x, record.y)
        return self.estimate()

    def obs_state(self) -> dict[str, float]:
        """Live state-size gauges for the instrumentation layer."""
        state = {"indexed": float(len(self._index))}
        if self._query.is_sliding:
            state["ring"] = float(len(self._scope))
        return state

    def estimate(self) -> float:
        """Exact value of the dependent aggregate under the current scope."""
        if len(self._index) == 0:
            return 0.0
        query = self._query
        lo, hi = query.band(self._independent_value())
        if query.independent == "min":
            # qualifies: min <= x <= (1+eps) * min; nothing lies below min.
            count = float(self._index.count_leq(hi))
            weight = self._index.sum_leq(hi)
        elif query.independent == "max":
            # qualifies: max/(1+eps) <= x <= max; nothing lies above max.
            count = float(self._index.count_geq(lo))
            weight = self._index.sum_geq(lo)
        elif query.two_sided:
            # strict band: lo < x < hi
            count = float(self._index.count_lt(hi) - self._index.count_leq(lo))
            weight = self._index.sum_lt(hi) - self._index.sum_leq(lo)
        else:
            # strict: x > mean
            count = float(self._index.count_gt(lo))
            weight = self._index.sum_gt(lo)
        # An empty qualifying set sums to exactly 0, whatever residue the
        # Fenwick differences of inserted and deleted weights leave.
        return query.value_from(count, weight if count else 0.0)


class TimeWindowOracle(ExactOracle):
    """:class:`ExactOracle` over the trailing ``duration`` of stream time,
    driven like a time-window estimator: ``update(time, record)`` or
    ``update_columns(xs, ys, times=...)``."""

    _timestamped = True

    def __init__(self, query: CorrelatedQuery, universe: Iterable[float], duration: float):
        if query.is_sliding:
            raise ConfigurationError("time-window evaluation needs a landmark query")
        self._query = query
        self._index = OrderStatisticsIndex(universe)
        self._scope = ScopeAggregate(query.independent, duration=duration)

    def update(self, time: float, record: Record) -> float:  # type: ignore[override]
        """Consume the tuple at ``time`` (non-decreasing); return the exact value."""
        self._absorb_timed(time, record)
        return self.estimate()

    def _absorb_timed(self, time: float, record: Record) -> None:
        record = record if isinstance(record, Record) else Record(*record)
        ensure_finite(record)
        for old in self._scope.push_at(time, record):
            self._index.delete(old.x, old.y)
        self._index.insert(record.x, record.y)


def exact_series(records: Sequence[Record], query: CorrelatedQuery) -> list[float]:
    """The full exact output sequence ``S_exact`` for a recorded stream."""
    if not records:
        raise ConfigurationError("exact_series needs a non-empty stream")
    oracle = ExactOracle(query, (r.x for r in records))
    return [oracle.update(r) for r in records]


def exact_time_series(
    timed: Sequence[tuple[float, Record]], query: CorrelatedQuery, duration: float
) -> list[float]:
    """Exact per-step answers over a trailing *time* window.

    The scope at step ``i`` is every tuple with timestamp in
    ``(t_i - duration, t_i]`` — the live set of a
    :class:`~repro.core.time_sliding.TimeSlidingEstimator` — answered by a
    :class:`TimeWindowOracle` in O(n log n).  This is the reference the
    tests and the CLI compare time-window runs against.
    """
    if not timed:
        raise ConfigurationError("exact_time_series needs a non-empty stream")
    times, records = zip(*((t, Record(*r)) for t, r in timed))
    oracle = TimeWindowOracle(query, (r.x for r in records), duration)
    return oracle.update_columns([r.x for r in records], [r.y for r in records], times=times)
