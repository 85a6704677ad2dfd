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

import math
from collections.abc import Iterable, Sequence

from repro.core.query import CorrelatedQuery
from repro.exceptions import ConfigurationError
from repro.streams.model import BatchedIngest, Record, ensure_finite
from repro.structures.exact_sum import ExactSum
from repro.structures.fenwick import OrderStatisticsIndex
from repro.structures.monotonic_deque import MonotonicDeque
from repro.structures.ring_buffer import RingBuffer
from repro.structures.welford import RunningMoments


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
        if query.is_sliding:
            window = query.window
            assert window is not None
            self._ring: RingBuffer[Record] | None = RingBuffer(window)
            if query.independent == "avg":
                self._window_sum = ExactSum()
            if query.independent in ("min", "max"):
                self._deque: MonotonicDeque | None = MonotonicDeque(
                    window, mode=query.independent
                )
            else:
                self._deque = None
        else:
            self._ring = None
            self._deque = None
        self._moments = RunningMoments()
        self._extremum: float | None = None

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        sliding_avg = self._ring is not None and self._query.independent == "avg"
        if sliding_avg and "_window_sum" not in state:
            # A checkpoint written before the running window sum existed.
            self._window_sum = ExactSum()
            for cell in self._ring:
                self._window_sum.add(cell.x)

    @property
    def query(self) -> CorrelatedQuery:
        return self._query

    def _independent_value(self) -> float:
        if self._query.independent == "avg":
            if self._ring is not None:
                # Exactly-rounded, order-independent window mean: a value
                # can sit exactly on the mean (symmetric windows), where a
                # last-ulp difference between incremental recurrences flips
                # the strict predicate.  The exact running partials give
                # math.fsum over the window in O(#partials), not O(w).
                ring = self._ring
                return self._window_sum.fsum(cell.x for cell in ring) / len(ring)
            return self._moments.mean
        if self._deque is not None:
            return self._deque.extremum()
        assert self._extremum is not None
        return self._extremum

    def update(self, record: Record) -> float:
        """Consume the next tuple; return the exact aggregate value."""
        ensure_finite(record)
        evicted = self._ring.push(record) if self._ring is not None else None
        if self._query.independent == "avg":
            if self._ring is None:
                self._moments.push(record.x)
            else:
                self._window_sum.add(record.x)
                if evicted is not None:
                    self._window_sum.remove(evicted.x)
        elif self._deque is not None:
            self._deque.push(record.x)
        else:
            if self._extremum is None:
                self._extremum = record.x
            elif self._query.independent == "min":
                self._extremum = min(self._extremum, record.x)
            else:
                self._extremum = max(self._extremum, record.x)

        if evicted is not None:
            self._index.delete(evicted.x, evicted.y)
        self._index.insert(record.x, record.y)
        return self.estimate()

    def obs_state(self) -> dict[str, float]:
        """Live state-size gauges for the instrumentation layer."""
        state = {"indexed": float(len(self._index))}
        if self._ring is not None:
            state["ring"] = float(len(self._ring))
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
        return query.value_from(count, weight)


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
    ``(t_i - duration, t_i]`` — the same live set a
    :class:`~repro.core.time_sliding.TimeSlidingEstimator` keeps (its
    expiry drops tuples with ``time <= now - duration``).  This is the
    reference the tests and the CLI compare time-window runs against; it
    re-evaluates the predicate over the live window per step, which is
    fine for recorded evaluation streams and deliberately not a stream
    algorithm.
    """
    if not timed:
        raise ConfigurationError("exact_time_series needs a non-empty stream")
    if query.is_sliding:
        raise ConfigurationError("time-window evaluation needs a landmark query")
    if duration <= 0.0:
        raise ConfigurationError(f"duration must be positive, got {duration}")
    out: list[float] = []
    live: list[tuple[float, Record]] = []
    for time, record in timed:
        live.append((time, record if isinstance(record, Record) else Record(*record)))
        cutoff = time - duration
        live = [(t, r) for t, r in live if t > cutoff]
        xs = [r.x for _, r in live]
        if query.independent == "min":
            independent = min(xs)
        elif query.independent == "max":
            independent = max(xs)
        else:
            independent = math.fsum(xs) / len(xs)
        qualifying = [r for _, r in live if query.qualifies(r.x, independent)]
        count = float(len(qualifying))
        weight = math.fsum(r.y for r in qualifying)
        out.append(query.value_from(count, weight))
    return out
