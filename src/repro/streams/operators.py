"""Exact level-0 stream aggregate operators.

A *level 0* stream aggregate (paper Section 2.1) has a selection predicate
that does not itself contain an aggregate — e.g. Example 1's

    COUNT { origin :  j in swScope(i), isIntl = 1, duration > 10 }

These are exactly computable in bounded space for COUNT/SUM/AVG (running
counters) and for extrema over landmark scopes (monotone); sliding-window
extrema use the monotonic deque.  They serve two roles in this repo:

1. building blocks for the examples that mirror the paper's Section 2
   (``examples/telecom_fraud.py``);
2. ground truth in tests for the scope drivers.

The correlated estimators do not use them: each tracks its independent
aggregate itself (:mod:`repro.structures` and :mod:`repro.core`).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable

from repro.exceptions import ConfigurationError, EmptyScopeError
from repro.streams.model import Record
from repro.streams.scopes import Scope, ScopeEvent
from repro.structures.welford import RunningMoments

Predicate = Callable[[Record], bool]


def _always(_: Record) -> bool:
    return True


class StreamAggregateOperator:
    """Exact ``Agg(AGG, scope, P)`` for level-0 predicates.

    Parameters
    ----------
    aggregate:
        One of ``'count'``, ``'sum'``, ``'avg'``, ``'min'``, ``'max'``.
        COUNT counts qualifying records; the others aggregate over ``y``.
    scope:
        A scope driver from :mod:`repro.streams.scopes`.
    predicate:
        Level-0 predicate over the record; defaults to accepting everything.
    window:
        Required when ``scope`` is a sliding window **and** the operator must
        forget expired records (extrema, and predicate-filtered count/sum):
        the number of positions the scope retains.
    """

    _AGGREGATES = ("count", "sum", "avg", "min", "max")

    def __init__(
        self,
        aggregate: str,
        scope: Scope,
        predicate: Predicate | None = None,
        window: int | None = None,
    ) -> None:
        if aggregate not in self._AGGREGATES:
            raise ConfigurationError(
                f"aggregate must be one of {self._AGGREGATES}, got {aggregate!r}"
            )
        self._aggregate = aggregate
        self._scope = scope
        self._predicate = predicate or _always
        self._window = window
        self._reset_state()

    def _reset_state(self) -> None:
        self._count = 0
        self._sum = 0.0
        self._moments = RunningMoments()
        if self._window is not None:
            self._buffer: deque[tuple[Record, bool]] = deque()
            if self._aggregate in ("min", "max"):
                # Position-stamped monotonic deque: qualifying records can be
                # sparse, so expiry must follow stream positions, not pushes.
                self._deque: deque[tuple[int, float]] = deque()
        elif self._aggregate in ("min", "max"):
            self._extremum: float | None = None

    def _ingest(self, record: Record, qualifies: bool) -> None:
        if not qualifies:
            return
        self._count += 1
        self._sum += record.y
        self._moments.push(record.y)
        if self._window is None and self._aggregate in ("min", "max"):
            if self._extremum is None:
                self._extremum = record.y
            elif self._aggregate == "min":
                self._extremum = min(self._extremum, record.y)
            else:
                self._extremum = max(self._extremum, record.y)

    def _expire_oldest(self) -> None:
        record, qualified = self._buffer.popleft()
        if qualified:
            self._count -= 1
            self._sum -= record.y
            self._moments.remove(record.y)

    def update(self, record: Record) -> float:
        """Consume the next record and return the current aggregate value."""
        event: ScopeEvent = self._scope.advance()
        if event.reset and event.position > 1:
            self._reset_state()
        qualifies = self._predicate(record)
        if self._window is not None:
            self._buffer.append((record, qualifies))
            if self._aggregate in ("min", "max") and qualifies:
                self._push_extremum(event.position, record.y)
            if event.expired is not None:
                self._expire_oldest()
                if self._aggregate in ("min", "max"):
                    while self._deque and self._deque[0][0] <= event.expired:
                        self._deque.popleft()
        self._ingest(record, qualifies)
        return self.value()

    def _push_extremum(self, position: int, value: float) -> None:
        if self._aggregate == "min":
            while self._deque and self._deque[-1][1] >= value:
                self._deque.pop()
        else:
            while self._deque and self._deque[-1][1] <= value:
                self._deque.pop()
        self._deque.append((position, value))

    def value(self) -> float:
        """Current value of the output sequence."""
        if self._aggregate == "count":
            return float(self._count)
        if self._aggregate == "sum":
            return self._sum
        if self._count == 0:
            raise EmptyScopeError(f"{self._aggregate} over an empty qualifying set")
        if self._aggregate == "avg":
            return self._sum / self._count
        if self._window is not None:
            return self._deque[0][1]
        return self._extremum  # type: ignore[return-value]
