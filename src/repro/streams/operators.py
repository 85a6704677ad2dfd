"""The exact level-0 scope aggregate.

A *level 0* stream aggregate (paper Section 2.1) is an exact aggregate
whose scope is the full, a landmark or a sliding window — e.g. Example 1's

    COUNT { origin :  j in swScope(i), isIntl = 1, duration > 10 }

which is the SUM of a 0/1 indicator over ``swScope_w``.
:class:`ScopeAggregate` is that operator for MIN, MAX, AVG and SUM of the
records' ``x``.  It is the one exact independent aggregate in the library:
the exact oracle (:mod:`repro.core.exact`), the traditional-histogram
baselines (:mod:`repro.core.baselines`) and ``examples/telecom_fraud.py``
each hold one.  A sliding scope is the last ``window`` records or the
trailing ``duration`` of stream time ("over the last two months").

Each kind is an accumulator shaped like an incremental aggregation
function — ``add`` a value, ``sub`` an expired one (sliding scopes only),
``end`` to read the aggregate:

* sliding SUM/AVG subtract exactly through :class:`ExactSum`, so the value
  is ``math.fsum`` over the window (divided by its length for AVG);
* sliding MIN/MAX cannot subtract, so a :class:`MonotonicDeque` expires by
  position or by the ring's clock (on a tie the newer value wins);
* landmark AVG is Welford's running mean (:class:`RunningMoments`);
* landmark MIN/MAX/SUM are a running fold (on a MIN/MAX tie the older
  value stays).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable

from repro.exceptions import ConfigurationError, EmptyScopeError
from repro.streams.model import Record
from repro.structures.column_ring import ClockedRing, ColumnRing
from repro.structures.exact_sum import ExactSum
from repro.structures.monotonic_deque import MonotonicDeque
from repro.structures.welford import RunningMoments

KINDS = ("min", "max", "avg", "sum")


class _RunningFold:
    """Landmark MIN, MAX or SUM: ``fold`` every value into one float."""

    def __init__(self, fold: Callable[[float, float], float], start: float) -> None:
        self._fold = fold
        self._value = start

    def add(self, x: float) -> None:
        self._value = self._fold(self._value, x)

    def end(self, window: ColumnRing | None) -> float:
        return self._value


class _RunningMean(RunningMoments):
    """Landmark AVG: Welford's running mean."""

    add = RunningMoments.push

    def end(self, window: ColumnRing | None) -> float:
        return self.mean


class _WindowExtremum(MonotonicDeque):
    """Sliding MIN or MAX: the deque forgets expired values by position."""

    add = MonotonicDeque.push

    def sub(self, x: float) -> None:
        pass

    def end(self, window: ColumnRing | None) -> float:
        return self.extremum()


class _ClockedExtremum(_WindowExtremum):
    """Time-window MIN or MAX: the deque expires by the ring's clock."""

    def __init__(self, ring: ClockedRing, mode: str) -> None:
        super().__init__(ring.duration, mode=mode)
        self._clock = ring

    def add(self, x: float) -> None:
        self.push(x, self._clock.now)


class _WindowSum(ExactSum):
    """Sliding SUM: ``math.fsum`` over the window, from exact partials."""

    sub = ExactSum.remove

    def end(self, window: ColumnRing | None) -> float:
        assert window is not None
        return self.fsum(row[0] for row in window)


class _WindowMean(_WindowSum):
    """Sliding AVG: the exactly rounded window sum over the window length.

    A value can sit exactly on the mean (symmetric windows), where a
    last-ulp difference between incremental recurrences flips a strict
    predicate; ``math.fsum`` is order-independent, so this mean is not.
    """

    def end(self, window: ColumnRing | None) -> float:
        return super().end(window) / len(window)  # type: ignore[arg-type]


class ScopeAggregate:
    """Exact ``kind`` of the records' ``x`` over a landmark or sliding scope.

    Parameters
    ----------
    kind:
        One of ``'min'``, ``'max'``, ``'avg'``, ``'sum'``.
    window:
        ``None`` for the full (landmark) scope ``fScope``; otherwise the
        sliding scope ``swScope_w`` over the last ``window`` records.
    duration:
        Instead of ``window``: the records with time in ``(now - duration,
        now]``, fed by :meth:`push_at`.

    >>> agg = ScopeAggregate("min", window=2)
    >>> [agg.push(Record(x)) for x in (5.0, 3.0, 7.0)][-1]
    Record(x=5.0, y=1.0)
    >>> agg.value(), len(agg)
    (3.0, 2)
    """

    def __init__(
        self, kind: str, window: int | None = None, duration: float | None = None
    ) -> None:
        if kind not in KINDS:
            raise ConfigurationError(f"kind must be one of {KINDS}, got {kind!r}")
        if window is not None and duration is not None:
            raise ConfigurationError("a scope has a window or a duration, not both")
        self._kind = kind
        self._size = 0
        self._ring: ColumnRing | None = None
        if window is None and duration is None:
            if kind == "avg":
                self._agg = _RunningMean()
            elif kind == "sum":
                self._agg = _RunningFold(operator.add, 0.0)
            else:
                start = math.inf if kind == "min" else -math.inf
                self._agg = _RunningFold(min if kind == "min" else max, start)
        else:
            self._ring = ColumnRing(window) if duration is None else ClockedRing(duration)
            if kind == "avg":
                self._agg = _WindowMean()
            elif kind == "sum":
                self._agg = _WindowSum()
            elif duration is None:
                self._agg = _WindowExtremum(window, mode=kind)
            else:
                self._agg = _ClockedExtremum(self._ring, kind)

    @property
    def window(self) -> list[Record] | None:
        """The live records of a sliding scope, oldest first; ``None`` if landmark."""
        if self._ring is None:
            return None
        return [Record(x, y) for x, y, _ in self._ring]

    def __len__(self) -> int:
        """Number of records in the scope."""
        return self._size

    def push(self, record: Record) -> Record | None:
        """Add the next record (no duration); return the one that slid out, if any."""
        self._agg.add(record.x)
        ring = self._ring
        if ring is None:
            self._size += 1
            return None
        evicted = ring.push(record.x, record.y)
        if evicted is None:
            self._size += 1
            return None
        self._agg.sub(evicted[0])
        return Record(evicted[0], evicted[1])

    def push_at(self, time: float, record: Record) -> list[Record]:
        """Add the next record of a duration scope at ``time`` (non-decreasing);
        return the records that expired, oldest first."""
        if not isinstance(self._ring, ClockedRing):
            raise ConfigurationError("push_at needs a duration scope")
        self._ring.tick(time)
        self._agg.add(record.x)
        expired = self._ring.push(record.x, record.y) or []
        for x, _, _ in expired:
            self._agg.sub(x)
        self._size = len(self._ring)
        return [Record(x, y) for x, y, _ in expired]

    def value(self) -> float:
        """The exact aggregate over the current scope."""
        if not self._size:
            raise EmptyScopeError(f"{self._kind} over an empty scope")
        return self._agg.end(self._ring)
