"""Core data structures shared by the streaming estimators and the oracles.

These are the substrate the paper's algorithms stand on:

* :class:`~repro.structures.fenwick.FenwickTree` and
  :class:`~repro.structures.fenwick.OrderStatisticsIndex` — exact
  order-statistics with insert/delete, used by the exact-answer oracles.
* :class:`~repro.structures.column_ring.ColumnRing` — fixed-capacity
  window of ``(x, y, side)`` rows in flat columns, shared by the
  sliding-window estimators' scalar steps and columnar kernels and by the
  exact sliding scope.
* :class:`~repro.structures.monotonic_deque.MonotonicDeque` — exact sliding
  window extrema in amortised O(1), the baseline for the paper's
  interval-based approximate extrema tracker.
* :class:`~repro.structures.intervals.IntervalExtremaTracker` — the paper's
  Section 4.1.1 strategy: partition the sliding window into fixed-length
  intervals, keep a local extremum per interval.
* :class:`~repro.structures.exact_sum.ExactSum` — exact running sum of a
  float multiset under insert/remove (Shewchuk partials), the sliding-AVG
  oracle's window sum.
* :class:`~repro.structures.welford.RunningMoments` — numerically stable
  running mean/variance (Welford), the basis of the CLT focus interval.
"""

from repro.structures.column_ring import ColumnRing
from repro.structures.exact_sum import ExactSum
from repro.structures.fenwick import FenwickTree, OrderStatisticsIndex
from repro.structures.gk_quantiles import GKQuantileSummary
from repro.structures.intervals import IntervalExtremaTracker
from repro.structures.monotonic_deque import MonotonicDeque
from repro.structures.time_intervals import TimeIntervalExtremaTracker
from repro.structures.welford import RunningMoments

__all__ = [
    "ColumnRing",
    "ExactSum",
    "FenwickTree",
    "GKQuantileSummary",
    "OrderStatisticsIndex",
    "IntervalExtremaTracker",
    "MonotonicDeque",
    "TimeIntervalExtremaTracker",
    "RunningMoments",
]
