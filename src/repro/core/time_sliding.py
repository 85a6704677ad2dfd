"""Correlated aggregates over *time-based* sliding windows.

The paper's motivating examples scope their aggregates by time ("number of
international calls **over the last two months** longer than 10 minutes",
"within 10% of the longest call **with respect to the last two weeks**"),
while its algorithms and evaluation use tuple-count windows.  This module
closes that gap: :class:`TimeSlidingEstimator` runs the same focused-
histogram machinery over a trailing *duration* of stream time, where an
arrival may expire zero, one, or thousands of old tuples at once.

Differences from the count-window estimators:

* the expiry buffer is a deque drained by timestamp (variable length —
  bounded by whatever the arrival rate puts inside one window, which is
  the inherent cost of deletion support, exactly as in the count case);
* extrema and window-min/max come from time-sliced local-extrema trackers
  (:class:`~repro.structures.time_intervals.TimeIntervalExtremaTracker`);
* the AVG focus half-width uses ``sigma_hat / sqrt(n_live)`` with the
  *live* tuple count, since the window population varies;
* both independents share one estimator class: the summary is always
  ``left tail + fine focus buckets + right tail`` and the answer is the
  band mass for the query's qualifying interval.

The summary shape, routing, spill and answers come from
:class:`~repro.core.focused.TwoTailSummaryMixin` and the reallocation
step from the kernel; the timestamped drain replaces the kernel's
warmup/ring plumbing, so this class keeps its own ``update(time,
record)`` entry point.  Batches go through the shared
loop as ``update_columns(xs, ys, times=...)``: the time axis is one more
input column, and the class supplies only the per-row step
(:meth:`_absorb_timed`).
"""

from __future__ import annotations

import math
from collections import deque

from repro.core.focused import STRATEGIES, FocusedEstimatorBase, TwoTailSummaryMixin
from repro.core.query import CorrelatedQuery
from repro.exceptions import ConfigurationError, StreamError
from repro.histograms.partition import uniform_boundaries
from repro.obs.sink import ObsSink
from repro.obs.trace import Tracer
from repro.streams.model import Record, ensure_finite
from repro.structures.time_intervals import TimeIntervalExtremaTracker
from repro.structures.welford import RunningMoments

__all__ = ["TimeSlidingEstimator", "STRATEGIES"]


class TimeSlidingEstimator(TwoTailSummaryMixin, FocusedEstimatorBase):
    """Single-pass correlated-aggregate estimator over a trailing duration.

    Parameters
    ----------
    query:
        A :class:`~repro.core.query.CorrelatedQuery` with ``window=None``
        (the time window replaces the tuple window; passing both is an
        error).
    duration:
        Window length in stream-time units.
    num_buckets:
        Bucket budget ``m`` (two coarse tails + ``m - 2`` focus buckets).
    strategy, policy:
        Reallocation strategy and partitioning policy.
    k_std:
        AVG focus half-width in standard errors of the live window mean.
    num_intervals:
        Time slices for the extrema trackers.
    drift_tolerance:
        Reallocation deadband, as a fraction of the mean focus bucket width.
    rebuild_period:
        Re-sort from the live window every this many *tuples* (0 disables;
        regime-change rebuilds always apply).
    sink:
        Optional :class:`~repro.obs.sink.ObsSink` receiving lifecycle
        events (``hist.rebuild``, ``region.shift``, ``window.expire``,
        ``realloc.*``).

    Use :meth:`update` with an explicit timestamp::

        estimator.update(time=call.time, record=Record(call.duration))
    """

    #: No merge/split swaps: rebuilds are always uniform over the live
    #: window, so quantile maintenance would fight the periodic re-sort.
    _swap_enabled = False
    #: No warmup buffer (the live deque plays that role) …
    _warmup_gauge = False
    #: … and every row carries a timestamp: ``update(time, record)``,
    #: ``update_columns(..., times=)``.
    _timestamped = True

    def __init__(
        self,
        query: CorrelatedQuery,
        duration: float,
        num_buckets: int = 10,
        strategy: str = "piecemeal",
        policy: str = "uniform",
        k_std: float = 3.0,
        num_intervals: int = 10,
        drift_tolerance: float = 0.3,
        rebuild_period: int = 64,
        sink: ObsSink | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if query.is_sliding:
            raise ConfigurationError(
                "pass the time window via duration=; the query's tuple window "
                "must be None"
            )
        if duration <= 0.0:
            raise ConfigurationError(f"duration must be positive, got {duration}")
        self._init_kernel(query, num_buckets, strategy, policy, 32, sink, tracer)
        if k_std <= 0:
            raise ConfigurationError(f"k_std must be positive, got {k_std}")
        if rebuild_period < 0:
            raise ConfigurationError(f"rebuild_period must be >= 0, got {rebuild_period}")
        self._duration = duration
        self._k = k_std
        self._drift_tolerance = drift_tolerance
        self._rebuild_period = rebuild_period
        self._min_tracker = TimeIntervalExtremaTracker(duration, num_intervals, "min")
        self._max_tracker = TimeIntervalExtremaTracker(duration, num_intervals, "max")
        self._moments = RunningMoments()
        # Cells are [time, record, side]; drained from the left by time.
        self._live: deque[list] = deque()
        self._last_time: float | None = None
        self._init_two_tails()
        self._warmup_target = num_buckets
        # Warm-up here is "too few live tuples", not a buffered prefix:
        # the kernel's warmup flag stays off and `_inner is None` gates.
        self._buffer = None

    # ------------------------------------------------------------ plumbing

    @property
    def duration(self) -> float:
        return self._duration

    @property
    def live_count(self) -> int:
        """Number of tuples currently inside the time window."""
        return len(self._live)

    def _independent_value(self) -> float:
        if self._query.independent == "min":
            return self._min_tracker.extremum()
        if self._query.independent == "max":
            return self._max_tracker.extremum()
        return self._moments.mean

    def _span(self) -> tuple[float, float]:
        return (self._min_tracker.extremum(), self._max_tracker.extremum())

    def _target_interval(self) -> tuple[float, float]:
        xmin, xmax = self._span()
        independent = self._query.independent
        if independent in ("min", "max"):
            extremum = self._independent_value()
            if extremum < 0.0:
                raise StreamError(
                    "extrema focus regions require non-negative x values: "
                    f"(1+eps) scaling of {extremum} flips the region"
                )
            if independent == "min":
                lo = extremum
                hi = self._query.threshold(self._min_tracker.worst_local())
            else:
                lo = self._query.threshold(self._max_tracker.worst_local())
                hi = extremum
        else:
            mu = self._moments.mean
            n_live = max(len(self._live), 1)
            half = self._k * self._moments.std / math.sqrt(n_live)
            if self._query.two_sided:
                half += self._query.epsilon
            if half <= 0.0:
                half = max(abs(mu) * 1e-9, 1e-12)
            lo = max(mu - half, xmin)
            hi = min(mu + half, xmax)
        if hi <= lo:
            span = max(abs(lo) * 1e-9, 1e-12)
            hi = lo + 2.0 * span
        return (lo, hi)

    # -------------------------------------------------------- reallocation

    # No fitted-normal edges here: wholesale repartitions by its own
    # policy (quantile included) from the live bucket contents.
    _wholesale_partition = FocusedEstimatorBase._wholesale_partition

    def _rebuild_edges(self, lo: float, hi: float) -> list[float]:
        # Rebuilds are always uniform: the live window is re-routed through
        # fresh buckets, and there is no buffered value list to fit.
        return uniform_boundaries(lo, hi, self._inner_m)

    def _population(self) -> float:
        return float(len(self._live))

    def _reseed_from_window(self) -> None:
        for cell in self._live:
            cell[2] = self._route_add(cell[1].x, cell[1].y)

    # --------------------------------------------------------------- steps

    def _expire(self, now: float) -> None:
        cutoff = now - self._duration
        removed = 0
        while self._live and self._live[0][0] <= cutoff:
            _, record, side = self._live.popleft()
            removed += 1
            if self._query.independent == "avg":
                self._moments.remove(record.x)
            if self._inner is not None:
                self._route_remove(record.x, record.y, side)
        if (
            removed >= len(self._live)
            and removed > 0
            and self._query.independent == "avg"
        ):
            # A bulk expiry (gap or burst) removed at least as many tuples
            # as remain: recompute the moments exactly from the survivors,
            # clearing the reverse-Welford floating-point residue that
            # would otherwise dominate a small window.
            self._moments = RunningMoments()
            for _, record, _ in self._live:
                self._moments.push(record.x)
        if removed > 0 and self._obs.enabled:
            self._obs.emit("window.expire", count=float(removed))

    def update(self, time: float, record: Record) -> float:
        """Consume one timestamped tuple; return the current estimate.

        ``time`` must be non-decreasing; every tuple older than
        ``time - duration`` expires before the new one is placed.
        """
        self._absorb_timed(time, record)
        return self.estimate()

    def _absorb_timed(self, time: float, record: Record) -> None:
        """The timestamped step without the estimate: validate, place, expire."""
        record = record if isinstance(record, Record) else Record(*record)
        ensure_finite(record)
        if not math.isfinite(time):
            raise StreamError(f"non-finite timestamp {time!r}")
        if self._last_time is not None and time < self._last_time:
            raise StreamError(
                f"timestamps must be non-decreasing: {time} after {self._last_time}"
            )
        self._last_time = time

        self._min_tracker.push(time, record.x)
        self._max_tracker.push(time, record.x)
        if self._query.independent == "avg":
            self._moments.push(record.x)
        cell: list = [time, record, None]
        self._live.append(cell)
        self._expire(time)

        if self._inner is None:
            if len(self._live) >= self._warmup_target:
                self._rebuild_from_window(*self._target_interval(), reason="warmup")
            return

        lo, hi = self._target_interval()
        self._steps_since_rebuild += 1
        if self._rebuild_period and self._steps_since_rebuild >= self._rebuild_period:
            self._rebuild_from_window(lo, hi, reason="periodic")
        elif self._should_reallocate(lo, hi):
            self._reallocate(lo, hi)
        if cell[2] is None:
            cell[2] = self._route_add(record.x, record.y)

    def _extra_gauges(self) -> dict[str, float]:
        gauges = super()._extra_gauges()
        gauges["live"] = float(len(self._live))
        return gauges

    # -------------------------------------------------------------- answer

    def estimate(self) -> float:
        """Estimated dependent aggregate over the trailing duration."""
        if not self._live:
            return 0.0
        return super().estimate()

    def _estimate_warmup(self) -> float:
        # Warm-up answers come from the live deque (exact), not a buffer.
        independent = self._independent_value()
        qualifying = [
            cell[1] for cell in self._live if self._query.qualifies(cell[1].x, independent)
        ]
        count = float(len(qualifying))
        weight = sum((r.y for r in qualifying), 0.0)
        return self._query.value_from(count, weight)
