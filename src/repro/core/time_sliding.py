"""Correlated aggregates over *time-based* sliding windows.

The paper's motivating examples scope their aggregates by time ("number of
international calls **over the last two months** longer than 10 minutes",
"within 10% of the longest call **with respect to the last two weeks**"),
while its algorithms and evaluation use tuple-count windows.  This module
closes that gap: :class:`TimeSlidingEstimator` runs the same focused-
histogram machinery over a trailing *duration* of stream time, where an
arrival may expire zero, one, or thousands of old tuples at once.

Differences from the count-window estimators:

* the window is a :class:`~repro.structures.column_ring.ClockedRing`, the
  count windows' column ring expiring by clock and growing with whatever
  the arrival rate puts inside one window;
* extrema and window-min/max come from time-sliced local-extrema trackers
  (:class:`~repro.structures.time_intervals.TimeIntervalExtremaTracker`);
* the AVG focus half-width uses ``sigma_hat / sqrt(n_live)`` with the
  *live* tuple count, since the window population varies;
* warm-up ends with a uniform rebuild once the window holds ``m`` tuples;
* both independents share one estimator class: the summary is always
  ``left tail + fine focus buckets + right tail`` and the answer is the
  band mass for the query's qualifying interval.

The rest — expiry, the step, warmup answers and rebuilds — is
:class:`~repro.core.focused.RingWindowMixin`'s, and the summary shape
:class:`~repro.core.focused.TwoTailSummaryMixin`'s.  ``update(time,
record)`` sets the ring's clock and runs the kernel's ``update``; batches
take ``update_columns(xs, ys, times=...)``.
"""

from __future__ import annotations

import math

from repro.core.focused import (
    STRATEGIES,
    FocusedEstimatorBase,
    RingWindowMixin,
    TwoTailSummaryMixin,
)
from repro.core.query import CorrelatedQuery
from repro.exceptions import ConfigurationError, StreamError
from repro.histograms.partition import uniform_boundaries
from repro.obs.sink import ObsSink
from repro.obs.trace import Tracer
from repro.streams.model import Record, ensure_finite
from repro.structures.column_ring import ClockedRing
from repro.structures.time_intervals import TimeIntervalExtremaTracker
from repro.structures.welford import RunningMoments

__all__ = ["TimeSlidingEstimator", "STRATEGIES"]


class TimeSlidingEstimator(RingWindowMixin, TwoTailSummaryMixin, FocusedEstimatorBase):
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
    #: No warmup buffer (the ring plays that role; its gauge is ``live``) …
    _warmup_gauge = False
    _ring_gauge = "live"
    #: … and every row carries a timestamp.
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
        self._ring = ClockedRing(duration)
        self._init_kernel(query, num_buckets, strategy, policy, 32, sink, tracer)
        if k_std <= 0:
            raise ConfigurationError(f"k_std must be positive, got {k_std}")
        if rebuild_period < 0:
            raise ConfigurationError(f"rebuild_period must be >= 0, got {rebuild_period}")
        self._k = k_std
        self._drift_tolerance = drift_tolerance
        self._rebuild_period = rebuild_period
        self._min_tracker = TimeIntervalExtremaTracker(duration, num_intervals, "min")
        self._max_tracker = TimeIntervalExtremaTracker(duration, num_intervals, "max")
        self._moments = RunningMoments()
        self._init_two_tails()
        self._buffer = []  # the kernel's warm-up flag; the ring holds the rows

    # ------------------------------------------------------------ plumbing

    @property
    def duration(self) -> float:
        return self._ring.duration

    @property
    def live_count(self) -> int:
        """Number of tuples currently inside the time window."""
        return len(self._ring)

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
            n_live = max(len(self._ring), 1)
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

    # --------------------------------------------------------------- steps

    def update(self, time: float, record: Record) -> float:  # type: ignore[override]
        """Consume the tuple at ``time`` (non-decreasing); return the estimate.

        Every tuple with a time at or before ``time - duration`` expires.
        """
        return super().update(self._tick(time, record))

    def _absorb_timed(self, time: float, record: Record) -> None:
        self._absorb(self._tick(time, record))

    def _tick(self, time: float, record: Record) -> Record:
        """Validate the row, then set the window's clock to ``time``."""
        record = record if isinstance(record, Record) else Record(*record)
        ensure_finite(record)
        self._ring.tick(time)
        return record

    def _push_trackers(self, record: Record) -> None:
        now = self._ring.now
        self._min_tracker.push(now, record.x)
        self._max_tracker.push(now, record.x)
        if self._query.independent == "avg":
            self._moments.push(record.x)

    def _forget(self, rows) -> None:
        if self._query.independent != "avg":
            return
        for x, _, _ in rows:
            self._moments.remove(x)
        if len(rows) >= len(self._ring):
            # A bulk expiry (gap or burst) removed at least as many tuples
            # as remain: recompute the moments exactly from the survivors,
            # clearing the reverse-Welford residue that would otherwise
            # dominate a small window.
            self._moments = RunningMoments()
            for x in self._ring.x_values():
                self._moments.push(x)

    def _warmup_step(self, record: Record) -> None:
        # Build once the window holds m tuples: a uniform rebuild routes
        # the whole live window, the new arrival included.
        if len(self._ring) >= self._m:
            self._rebuild_from_window(*self._target_interval(), reason="warmup")
            self._buffer = None
