"""Sliding-window correlated aggregates with AVG as the independent
aggregate (paper Section 4.1.3).

    "The algorithms are basically the same as the landmark window versions,
    except that the confidence interval does not shrink.  Instead, it stays
    constant at [mu - sigma/sqrt(w), mu + sigma/sqrt(w)], where w is the
    size of the sliding window."

Differences from the landmark estimator:

* the running moments support removal (reverse Welford) so the window mean
  and deviation are exact over the live window;
* the focus half-width uses ``sqrt(w)`` — it never converges, so the
  region keeps moving with the windowed mean indefinitely;
* window min/max (the tail-bucket spans) are approximated with the
  interval-based extrema trackers, since exact sliding extrema are not
  maintainable in constant space;
* every step deletes the expiring tuple from the bucket currently covering
  its value (paper Figure 11's delete step).

Structurally this class is the landmark-AVG estimator plus the ring
window: :class:`~repro.core.focused.RingWindowMixin` contributes the
side-routed expiry and periodic from-window rebuilds,
:class:`~repro.core.focused.TwoTailSummaryMixin` the tail exchange and
band-mass answers.  Only the window-scaled CLT target, the removable
moments/trackers, and the wholesale exact-drift trigger live here.
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
from repro.exceptions import ConfigurationError
from repro.histograms.partition import normal_quantile_boundaries
from repro.obs.sink import ObsSink
from repro.obs.trace import Tracer
from repro.streams.model import Record
from repro.structures.intervals import IntervalExtremaTracker
from repro.structures.welford import RunningMoments

__all__ = ["SlidingAvgEstimator", "STRATEGIES"]


class SlidingAvgEstimator(RingWindowMixin, TwoTailSummaryMixin, FocusedEstimatorBase):
    """Single-pass estimator for ``AGG-D{y : x > AVG(x)}`` over a sliding window.

    Parameters
    ----------
    query:
        A :class:`~repro.core.query.CorrelatedQuery` with
        ``independent='avg'`` and a sliding ``window``.
    num_buckets:
        Total bucket budget ``m``; two are the tails, ``m - 2`` cover the
        focus interval (require ``m >= 4``).
    strategy, policy:
        As in :class:`~repro.core.landmark_avg.LandmarkAvgEstimator`.
    k_std:
        Confidence half-width in units of ``sigma_hat / sqrt(w)``.
    num_intervals:
        Local-extrema intervals for the window min/max trackers.
    drift_tolerance:
        Reallocation trigger (both strategies), as a fraction of the mean
        focus bucket width.
    swap_period:
        Quantile-policy merge/split maintenance cadence (insertions).
    rebuild_period:
        Re-sort the summary from the live window every this many tuples;
        bounds how long mass classified under an old region can sit on the
        wrong side of a drifting mean.  Costs O(w) per rebuild —
        O(w / period) amortised per tuple.  ``None`` (default) selects
        ``max(window // 10, num_buckets)``; 0 disables periodic rebuilds
        (regime-change rebuilds still apply).
    sink:
        Optional :class:`~repro.obs.sink.ObsSink` receiving lifecycle
        events (``hist.build``, ``hist.rebuild``, ``region.shift``,
        ``window.expire``, ``realloc.*``, ``hist.swap``).
    """

    def __init__(
        self,
        query: CorrelatedQuery,
        num_buckets: int = 10,
        strategy: str = "piecemeal",
        policy: str = "uniform",
        k_std: float = 3.0,
        num_intervals: int = 10,
        drift_tolerance: float = 0.3,
        swap_period: int = 32,
        rebuild_period: int | None = None,
        sink: ObsSink | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if query.independent != "avg":
            raise ConfigurationError(
                f"SlidingAvgEstimator needs an avg query, got {query.independent!r}"
            )
        if not query.is_sliding:
            raise ConfigurationError("query has a landmark scope; use LandmarkAvgEstimator")
        self._init_kernel(query, num_buckets, strategy, policy, swap_period, sink, tracer)
        window = query.window
        assert window is not None
        self._init_ring(window, num_buckets, num_intervals, rebuild_period)
        if k_std <= 0:
            raise ConfigurationError(f"k_std must be positive, got {k_std}")
        self._k = k_std
        self._drift_tolerance = drift_tolerance
        self._moments = RunningMoments()
        self._min_tracker = IntervalExtremaTracker(window, num_intervals, mode="min")
        self._max_tracker = IntervalExtremaTracker(window, num_intervals, mode="max")
        self._init_two_tails()

    @property
    def mean(self) -> float:
        """The exact mean of the live window."""
        return self._moments.mean

    def _independent_value(self) -> float:
        return self._moments.mean

    def _span(self) -> tuple[float, float]:
        """Approximate window min/max (tail spans) from the trackers."""
        return (self._min_tracker.extremum(), self._max_tracker.extremum())

    def _push_trackers(self, record: Record) -> None:
        self._moments.push(record.x)
        self._min_tracker.push(record.x)
        self._max_tracker.push(record.x)

    def _forget(self, rows) -> None:
        self._moments.remove(rows[0][0])  # a count ring evicts one row

    def _target_interval(self) -> tuple[float, float]:
        # The confidence interval does not shrink: sqrt(w), not sqrt(n).
        return self._clt_interval(self._k * self._moments.std / math.sqrt(self._window))

    def _quantile_edges(self, lo: float, hi: float) -> list[float]:
        scale = self._moments.std / math.sqrt(self._window)
        return normal_quantile_boundaries(self._moments.mean, scale, self._inner_m, lo, hi)

    def _should_reallocate(self, lo: float, hi: float) -> bool:
        assert self._inner is not None
        if self._strategy == "wholesale":
            # Wholesale re-partitions from scratch anyway; track the
            # window-scaled target exactly whenever it moves at all.
            return lo != self._inner.low or hi != self._inner.high
        return super()._should_reallocate(lo, hi)
