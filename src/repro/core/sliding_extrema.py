"""Sliding-window correlated aggregates with an extrema independent
(paper Section 4.1.2).

Over a sliding window extrema are *not* monotone: the window minimum can
rise when the old minimum expires.  Two consequences drive the design:

1. The independent aggregate itself must be approximated.  The window is
   partitioned into fixed-length intervals with a local extremum each
   (:class:`~repro.structures.intervals.IntervalExtremaTracker`); when the
   global extremum departs, the remaining local extrema take over.
2. The focus region must be wider than the landmark region, because the
   minimum may move *up*.  The paper places buckets at
   ``(min, ..., (1+eps) * maxmin, max)`` where ``maxmin`` is the maximum of
   the local minima — the highest place the tracked minimum can move to
   before an entire interval expires.  The band ``[min, (1+eps)*maxmin]``
   gets the fine buckets; one catch-all bucket covers the rest up to the
   window maximum.

Each step both inserts the arriving tuple and deletes the expiring one
(paper Figure 11); deletions are routed to the bucket currently covering
the expired value, which is the accepted approximation when boundaries have
moved since insertion.

The window plumbing (side-routed expiry, periodic rebuilds, reseeding)
comes from :class:`~repro.core.focused.RingWindowMixin` and the
reallocation step from the kernel; unlike the AVG estimators this class
keeps a *single* catch-all tail, so it carries its own routing, spill
hook (with the clamp-back conservation), and ``estimate_leq``/
``estimate_geq`` answer path.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np

from repro.core.focused import (
    INNER,
    SIDE_NAMES,
    STRATEGIES,
    TAIL,
    FocusedEstimatorBase,
    RingWindowMixin,
    bucket_index,
    pull_share,
)
from repro.core.query import CorrelatedQuery
from repro.exceptions import ConfigurationError, StreamError
from repro.histograms.bucket import ZERO_MASS, Mass
from repro.histograms.partition import quantile_boundaries_from_values
from repro.obs.sink import ObsSink
from repro.obs.trace import Tracer
from repro.streams.model import Record
from repro.structures.intervals import IntervalExtremaTracker

__all__ = ["SlidingExtremaEstimator", "STRATEGIES"]


class SlidingExtremaEstimator(RingWindowMixin, FocusedEstimatorBase):
    """Single-pass estimator for extrema-band aggregates over a sliding window.

    Parameters
    ----------
    query:
        A :class:`~repro.core.query.CorrelatedQuery` with ``independent``
        ``'min'`` or ``'max'`` and a sliding ``window``.
    num_buckets:
        Bucket budget ``m``; one bucket is the catch-all to the far
        extremum, the remaining ``m - 1`` cover the focus band.
    strategy, policy:
        Reallocation strategy and partitioning policy, as in the landmark
        estimators.
    num_intervals:
        Number of local-extrema intervals the window is split into.
    drift_tolerance:
        Deadband on the reallocation trigger, as a fraction of the mean
        focus bucket width: reallocate when the tracked extremum has moved
        further than this from the region's active edge (0 = any change,
        the paper's literal condition_2).
    swap_period:
        Quantile-policy merge/split maintenance cadence (insertions).
    rebuild_period:
        Re-sort the summary from the live window every this many tuples;
        bounds how long mass classified under an old region can sit in the
        wrong account while the region drifts.  O(w / period) amortised per
        tuple.  Default 0 — disabled: extrema-triggered reallocation keeps
        the focus aligned with the monotone active edge, and periodic
        uniform re-sorts would erase the strategy/policy differences the
        estimator exists to study (near-disjoint-jump rebuilds still
        apply).
    sink:
        Optional :class:`~repro.obs.sink.ObsSink` receiving lifecycle
        events (``hist.build``, ``hist.rebuild``, ``region.shift``,
        ``window.expire``, ``realloc.*``, ``hist.swap``).
    """

    _reserved = 1
    _min_buckets = 3
    _min_buckets_hint = " (catch-all + >= 2 focus)"

    def __init__(
        self,
        query: CorrelatedQuery,
        num_buckets: int = 10,
        strategy: str = "piecemeal",
        policy: str = "uniform",
        num_intervals: int = 10,
        drift_tolerance: float = 0.0,
        swap_period: int = 32,
        rebuild_period: int | None = 0,
        sink: ObsSink | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if query.independent not in ("min", "max"):
            raise ConfigurationError(
                f"SlidingExtremaEstimator needs a min/max query, got {query.independent!r}"
            )
        if not query.is_sliding:
            raise ConfigurationError(
                "query has a landmark scope; use LandmarkExtremaEstimator"
            )
        self._init_kernel(query, num_buckets, strategy, policy, swap_period, sink, tracer)
        window = query.window
        assert window is not None
        self._init_ring(window, num_buckets, num_intervals, rebuild_period)
        self._mode = query.independent
        self._drift_tolerance = drift_tolerance
        self._tracked = IntervalExtremaTracker(window, num_intervals, mode=self._mode)
        opposite = "max" if self._mode == "min" else "min"
        self._opposite = IntervalExtremaTracker(window, num_intervals, mode=opposite)
        self._tail = ZERO_MASS

    # ------------------------------------------------------------ plumbing

    @property
    def extremum_estimate(self) -> float:
        """The interval tracker's estimate of the window extremum."""
        return self._tracked.extremum()

    def _independent_value(self) -> float:
        return self._tracked.extremum()

    def _push_trackers(self, record: Record) -> None:
        self._tracked.push(record.x)
        self._opposite.push(record.x)

    def _target_interval(self) -> tuple[float, float]:
        extremum = self._tracked.extremum()
        if extremum < 0.0:
            raise StreamError(
                "extrema focus regions require non-negative x values: "
                f"(1+eps) scaling of {extremum} flips the region"
            )
        worst = self._tracked.worst_local()
        if self._mode == "min":
            lo = extremum
            hi = self._query.threshold(worst)  # (1+eps) * maxmin
        else:
            lo = self._query.threshold(worst)  # minmax / (1+eps)
            hi = extremum
        if hi <= lo:
            hi = lo + max(abs(lo) * 1e-9, 1e-12)
        return (lo, hi)

    def _quantile_edges(self, lo: float, hi: float) -> list[float]:
        # The live window: at the first build it holds exactly the warmup
        # records (warmup is shorter than the window).
        return quantile_boundaries_from_values(self._ring.x_values(), self._inner_m, lo, hi)

    # -------------------------------------------------------- steady state

    def _in_focus(self, x: float) -> bool:
        assert self._inner is not None
        if self._mode == "min":
            return x <= self._inner.high
        return x >= self._inner.low

    def _route_add(self, x: float, y: float) -> int:
        assert self._inner is not None
        if self._in_focus(x):
            self._inner.add(min(max(x, self._inner.low), self._inner.high), y)
            self._after_add()
            return INNER
        self._tail += Mass(1.0, y)
        return TAIL

    def _route_remove(self, x: float, y: float, side: int) -> None:
        """Expire a record from the account its mass was credited to."""
        assert self._inner is not None
        if side == INNER:
            self._inner.remove(x, y)
        else:
            self._tail = Mass(self._tail.count - 1.0, self._tail.weight - y)

    def _reset_tails(self) -> None:
        self._tail = ZERO_MASS

    def _should_reallocate(self, lo: float, hi: float) -> bool:
        # The paper's condition: reallocate when the *extremum* (the active
        # edge of the region) changes — not when `maxmin` jitters.  maxmin
        # moves with every interval turnover; reallocating on that jitter
        # would re-interpolate all mass hundreds of times per window and
        # diffuse it into the catch-all (a ratchet: each shrink cuts real
        # mass out, each expansion pulls only a uniform-assumption trickle
        # back).  The far boundary is refreshed whenever a reallocation
        # does run, and a safety trigger fires if the query threshold ever
        # escapes the finely bucketed region.
        assert self._inner is not None
        bucket_width = (self._inner.high - self._inner.low) / self._inner_m
        deadband = self._drift_tolerance * bucket_width
        threshold = self._query.threshold(self._tracked.extremum())
        if self._mode == "min":
            return abs(lo - self._inner.low) > deadband or threshold > self._inner.high
        return abs(hi - self._inner.high) > deadband or threshold < self._inner.low

    # --------------------------------------------------- columnar kernel

    def _columns_supported(self, collect: str) -> bool:
        # collect="all" would need a per-record estimate_leq interpolation,
        # so it stays on the scalar loop.  Tracing opens spans only at
        # boundary records; window.expire events are emitted per segment.
        return collect != "all"

    def _column_trace(self, xs, ys, limit: int):
        """Window trace: both interval trackers' replays.

        One :meth:`IntervalExtremaTracker.replay` per tracker records the
        chunk's interval turnovers, from which the boundary syncs load
        either tracker's exact state; the tracked one also yields the
        per-record ``extremum()``/``worst_local()`` trace.  The window
        itself needs no trace: each segment is pushed into the live ring
        as it is scattered (:meth:`_column_evict`), and each boundary
        record through the scalar step, so the ring is always current.
        A negative extremum pulls the limit in: ``_target_interval``
        raises there.
        """
        mode_min = self._mode == "min"
        xl = xs.tolist()
        tracked = self._tracked.replay(xl)
        opposite = self._opposite.replay(xl)
        ext_a, worst_a = self._tracked.replay_extrema(tracked)
        one_eps = 1.0 + self._query.epsilon
        # _target_interval, op for op.  Entries at/past the non-finite cut
        # are never read, so their NaN arithmetic warnings are noise.
        with np.errstate(invalid="ignore", over="ignore"):
            if mode_min:
                lo_a = ext_a
                hi_raw = one_eps * worst_a
            else:
                lo_a = worst_a / one_eps
                hi_raw = ext_a
            hi_a = np.where(
                hi_raw <= lo_a, lo_a + np.maximum(np.abs(lo_a) * 1e-9, 1e-12), hi_raw
            )
        neg = ext_a[:limit] < 0.0
        if neg.any():
            limit = int(np.argmax(neg))
        trace = SimpleNamespace(
            ext=ext_a, lo=lo_a, hi=hi_a, one_eps=one_eps, xs=xs, ys=ys,
            tracked=tracked, opposite=opposite,
        )
        return trace, limit

    def _column_horizon(self, pos: int, limit: int) -> int:
        # The periodic-rebuild countdown runs out on a fixed record.
        if not self._rebuild_period:
            return limit
        return min(limit, pos + max(self._rebuild_period - self._steps_since_rebuild - 1, 0))

    def _column_triggers(self, trace, lo: int, hi: int):
        # _should_reallocate against the live focus region.
        inner = self._inner
        assert inner is not None
        il, ih = inner.low, inner.high
        deadband = self._drift_tolerance * ((ih - il) / self._inner_m)
        ext = trace.ext[lo:hi]
        if self._mode == "min":
            return (np.abs(trace.lo[lo:hi] - il) > deadband) | (trace.one_eps * ext > ih)
        return (np.abs(trace.hi[lo:hi] - ih) > deadband) | (ext / trace.one_eps < il)

    def _column_route(self, sx):
        # _in_focus; everything else goes to the catch-all, account m.
        inner = self._inner
        assert inner is not None
        fine = (sx <= inner.high) if self._mode == "min" else (sx >= inner.low)
        return fine, inner.num_buckets

    @property
    def _column_coarse(self) -> tuple[Mass]:
        return (self._tail,)

    @_column_coarse.setter
    def _column_coarse(self, masses) -> None:
        (self._tail,) = masses

    def _column_evict(self, trace, lo: int, hi: int, fine, edges):
        # Push the segment into the live ring with its sides, advance the
        # rebuild countdown, and remove each evicted row from the account
        # its side names — all before the scatter, which applies each
        # removal ahead of its record's add, as _step does.
        self._steps_since_rebuild += hi - lo
        ex, ey, sides = self._ring.push_columns(trace.xs[lo:hi], trace.ys[lo:hi], ~fine)
        if not len(ex):
            return None
        index = np.where(sides == INNER, bucket_index(edges, ex), len(edges) - 1)
        weight = -ey
        first = hi - lo - len(ex)
        if first:  # records pushed into a filling ring evict nothing
            index = np.concatenate((np.full(first, -1), index))
            weight = np.concatenate((np.zeros(first), weight))
        if self._obs.enabled:
            for side in sides.tolist():
                self._obs.emit("window.expire", count=1.0, side=SIDE_NAMES[side])
        return index, weight

    def _sync_trace(self, trace, upto: int) -> None:
        self._tracked.restore(trace.tracked, upto)
        self._opposite.restore(trace.opposite, upto)

    def _drift(self, lo: float, hi: float, old_lo: float, old_hi: float) -> float:
        # Threshold drift: movement of the region's active edge.
        return abs(lo - old_lo) if self._mode == "min" else abs(hi - old_hi)

    def _spill(self, new_inner, spill_low: Mass, spill_high: Mass, region, old_region) -> None:
        # Spill beyond the far edge joins the catch-all.  Spill past the
        # (rising) extremum belongs to live tuples whose mass interpolation
        # smeared outward: clamp it back into the end bucket so total mass
        # is conserved (expiring tuples subtract it again via the clamped
        # delete).  Where the focus grew into the catch-all — which spans
        # from the old far edge to the opposite extremum — pull its share.
        (lo, hi), (old_lo, old_hi) = region, old_region
        far = self._opposite.extremum()
        if self._mode == "min":
            self._tail += spill_high
            if spill_low.count != 0.0 or spill_low.weight != 0.0:
                new_inner.add_mass(0, spill_low)
            if hi > old_hi:
                span = max(far, old_hi) - old_hi
                self._tail = pull_share(self._tail, new_inner, old_hi, hi, span)
        else:
            self._tail += spill_low
            if spill_high.count != 0.0 or spill_high.weight != 0.0:
                new_inner.add_mass(new_inner.num_buckets - 1, spill_high)
            if lo < old_lo:
                span = old_lo - min(far, old_lo)
                self._tail = pull_share(self._tail, new_inner, lo, old_lo, span)

    def _extra_gauges(self) -> dict[str, float]:
        gauges = super()._extra_gauges()
        gauges["tail_count"] = self._tail.count
        return gauges

    # -------------------------------------------------------------- answer

    def estimate(self) -> float:
        """Estimated dependent aggregate over the current window."""
        if self._buffer is not None:
            return self._estimate_warmup()

        assert self._inner is not None
        threshold = self._query.threshold(self._tracked.extremum())
        if self._mode == "min":
            mass = self._inner.estimate_leq(min(threshold, self._inner.high))
        else:
            mass = self._inner.estimate_geq(max(threshold, self._inner.low))
        mass = mass.clamped()
        return self._query.value_from(mass.count, mass.weight)

    def _bounds_from_summary(self) -> tuple[float, float]:
        # Whole-bucket bounds on the focus mass (the catch-all never
        # qualifies: it sits entirely beyond the threshold by
        # construction).  Over a sliding window these bracket the
        # *summary's* mass — deletion approximation included — not a
        # guaranteed envelope of the exact answer.
        assert self._inner is not None
        threshold = self._query.threshold(self._tracked.extremum())
        if self._mode == "min":
            clipped = min(threshold, self._inner.high)
            lower = self._inner.bound_leq(clipped, upper=False)
            upper = self._inner.bound_leq(clipped, upper=True)
        else:
            clipped = max(threshold, self._inner.low)
            total = self._inner.total()
            below_hi = self._inner.bound_leq(clipped, upper=True)
            below_lo = self._inner.bound_leq(clipped, upper=False)
            lower = Mass(total.count - below_hi.count, total.weight - below_hi.weight)
            upper = Mass(total.count - below_lo.count, total.weight - below_lo.weight)
        lower = lower.clamped()
        upper = upper.clamped()
        return (
            self._query.value_from(lower.count, lower.weight),
            self._query.value_from(upper.count, upper.weight),
        )
