"""Landmark-window correlated aggregates with an extrema independent
(paper Section 3.1.2).

The focus region for MIN is ``[a, b] = [min, (1+eps) * min]`` (for MAX,
``[max/(1+eps), max]``).  Landmark extrema are *monotonic*: the minimum only
falls, so ``b`` only falls, and any tuple above ``b`` can be discarded
forever — the estimator never spends buckets outside the region.  When a new
extremum arrives the region shifts and one of the paper's two conditions
fires:

* ``condition_1`` (new region disjoint from the old — for MIN,
  ``b' <= a``): **InitializeHistogram** — the histogram restarts empty over
  the new region; no approximation error is incurred because no retained
  tuple can qualify again.
* ``condition_2`` (region shifted but overlaps): **ReallocateHistogram** —
  wholesale or piecemeal reallocation onto the new region; mass truncated
  off the far end is discarded (monotonicity: it can never re-qualify), and
  the resulting approximation error is not cumulative.

During warm-up the estimator buffers in-region tuples exactly (the paper's
InitializeHistogram reads until m tuples survive the purges), so early
answers are exact.

This is the leanest subclass of the shared kernel
(:mod:`repro.core.focused`): no tails (every bucket is a focus bucket),
no drift deadband (the region moves only on a new extremum), and a
purge-as-you-go warmup.  Because the steady-state step is so small —
compare, maybe shift, add, total — it is also the kernel's hottest
columnar path: its trace is just the running prior extremum, so the
shared segment loop
(:meth:`~repro.core.focused.FocusedEstimatorBase._steady_columns`)
vectorises whole chunks and drops to the real scalar machinery only at
region shifts, quantile merge/split swaps and error boundaries.
"""

from __future__ import annotations

import numpy as np

from repro.core.focused import STRATEGIES, FocusedEstimatorBase
from repro.core.query import CorrelatedQuery
from repro.exceptions import ConfigurationError, StreamError
from repro.histograms.bucket import ZERO_MASS, BucketArray
from repro.histograms.mass import pour_uniform, span_is_exact
from repro.histograms.partition import (
    quantile_boundaries_from_values,
    uniform_boundaries,
)
from repro.obs.sink import ObsSink
from repro.obs.trace import Tracer
from repro.streams.model import Record

__all__ = ["LandmarkExtremaEstimator", "STRATEGIES"]


class LandmarkExtremaEstimator(FocusedEstimatorBase):
    """Single-pass estimator for ``AGG-D{y : x in extrema band}``, landmark scope.

    Parameters
    ----------
    query:
        A :class:`~repro.core.query.CorrelatedQuery` with ``independent``
        ``'min'`` or ``'max'`` and ``window=None``.
    num_buckets:
        Bucket budget ``m`` (the paper uses 5 and 10).
    strategy:
        ``'wholesale'`` or ``'piecemeal'`` reallocation.
    policy:
        ``'uniform'`` or ``'quantile'`` partitioning.
    swap_period:
        Under the quantile policy, attempt one merge/split swap every this
        many insertions (the paper's periodic rebalancing check).
    sink:
        Optional :class:`~repro.obs.sink.ObsSink` receiving lifecycle
        events (``hist.build``, ``hist.reinit``, ``region.shift``,
        ``realloc.*``, ``hist.swap``).
    """

    def __init__(
        self,
        query: CorrelatedQuery,
        num_buckets: int = 10,
        strategy: str = "piecemeal",
        policy: str = "uniform",
        swap_period: int = 32,
        sink: ObsSink | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if query.independent not in ("min", "max"):
            raise ConfigurationError(
                f"LandmarkExtremaEstimator needs a min/max query, got {query.independent!r}"
            )
        if query.is_sliding:
            raise ConfigurationError(
                "query has a sliding window; use SlidingExtremaEstimator"
            )
        self._init_kernel(query, num_buckets, strategy, policy, swap_period, sink, tracer)
        if swap_period < 1:
            raise ConfigurationError(f"swap_period must be >= 1, got {swap_period}")
        self._extremum: float | None = None
        self._region: tuple[float, float] | None = None

    # ------------------------------------------------------------ plumbing

    @property
    def extremum(self) -> float:
        """The exact independent aggregate (landmark extrema are monotone)."""
        if self._extremum is None:
            raise StreamError("extremum before any tuple was observed")
        return self._extremum

    @property
    def region(self) -> tuple[float, float]:
        """Current focus region ``[a, b]``."""
        if self._region is None:
            raise StreamError("region before any tuple was observed")
        return self._region

    def _independent_value(self) -> float:
        return self.extremum

    def _region_for(self, extremum: float) -> tuple[float, float]:
        if extremum < 0.0:
            raise StreamError(
                "extrema focus regions require non-negative x values: "
                f"(1+eps) scaling of {extremum} flips the region"
            )
        low = extremum if self._query.independent == "min" else self._query.threshold(extremum)
        high = self._query.threshold(extremum) if self._query.independent == "min" else extremum
        if high <= low:  # degenerate (extremum == 0): widen minimally
            high = low + max(abs(low) * 1e-9, 1e-12)
        return (low, high)

    def _is_new_extremum(self, x: float) -> bool:
        if self._extremum is None:
            return True
        if self._query.independent == "min":
            return x < self._extremum
        return x > self._extremum

    # ------------------------------------------------------------- warm-up

    def _warmup_step(self, record: Record) -> None:
        # The paper's InitializeHistogram reads until m tuples survive the
        # purges: a new extremum evicts the out-of-region prefix, and only
        # in-region tuples are admitted at all.
        assert self._buffer is not None
        if self._is_new_extremum(record.x):
            self._extremum = record.x
            self._region = self._region_for(record.x)
            low, high = self._region
            self._buffer = [r for r in self._buffer if low <= r.x <= high]
        low, high = self._region  # type: ignore[misc]
        if low <= record.x <= high:
            self._buffer.append(record)
        if len(self._buffer) >= self._m:
            self._build_histogram()

    def _build_interval(self) -> tuple[float, float]:
        assert self._region is not None
        return self._region

    def _quantile_edges(self, lo: float, hi: float) -> list[float]:
        assert self._buffer is not None
        return quantile_boundaries_from_values(
            [r.x for r in self._buffer], self._inner_m, lo, hi
        )

    def _seed_histogram(self) -> None:
        # Seed without swap maintenance: the quantile edges were just fit
        # to exactly these values.
        assert self._buffer is not None and self._inner is not None
        for record in self._buffer:
            self._inner.add(record.x, record.y)

    # -------------------------------------------------------- steady state

    def _shift_region(self, x: float) -> None:
        """A new extremum moves the region: the kernel's reallocation step."""
        region = self._region_for(x)
        self._reallocate(*region)
        self._extremum = x
        self._region = region

    def _focus_region(self) -> tuple[float, float]:
        # The region itself: after a truncation the histogram edges can
        # differ from it by a float.
        assert self._region is not None
        return self._region

    def _regime_break(self, lo: float, hi: float, old_lo: float, old_hi: float) -> bool:
        # condition_1: the new region is disjoint on the active side.
        if self._query.independent == "min":
            return hi <= old_lo
        return lo >= old_hi

    def _drift(self, lo: float, hi: float, old_lo: float, old_hi: float) -> float:
        # Threshold drift: how far the region's active edge moved.
        return old_lo - lo if self._query.independent == "min" else hi - old_hi

    def _restart(self, lo: float, hi: float) -> bool:
        # InitializeHistogram: restart empty over the new region; no
        # retained tuple can qualify again.  condition_2's far-side spill
        # is discarded by the kernel's default spill hook.
        self._inner = BucketArray(uniform_boundaries(lo, hi, self._m))
        if self._obs.enabled:
            self._obs.emit("hist.reinit", low=lo, high=hi)
        return True

    def _step(self, record: Record, carrier: object) -> None:
        assert self._region is not None and self._inner is not None
        low, high = self._region
        if self._is_new_extremum(record.x):
            self._shift_region(record.x)
            self._inner.add(record.x, record.y)
            self._after_add()
        elif low <= record.x <= high:
            self._inner.add(record.x, record.y)
            self._after_add()
        # else: monotonicity — the tuple can never qualify; discard.

    # ------------------------------------------------------ columnar kernel

    def _columns_supported(self, collect: str) -> bool:
        # A traced collect="all" wants one answer span per tuple, so it
        # needs the scalar loop.  Obs sinks, other traced runs and the
        # quantile policy are fine: lifecycle events, spans and
        # merge/split swaps fire only inside the scalar boundary calls.
        return collect != "all" or not self._tracer.enabled

    def _column_trace(self, xs, ys, limit: int):
        # The running prior extremum is pure data, so it stays valid across
        # in-chunk shifts; the records that beat it are the region shifts.
        is_min = self._query.independent == "min"
        running = np.minimum.accumulate(xs) if is_min else np.maximum.accumulate(xs)
        prior = np.empty(len(xs))
        prior[0] = self._extremum
        if len(xs) > 1:
            if is_min:
                np.minimum(running[:-1], self._extremum, out=prior[1:])
            else:
                np.maximum(running[:-1], self._extremum, out=prior[1:])
        return (xs, (xs < prior) if is_min else (xs > prior)), limit

    def _column_triggers(self, trace, lo: int, hi: int):
        xs, shift = trace
        hits = shift[lo:hi]
        low, high = self._region
        edges = self._inner.edges
        if low < edges[0] or high > edges[-1]:
            # Region and histogram edges can disagree by a float after a
            # piecemeal truncation; an in-region record outside the edges
            # takes locate's checked error path in the scalar loop, so it
            # steps through that loop here too.
            sx = xs[lo:hi]
            hits = hits | ((sx >= low) & (sx <= high) & ((sx < edges[0]) | (sx > edges[-1])))
        return hits

    def _column_route(self, sx):
        # Out-of-region tuples can never qualify: they are discarded.
        low, high = self._region
        return (sx >= low) & (sx <= high), None

    def _column_answers(self, series_c, series_w):
        # estimate(), vectorised: total() sums the fine buckets left to
        # right, as a cumsum along each row does; then clamp and fold.
        m = self._inner.num_buckets
        count = series_c[:, :m].cumsum(axis=1)[:, -1]
        count = np.where(count >= 0.0, count, 0.0)
        if self._query.dependent == "count":
            return count.tolist()
        weight = series_w[:, :m].cumsum(axis=1)[:, -1]
        weight = np.where(weight >= 0.0, weight, 0.0)
        if self._query.dependent == "sum":
            return weight.tolist()
        return np.where(count > 0.0, weight / np.where(count > 0.0, count, 1.0), 0.0).tolist()

    # ------------------------------------------------------------- merging

    def _merge_steady(self, other: "LandmarkExtremaEstimator") -> None:
        """Fold another landmark-extrema summary into this one.

        The merged extremum is exact (min/max distribute over the
        partition), so first adopt ``other``'s extremum if it is better —
        the usual region shift, truncating our own mass that can no
        longer qualify.  Then each of ``other``'s buckets keeps only its
        overlap with the merged region ``[a, b]`` (pro-rata; the rest is
        discarded forever by monotonicity, exactly as a region shift
        discards it) and is poured into our buckets.  Pours that needed
        the uniformity assumption accumulate into ``merge_error_bound``.
        """
        assert self._inner is not None and other._inner is not None
        assert other._extremum is not None
        if self._is_new_extremum(other._extremum):
            self._shift_region(other._extremum)
        assert self._region is not None
        low, high = self._region
        slack = ZERO_MASS
        edges = other._inner.edges
        for i, (left, right) in enumerate(zip(edges, edges[1:])):
            mass = other._inner.bucket_mass(i)
            if mass.count == 0.0 and mass.weight == 0.0:
                continue
            ov_lo, ov_hi = max(left, low), min(right, high)
            if ov_hi <= ov_lo:
                continue  # wholly outside the merged region: never qualifies
            kept = mass.scaled((ov_hi - ov_lo) / (right - left))
            if not (ov_lo == left and ov_hi == right and span_is_exact(self._inner, left, right)):
                slack += kept
            pour_uniform(self._inner, ov_lo, ov_hi, kept)
        self._merge_slack = self._merge_slack + slack + other._merge_slack

    # -------------------------------------------------------------- answer

    def estimate(self) -> float:
        """Current value of the output sequence ``S_out[i]``.

        The focus region *is* the qualifying band, so the estimate is the
        total retained mass; during warm-up the buffered answer is exact.
        """
        if self._buffer is not None:
            count = float(len(self._buffer))
            weight = sum((r.y for r in self._buffer), 0.0)
            return self._query.value_from(count, weight)
        assert self._inner is not None
        total = self._inner.total().clamped()
        return self._query.value_from(total.count, total.weight)

    def _bounds_from_summary(self) -> tuple[float, float]:
        # The retained total carries no partial-bucket interpolation: the
        # band *is* the bucketed region, so the point estimate bounds
        # itself (reallocation truncation error aside, as everywhere).
        value = self.estimate()
        return (value, value)
