"""Landmark-window correlated aggregates with AVG as the independent
aggregate (paper Section 3.1.3).

The running mean is not monotone, but the Central Limit Theorem bounds how
far it is likely to move: after ``n`` tuples the mean stays within
``mu_hat +/- sigma_hat / sqrt(n)`` with ~68% probability (one standard
error; the multiplier is tunable, as the paper's footnote notes).  The
estimator therefore keeps its fine buckets on the focus interval::

    [mu_hat - k * sigma_hat / sqrt(n),  mu_hat + k * sigma_hat / sqrt(n)]

with two coarse *tail buckets* covering ``[min, lo]`` and ``[hi, max]`` —
the paper's bucket list ``(min, lo, ..., hi, max)``.  The threshold query
``x > mu_hat`` then almost always truncates inside the finely bucketed
region, where interpolation error is smallest.

``condition_1`` never fires (the mean cannot jump out of the data range);
``condition_2`` fires when the mean shift is material — the mean moves a
little at every step, so reallocation is gated on drift beyond a fraction
of a bucket width to avoid re-interpolating all focus mass thousands of
times.  Wholesale then re-partitions the whole interval from scratch;
piecemeal truncates/extends only at the boundaries (its "only when
absolutely necessary" discipline).

The lifecycle (warmup buffering, build, drift-gated reallocation, tail
exchange, band-mass answers) lives in :mod:`repro.core.focused`; this
module contributes only what is unique to the landmark-AVG scope: the
exact running moments, the CLT focus target, fitted-normal quantile
edges, and true-disjointness as the regime-break test (there is no
replayable window, so a disjoint jump redistributes wholesale instead of
rebuilding).
"""

from __future__ import annotations

import numpy as np

from repro.core.focused import STRATEGIES, FocusedEstimatorBase, TwoTailSummaryMixin
from repro.core.query import CorrelatedQuery
from repro.exceptions import ConfigurationError
from repro.histograms.bucket import Mass
from repro.histograms.partition import normal_quantile_boundaries
from repro.obs.sink import ObsSink
from repro.obs.trace import Tracer
from repro.streams.model import Record
from repro.structures.welford import RunningMoments

__all__ = ["LandmarkAvgEstimator", "STRATEGIES"]


class LandmarkAvgEstimator(TwoTailSummaryMixin, FocusedEstimatorBase):
    """Single-pass estimator for ``AGG-D{y : x > AVG(x)}`` over a landmark scope.

    Parameters
    ----------
    query:
        A :class:`~repro.core.query.CorrelatedQuery` with
        ``independent='avg'`` and ``window=None``.
    num_buckets:
        Total bucket budget ``m``; two of them are the tail buckets, so the
        focus interval gets ``m - 2`` fine buckets (require ``m >= 4``).
    strategy:
        ``'wholesale'`` (re-partition the interval from scratch) or
        ``'piecemeal'`` (truncate/extend at the boundaries only); both run
        when the mean's drift exceeds ``drift_tolerance``.
    policy:
        ``'uniform'`` spacing or ``'quantile'`` — quantiles of the fitted
        normal ``N(mu_hat, sigma_hat/sqrt(n))``, the paper's second
        partitioning strategy for AVG.
    k_std:
        Confidence-interval half-width in standard errors.  The paper
        presents one standard error and marks the multiplier as tunable;
        the default here is 3 (99.7% coverage), which keeps the moving
        mean inside the focus region even under mildly correlated
        arrival orders — the ablation bench sweeps this knob.
    drift_tolerance:
        Reallocation trigger (both strategies): reallocate when a focus boundary has moved more
        than this fraction of the mean inner bucket width.
    swap_period:
        Quantile-policy merge/split maintenance cadence (insertions).
    sink:
        Optional :class:`~repro.obs.sink.ObsSink` receiving lifecycle
        events (``hist.build``, ``region.shift``, ``realloc.*``,
        ``hist.swap``).
    """

    def __init__(
        self,
        query: CorrelatedQuery,
        num_buckets: int = 10,
        strategy: str = "piecemeal",
        policy: str = "uniform",
        k_std: float = 3.0,
        drift_tolerance: float = 0.3,
        swap_period: int = 32,
        sink: ObsSink | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if query.independent != "avg":
            raise ConfigurationError(
                f"LandmarkAvgEstimator needs an avg query, got {query.independent!r}"
            )
        if query.is_sliding:
            raise ConfigurationError("query has a sliding window; use SlidingAvgEstimator")
        self._init_kernel(query, num_buckets, strategy, policy, swap_period, sink, tracer)
        if k_std <= 0:
            raise ConfigurationError(f"k_std must be positive, got {k_std}")
        if drift_tolerance <= 0:
            raise ConfigurationError(f"drift_tolerance must be positive, got {drift_tolerance}")
        self._k = k_std
        self._drift_tolerance = drift_tolerance
        self._moments = RunningMoments()
        self._init_two_tails()

    @property
    def mean(self) -> float:
        """The exact running mean (exactly computable in one pass)."""
        return self._moments.mean

    def _independent_value(self) -> float:
        return self._moments.mean

    def _span(self) -> tuple[float, float]:
        # Landmark min/max are exactly trackable: the tail spans are exact.
        return (self._moments.minimum, self._moments.maximum)

    def _ingest(self, record: Record) -> None:
        self._moments.push(record.x)
        return None

    def _target_interval(self) -> tuple[float, float]:
        return self._clt_interval(self._k * self._moments.standard_error)

    def _quantile_edges(self, lo: float, hi: float) -> list[float]:
        return normal_quantile_boundaries(
            self._moments.mean, self._moments.standard_error, self._inner_m, lo, hi
        )

    # --------------------------------------------------- columnar kernel

    def _columns_supported(self, collect: str) -> bool:
        # Per-record answers would need band_mass over the live summary
        # for every tuple; the vectorised path only skips them, so
        # collect="all" stays on the scalar loop.  Without per-record
        # answers a traced run opens no per-tuple span, and boundary
        # records open theirs in _absorb.  Quantile swaps run as boundary
        # records.
        return collect != "all"

    def _column_trace(self, xs, ys, limit: int):
        """Moment trace and CLT focus target for every chunk record.

        :meth:`RunningMoments.replay` gives the moments after each record,
        bit-identical to the scalar pushes; ``_target_interval`` is then
        evaluated for the whole chunk at once.
        """
        replay = self._moments.replay(xs.tolist())
        cnt_a, mean_a, m2_a = replay.count, replay.mean, replay.m2
        mn_a, mx_a = replay.minimum, replay.maximum
        # _clt_interval, op for op (max/min ties on ±0.0 only affect the
        # sign of a zero, which the trigger comparison takes abs() of).
        se = np.sqrt(np.maximum(m2_a / cnt_a, 0.0)) / np.sqrt(cnt_a)
        half = self._k * se
        if self._query.two_sided:
            half = half + self._query.epsilon
        half = np.where(half <= 0.0, np.maximum(np.abs(mean_a) * 1e-9, 1e-12), half)
        lo_a = np.maximum(mean_a - half, mn_a)
        hi_a = np.minimum(mean_a + half, mx_a)
        degenerate = hi_a <= lo_a
        if degenerate.any():
            span = np.maximum(
                np.maximum((mx_a - mn_a) * 1e-6, np.abs(mean_a) * 1e-9), 1e-12
            )
            lo_a = np.where(degenerate, np.maximum(mean_a - span, mn_a), lo_a)
            hi_a = np.where(degenerate, lo_a + 2.0 * span, hi_a)
        return (replay, lo_a, hi_a), limit

    def _column_triggers(self, trace, lo: int, hi: int):
        # _should_reallocate against the live focus region.
        _, lo_a, hi_a = trace
        inner = self._inner
        assert inner is not None
        il, ih = inner.low, inner.high
        tolerance = self._drift_tolerance * ((ih - il) / self._inner_m)
        return (np.abs(lo_a[lo:hi] - il) > tolerance) | (np.abs(hi_a[lo:hi] - ih) > tolerance)

    def _column_route(self, sx):
        # _classify: the left tail is account m, the right tail m + 1.
        inner = self._inner
        assert inner is not None
        above = sx > inner.high
        return ~((sx < inner.low) | above), inner.num_buckets + above

    @property
    def _column_coarse(self) -> tuple[Mass, Mass]:
        return (self._left_tail, self._right_tail)

    @_column_coarse.setter
    def _column_coarse(self, masses) -> None:
        self._left_tail, self._right_tail = masses

    def _sync_trace(self, trace, upto: int) -> None:
        self._moments.restore(trace[0], upto)

    def _regime_break(self, lo: float, hi: float, old_lo: float, old_hi: float) -> bool:
        # The mean cannot jump without the data moving it: only true
        # disjointness (possible with very narrow focus intervals) forces
        # the wholesale path.
        return hi <= old_lo or lo >= old_hi

    def _restart(self, lo: float, hi: float) -> bool:
        # No replayable window: a disjoint jump redistributes wholesale.
        return False

    def _merge_steady(self, other: "LandmarkAvgEstimator") -> None:
        """Fold another landmark-AVG summary into this one.

        Moments merge exactly (parallel Welford), which also widens our
        tail spans to cover the union's extrema; then each of ``other``'s
        regions — left tail span, every fine bucket, right tail span — is
        re-poured across our three regions pro-rata.  Count, weight, mean
        and extrema are preserved exactly; per-band placement of the
        re-poured mass accumulates into ``merge_error_bound``.
        """
        assert self._inner is not None and other._inner is not None
        o_xmin, o_xmax = other._span()
        self._moments.merge_from(other._moments)
        slack = self._merge_pour(o_xmin, other._inner.low, other._left_tail, coarse=True)
        edges = other._inner.edges
        for i, (left, right) in enumerate(zip(edges, edges[1:])):
            slack += self._merge_pour(left, right, other._inner.bucket_mass(i))
        slack += self._merge_pour(other._inner.high, o_xmax, other._right_tail, coarse=True)
        self._merge_slack = self._merge_slack + slack + other._merge_slack
        # The merged moments moved the CLT target (possibly far, under
        # range partitioning); retarget now so queries against the merged
        # summary truncate inside fine buckets, as they would have after
        # one more single-process step.
        lo, hi = self._target_interval()
        if self._should_reallocate(lo, hi):
            self._reallocate(lo, hi)
