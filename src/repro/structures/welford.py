"""Numerically stable running moments (Welford's algorithm).

The AVG-independent algorithms centre their histogram focus region on the
running mean and size it by the standard error ``sigma_hat / sqrt(n)``
(Section 2.2's Central Limit Theorem argument).  Welford's recurrence gives
mean and variance in one pass without catastrophic cancellation, and also
supports *removal* of a value, which the sliding-window AVG estimator needs
when a tuple expires.

Removal uses the reverse Welford recurrence; it is exact in real arithmetic
and stable in floating point as long as removals are of previously inserted
values (which is how the sliding window uses it).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.exceptions import EmptyScopeError, StreamError


class MomentsReplay(NamedTuple):
    """The moments after each value of a :meth:`RunningMoments.replay`.

    Entry ``i`` of each float64 array is the state after value ``i``;
    ``start`` is ``(count, mean, m2, minimum, maximum)`` before the first.
    """

    start: tuple[int, float, float, float, float]
    count: np.ndarray
    mean: np.ndarray
    m2: np.ndarray
    minimum: np.ndarray
    maximum: np.ndarray


class RunningMoments:
    """Running count, mean, variance and extrema of a value stream.

    >>> m = RunningMoments()
    >>> for v in [2.0, 4.0, 6.0]:
    ...     m.push(v)
    >>> m.mean, m.count
    (4.0, 3)
    """

    def __init__(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        if self._count == 0:
            raise EmptyScopeError("mean of an empty stream")
        return self._mean

    @property
    def minimum(self) -> float:
        if self._count == 0:
            raise EmptyScopeError("minimum of an empty stream")
        return self._min

    @property
    def maximum(self) -> float:
        if self._count == 0:
            raise EmptyScopeError("maximum of an empty stream")
        return self._max

    @property
    def variance(self) -> float:
        """Population variance (the paper's ``sigma_hat^2`` divides by n)."""
        if self._count == 0:
            raise EmptyScopeError("variance of an empty stream")
        return max(self._m2 / self._count, 0.0)

    @property
    def std(self) -> float:
        """Population standard deviation ``sigma_hat``."""
        return math.sqrt(self.variance)

    @property
    def standard_error(self) -> float:
        """``sigma_hat / sqrt(n)`` — the CLT confidence scale for the mean."""
        if self._count == 0:
            raise EmptyScopeError("standard error of an empty stream")
        return self.std / math.sqrt(self._count)

    def push(self, value: float) -> None:
        """Incorporate ``value``."""
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def replay(self, values: list[float]) -> MomentsReplay:
        """The :meth:`push` loop over ``values``, leaving ``self`` untouched.

        Returns the moments after each value, bit-identical to pushing
        them one by one (the same recurrence in the same order, so a
        ``0.0``/``-0.0`` extremum tie keeps the older zero);
        :meth:`restore` loads the state after any prefix.
        """
        start = (self._count, self._mean, self._m2, self._min, self._max)
        cnt, mean, m2, mn, mx = start
        means: list[float] = []
        m2s: list[float] = []
        mins: list[float] = []
        maxs: list[float] = []
        ap_mean, ap_m2, ap_min, ap_max = means.append, m2s.append, mins.append, maxs.append
        for value in values:
            cnt += 1
            delta = value - mean
            mean += delta / cnt
            m2 += delta * (value - mean)
            if value < mn:
                mn = value
            if value > mx:
                mx = value
            ap_mean(mean)
            ap_m2(m2)
            ap_min(mn)
            ap_max(mx)
        return MomentsReplay(
            start,
            np.arange(start[0] + 1, cnt + 1, dtype=np.float64),
            *(np.asarray(column, dtype=np.float64) for column in (means, m2s, mins, maxs)),
        )

    def restore(self, replay: MomentsReplay, k: int) -> None:
        """Load the state :meth:`replay` reached after its first ``k`` values."""
        if k == 0:
            self._count, self._mean, self._m2, self._min, self._max = replay.start
            return
        self._count = replay.start[0] + k
        self._mean = float(replay.mean[k - 1])
        self._m2 = float(replay.m2[k - 1])
        self._min = float(replay.minimum[k - 1])
        self._max = float(replay.maximum[k - 1])

    def remove(self, value: float) -> None:
        """Remove one previously pushed ``value`` (mean/variance only).

        Extrema are *not* revised on removal — doing so exactly would require
        the full multiset.  Sliding-window callers track extrema separately
        (:class:`~repro.structures.intervals.IntervalExtremaTracker`).
        """
        if self._count == 0:
            raise StreamError("remove from an empty RunningMoments")
        if self._count == 1:
            self._count = 0
            self._mean = 0.0
            self._m2 = 0.0
            return
        old_mean = (self._count * self._mean - value) / (self._count - 1)
        self._m2 -= (value - old_mean) * (value - self._mean)
        self._m2 = max(self._m2, 0.0)
        self._mean = old_mean
        self._count -= 1

    def merge(self, other: "RunningMoments") -> None:
        """Fold another RunningMoments into this one (parallel Welford)."""
        if other._count == 0:
            return
        if self._count == 0:
            self._count = other._count
            self._mean = other._mean
            self._m2 = other._m2
            self._min = other._min
            self._max = other._max
            return
        total = self._count + other._count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self._count * other._count / total
        self._mean += delta * other._count / total
        self._count = total
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    # -- MergeableSummary protocol -------------------------------------
    def merge_from(self, other: "RunningMoments") -> None:
        """Alias for :meth:`merge` (the MergeableSummary spelling)."""
        self.merge(other)

    def merge_error_bound(self) -> float:
        """Parallel Welford is exact in real arithmetic: bound is zero.

        (Floating-point roundoff is the usual ~1e-15 relative, not an
        algorithmic merge error.)
        """
        return 0.0
