"""Local-extrema tracking over *time-based* sliding windows.

The paper's motivating examples are all time-scoped ("the last two months",
"the last two weeks"), while its algorithms and evaluation use tuple-count
windows.  This tracker generalises the Section 4.1.1 interval strategy to
durations: the timeline is cut into fixed-length slices of
``duration / num_intervals`` seconds, each keeping its local extremum; a
slice is forgotten once it can no longer intersect the trailing window.

State stays O(num_intervals) regardless of the arrival rate, which is the
point — a bursty second may carry thousands of tuples and a quiet hour
none.
"""

from __future__ import annotations

from collections import deque

from repro.exceptions import ConfigurationError, StreamError


class TimeIntervalExtremaTracker:
    """Approximate MIN or MAX over the trailing ``duration`` of stream time.

    Parameters
    ----------
    duration:
        Window length in stream-time units (must be positive).
    num_intervals:
        Number of fixed-length time slices the window is partitioned into.
    mode:
        ``'min'`` or ``'max'``.

    Timestamps must be non-decreasing (stream order).
    """

    def __init__(self, duration: float, num_intervals: int = 10, mode: str = "min") -> None:
        if duration <= 0.0:
            raise ConfigurationError(f"duration must be positive, got {duration}")
        if num_intervals <= 0:
            raise ConfigurationError(f"num_intervals must be positive, got {num_intervals}")
        if mode not in ("min", "max"):
            raise ConfigurationError(f"mode must be 'min' or 'max', got {mode!r}")
        self._duration = duration
        self._slice_length = duration / num_intervals
        self._num_intervals = num_intervals
        self._mode = mode
        # (slice_index, local_extremum), oldest first.
        self._slices: deque[tuple[int, float]] = deque()
        self._last_time: float | None = None

    @property
    def duration(self) -> float:
        return self._duration

    @property
    def slice_length(self) -> float:
        return self._slice_length

    @property
    def mode(self) -> str:
        return self._mode

    def push(self, time: float, value: float) -> None:
        """Observe ``value`` at stream time ``time`` (non-decreasing)."""
        if self._last_time is not None and time < self._last_time:
            raise StreamError(
                f"timestamps must be non-decreasing: {time} after {self._last_time}"
            )
        self._last_time = time
        index = int(time // self._slice_length)
        if self._slices and self._slices[-1][0] == index:
            old = self._slices[-1][1]
            best = min(old, value) if self._mode == "min" else max(old, value)
            self._slices[-1] = (index, best)
        else:
            self._slices.append((index, value))
        self._expire(time)

    def _expire(self, now: float) -> None:
        # A slice [i*L, (i+1)*L) can intersect the window (now - D, now]
        # only while (i+1)*L > now - D.
        while self._slices and (self._slices[0][0] + 1) * self._slice_length <= (
            now - self._duration
        ):
            self._slices.popleft()

    def extremum(self) -> float:
        """Estimated window extremum over the retained slices."""
        if not self._slices:
            raise StreamError("extremum() before any value was pushed")
        values = [value for _, value in self._slices]
        return min(values) if self._mode == "min" else max(values)

    def worst_local(self) -> float:
        """The worst retained local extremum (``maxmin``/``minmax``)."""
        if not self._slices:
            raise StreamError("worst_local() before any value was pushed")
        values = [value for _, value in self._slices]
        return max(values) if self._mode == "min" else min(values)

    def __len__(self) -> int:
        """Number of retained slices (bounded by num_intervals + 1)."""
        return len(self._slices)
