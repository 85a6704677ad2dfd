"""The paper's sliding-window extrema tracker (Section 4.1.1).

    "We partition the sliding window into fixed-length intervals and keep
    track of the local extrema within each interval.  When an outgoing
    (global) extrema value departs from the sliding window, we update the
    extrema using the remaining local extrema."

The tracker keeps one scalar per interval (``num_intervals`` of them), so its
state is O(k) regardless of the window size ``w``.  The estimate is
approximate at interval granularity: an expired global extremum is only
noticed when its whole interval rotates out.

Besides the estimated global extremum, the tracker exposes the quantity the
sliding-window extrema histogram needs for its focus region (Section 4.1.2):
``maxmin`` — the max of the local minima (symmetrically ``minmax`` when
tracking maxima).  The region ``[min, (1+eps) * maxmin]`` is deliberately
wider than the landmark region ``[min, (1+eps) * min]`` because the minimum
can *rise* when old tuples expire; ``maxmin`` bounds how far it can rise
before the tracker notices.
"""

from __future__ import annotations

from collections import deque

from repro.exceptions import ConfigurationError, StreamError


class IntervalExtremaTracker:
    """Approximate sliding-window MIN or MAX with O(num_intervals) state.

    Parameters
    ----------
    window:
        Size ``w`` of the sliding window, in tuples.
    num_intervals:
        Number of fixed-length intervals the window is partitioned into.
        Must divide evenly into a positive interval length; if ``window`` is
        not a multiple, the interval length is rounded up so the covered
        span is at least the window.
    mode:
        ``'min'`` or ``'max'``.
    """

    def __init__(self, window: int, num_intervals: int = 10, mode: str = "min") -> None:
        if window <= 0:
            raise ConfigurationError(f"window must be positive, got {window}")
        if num_intervals <= 0:
            raise ConfigurationError(f"num_intervals must be positive, got {num_intervals}")
        if num_intervals > window:
            raise ConfigurationError(
                f"num_intervals ({num_intervals}) cannot exceed window ({window})"
            )
        if mode not in ("min", "max"):
            raise ConfigurationError(f"mode must be 'min' or 'max', got {mode!r}")
        self._window = window
        self._mode = mode
        self._interval_length = -(-window // num_intervals)  # ceil division
        self._max_intervals = num_intervals
        # Completed intervals' local extrema, oldest first.
        self._locals: deque[float] = deque()
        self._current: float | None = None
        self._current_count = 0
        self._total_seen = 0

    @property
    def window(self) -> int:
        return self._window

    @property
    def interval_length(self) -> int:
        return self._interval_length

    @property
    def mode(self) -> str:
        return self._mode

    def push(self, value: float) -> None:
        """Observe the next stream value."""
        self._total_seen += 1
        current = self._current
        if current is None:
            self._current = value
        elif self._mode == "min":
            self._current = min(current, value)
        else:
            self._current = max(current, value)
        self._current_count += 1
        if self._current_count == self._interval_length:
            self._locals.append(self._current)
            self._current = None
            self._current_count = 0
            # Retain only intervals that can still intersect the window: the
            # current (partial) interval plus num_intervals completed ones.
            while len(self._locals) > self._max_intervals:
                self._locals.popleft()

    def _all_locals(self) -> list[float]:
        values = list(self._locals)
        if self._current is not None:
            values.append(self._current)
        return values

    def extremum(self) -> float:
        """Estimated window extremum: best over the retained local extrema.

        Ties keep the oldest value (the builtins keep the first of equal
        items), so a ``-0.0``/``0.0`` tie answers the older zero.
        """
        values = self._all_locals()
        if not values:
            raise StreamError("extremum() before any value was pushed")
        return min(values) if self._mode == "min" else max(values)

    def worst_local(self) -> float:
        """``maxmin`` for MIN mode (``minmax`` for MAX mode).

        The worst of the retained local extrema — an upper bound (for MIN) on
        where the window extremum can move as intervals expire, used to size
        the histogram focus region in the sliding-window algorithms.
        """
        values = self._all_locals()
        if not values:
            raise StreamError("worst_local() before any value was pushed")
        return max(values) if self._mode == "min" else min(values)

    def __len__(self) -> int:
        """Number of retained local extrema (completed + current partial)."""
        return len(self._locals) + (1 if self._current is not None else 0)
