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

import math
from collections import deque
from itertools import accumulate, islice
from typing import NamedTuple

import numpy as np

from repro.exceptions import ConfigurationError, StreamError


class IntervalReplay(NamedTuple):
    """A value batch replayed through an :class:`IntervalExtremaTracker`.

    ``start`` is the tracker's ``(locals, current, current_count,
    total_seen)`` before the batch; ``turnovers`` holds the local extremum
    of every interval the batch completes, in order.  That is all
    :meth:`IntervalExtremaTracker.restore` needs to load the state after
    any prefix, and all :meth:`IntervalExtremaTracker.replay_extrema`
    needs for the per-value answers.
    """

    start: tuple[tuple[float, ...], float | None, int, int]
    values: list[float]
    turnovers: list[float]


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

    def replay(self, values: list[float]) -> IntervalReplay:
        """The :meth:`push` loop over ``values``, leaving ``self`` untouched.

        Only the interval turnovers are folded here, one builtin
        reduction per completed interval; :meth:`replay_extrema` derives
        the per-value answers from them on demand.
        """
        better = min if self._mode == "min" else max
        current = self._current
        turnovers = []
        start, stop = 0, self._interval_length - self._current_count
        while stop <= len(values):
            local = better(values[start:stop])
            if current is not None:
                local = better(current, local)
                current = None
            turnovers.append(local)
            start, stop = stop, stop + self._interval_length
        state = (tuple(self._locals), self._current, self._current_count, self._total_seen)
        return IntervalReplay(state, values, turnovers)

    def restore(self, replay: IntervalReplay, k: int) -> None:
        """Load the state :meth:`replay` reached after its first ``k`` values.

        O(num_intervals) from the turnovers, plus one builtin fold over
        the values of the interval left open after ``k``.
        """
        locals0, current, count, seen = replay.start
        done, open_count = divmod(count + k, self._interval_length)
        kept = replay.turnovers[max(done - self._max_intervals, 0) : done]
        self._locals = deque([*locals0, *kept][-self._max_intervals :])
        if done:
            current = None
        first = max(k - open_count, 0)
        if first < k:
            better = min if self._mode == "min" else max
            local = better(replay.values[first:k])
            current = local if current is None else better(current, local)
        self._current = current
        self._current_count = open_count
        self._total_seen = seen + k

    def replay_extrema(self, replay: IntervalReplay) -> tuple[np.ndarray, np.ndarray]:
        """``extremum()`` and ``worst_local()`` after each value of ``replay``
        (a replay of this tracker), as float64 arrays.

        Between turnovers the retained locals are fixed, so each value's
        answers compare the locals' folds with the open interval's running
        fold (an ``accumulate`` of the builtin).  Ties keep the locals'
        fold, as the builtins keep the older of equal items.
        """
        mode_min = self._mode == "min"
        better, worse = (min, max) if mode_min else (max, min)
        ahead, behind = (np.less, np.greater) if mode_min else (np.greater, np.less)
        # No locals fold to the far infinity, which any finite value beats.
        far = math.inf if mode_min else -math.inf
        locals_, current, count, _ = replay.start
        locals_ = list(locals_)
        values = replay.values
        turnovers = iter(replay.turnovers)
        running: list[float] = []
        bests: list[float] = []
        worsts: list[float] = []
        lengths: list[int] = []
        start, stop = 0, self._interval_length - count
        while start < len(values):
            end = min(stop, len(values))
            run = accumulate(values[start:end], better, initial=current)
            running.extend(run if current is None else islice(run, 1, None))
            current = None
            bests.append(better(locals_) if locals_ else far)
            worsts.append(worse(locals_) if locals_ else -far)
            lengths.append(end - start)
            if end < stop:
                break
            # The interval's last value turns it over: it answers the
            # folds of the grown locals (a running value equal to the
            # new best loses both comparisons below).
            locals_.append(next(turnovers))
            del locals_[: -self._max_intervals]
            running[-1] = better(locals_)
            bests.append(running[-1])
            worsts.append(worse(locals_))
            lengths[-1] -= 1
            lengths.append(1)
            start, stop = stop, stop + self._interval_length
        run_a = np.asarray(running, dtype=np.float64)
        best_a = np.repeat(np.asarray(bests, dtype=np.float64), lengths)
        worst_a = np.repeat(np.asarray(worsts, dtype=np.float64), lengths)
        return (
            np.where(ahead(run_a, best_a), run_a, best_a),
            np.where(behind(run_a, worst_a), run_a, worst_a),
        )

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
