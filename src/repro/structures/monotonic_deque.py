"""Exact sliding-window extrema via a monotonic deque.

This is the classic amortised-O(1) structure: the deque holds a monotone
subsequence of (position, value) pairs such that the front is always the
window extremum.  The paper's sliding-window algorithms use an *approximate*
interval-based tracker (:mod:`repro.structures.intervals`) because it needs
only ``k`` values of state; this exact structure serves as the reference the
tracker is tested and ablated against, and powers the exact oracle.
The window is counted in pushes or, when every push passes a ``time``, in
stream time: a count window is a time window whose clock is the position.
"""

from __future__ import annotations

from collections import deque

from repro.exceptions import ConfigurationError, StreamError


class MonotonicDeque:
    """Exact MIN or MAX over the last ``window`` pushed values.

    >>> d = MonotonicDeque(window=3, mode='min')
    >>> for v in [5, 3, 7, 4]:
    ...     d.push(v)
    >>> d.extremum()   # min over [3, 7, 4]
    3
    """

    def __init__(self, window: float, mode: str = "min") -> None:
        if window <= 0:
            raise ConfigurationError(f"window must be positive, got {window}")
        if mode not in ("min", "max"):
            raise ConfigurationError(f"mode must be 'min' or 'max', got {mode!r}")
        self._window = window
        self._mode = mode
        self._deque: deque[tuple[int, float]] = deque()
        self._position = 0

    @property
    def window(self) -> float:
        return self._window

    @property
    def mode(self) -> str:
        return self._mode

    def _dominates(self, new: float, old: float) -> bool:
        if self._mode == "min":
            return new <= old
        return new >= old

    def push(self, value: float, time: float | None = None) -> None:
        """Observe the next stream value, at its position or at ``time``
        (non-decreasing); a value expires once ``time - window`` reaches it."""
        if time is None:
            time = self._position
            self._position += 1
        while self._deque and self._dominates(value, self._deque[-1][1]):
            self._deque.pop()
        self._deque.append((time, value))
        expiry = time - self._window
        while self._deque and self._deque[0][0] <= expiry:
            self._deque.popleft()

    def extremum(self) -> float:
        """The exact extremum over the current window."""
        if not self._deque:
            raise StreamError("extremum() before any value was pushed")
        return self._deque[0][1]

    def __len__(self) -> int:
        """Number of candidates currently retained (≤ window)."""
        return len(self._deque)
