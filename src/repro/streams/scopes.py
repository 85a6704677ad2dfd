"""Scope functions: full window, landmark window, sliding window.

Paper Section 2.1 defines a scope as a function from a position ``i`` to the
set of positions that contribute to the aggregate at ``i``:

* full window      ``fScope(i)      = {1, ..., i}``
* sliding window   ``swScope_w(i)   = {max(1, i-w+1), ..., i}``
* landmark window  ``lmScope(S, i)  = {s_j, ..., i}`` with ``s_j`` the
  largest landmark ≤ i (full window is the landmark scope with S = {1}).

Two representations are provided:

1. The *mathematical* form — ``*_scope_positions`` functions returning
   ``range`` objects over 1-based positions, used in tests and in the exact
   semantics documentation.
2. Incremental :class:`Scope` drivers — per-step objects telling a
   level-0 operator (:mod:`repro.streams.operators`) what a new arrival
   implies: whether the scope *reset* (a landmark was crossed) and which
   position *expired* (slid out), so it never re-enumerates position sets.

The correlated estimators in :mod:`repro.core` do not use these drivers;
each tracks its own scope.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple, Protocol

from repro.exceptions import ConfigurationError


def full_scope_positions(i: int) -> range:
    """``fScope(i)`` — all positions 1..i (1-based, inclusive)."""
    if i < 1:
        raise ConfigurationError(f"position must be >= 1, got {i}")
    return range(1, i + 1)


def sliding_scope_positions(i: int, window: int) -> range:
    """``swScope_w(i)`` — the last ``window`` positions ending at i."""
    if i < 1:
        raise ConfigurationError(f"position must be >= 1, got {i}")
    if window < 1:
        raise ConfigurationError(f"window must be >= 1, got {window}")
    return range(max(1, i - window + 1), i + 1)


def landmark_scope_positions(i: int, landmarks: Sequence[int]) -> range:
    """``lmScope(S, i)`` — positions from the largest landmark ≤ i up to i."""
    if i < 1:
        raise ConfigurationError(f"position must be >= 1, got {i}")
    eligible = [s for s in landmarks if s <= i]
    if not eligible:
        raise ConfigurationError(f"no landmark precedes position {i}; include 1 in the set")
    return range(max(eligible), i + 1)


class ScopeEvent(NamedTuple):
    """What the arrival at the next position means for a stream operator.

    Attributes
    ----------
    position:
        The (1-based) position of the arriving record.
    reset:
        True when the scope restarts at this position (a landmark), so the
        operator must clear all state *before* ingesting the record.
    expired:
        Position that just left the scope (sliding windows), or ``None``.
    """

    position: int
    reset: bool
    expired: int | None


class Scope(Protocol):
    """Incremental driver for a scope function."""

    def advance(self) -> ScopeEvent:
        """Move to the next position and describe its consequences."""
        ...


class FullWindowScope:
    """Driver for ``fScope``: never resets, nothing expires."""

    def __init__(self) -> None:
        self._position = 0

    def advance(self) -> ScopeEvent:
        """Move to the next position (resets only at position 1)."""
        self._position += 1
        return ScopeEvent(self._position, reset=self._position == 1, expired=None)


class LandmarkScope:
    """Driver for ``lmScope``: resets whenever a landmark position arrives.

    ``landmarks`` may be any iterable of 1-based positions; position 1 is
    always treated as a landmark (the stream must start somewhere).
    """

    def __init__(self, landmarks: Sequence[int] = (1,)) -> None:
        self._landmarks = {int(s) for s in landmarks} | {1}
        if any(s < 1 for s in self._landmarks):
            raise ConfigurationError("landmark positions must be >= 1")
        self._position = 0

    def advance(self) -> ScopeEvent:
        """Move to the next position; reset when it is a landmark."""
        self._position += 1
        return ScopeEvent(self._position, reset=self._position in self._landmarks, expired=None)


class PeriodicLandmarkScope:
    """Landmark scope with landmarks every ``period`` positions (1, 1+p, ...).

    This is the paper's "daily" / "yearly" landmark pattern without having
    to enumerate positions up front.
    """

    def __init__(self, period: int) -> None:
        if period < 1:
            raise ConfigurationError(f"period must be >= 1, got {period}")
        self._period = period
        self._position = 0

    def advance(self) -> ScopeEvent:
        """Move to the next position; reset every ``period`` positions."""
        self._position += 1
        reset = (self._position - 1) % self._period == 0
        return ScopeEvent(self._position, reset=reset, expired=None)


class SlidingWindowScope:
    """Driver for ``swScope_w``: after warm-up, each arrival expires one position."""

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        self._window = window
        self._position = 0

    @property
    def window(self) -> int:
        return self._window

    def advance(self) -> ScopeEvent:
        """Move to the next position; report the expired one, if any."""
        self._position += 1
        expired = self._position - self._window if self._position > self._window else None
        return ScopeEvent(self._position, reset=self._position == 1, expired=expired)
