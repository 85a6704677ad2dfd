"""Scope functions: full window, landmark window, sliding window.

Paper Section 2.1 defines a scope as a function from a position ``i`` to the
set of positions that contribute to the aggregate at ``i``:

* full window      ``fScope(i)      = {1, ..., i}``
* sliding window   ``swScope_w(i)   = {max(1, i-w+1), ..., i}``
* landmark window  ``lmScope(S, i)  = {s_j, ..., i}`` with ``s_j`` the
  largest landmark ≤ i (full window is the landmark scope with S = {1}).

The ``*_scope_positions`` functions give that mathematical form as
``range`` objects over 1-based positions.  They are the reference the tests
recompute scope aggregates over; the incremental form is
:class:`~repro.streams.operators.ScopeAggregate`, which keeps the full or
one sliding scope as records arrive.
"""

from __future__ import annotations

from collections.abc import Sequence

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
