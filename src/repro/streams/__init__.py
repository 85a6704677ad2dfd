"""The data-stream computation model (paper Section 2.1).

A *stream* is an ordered sequence of records; a *stream algorithm* reads one
record per step, does bounded-space work, and emits one output per step
(Henzinger–Raghavan–Rajagopalan model).  This package provides:

* :mod:`~repro.streams.model` — record types, the :class:`StreamAlgorithm`
  protocol, and helpers to run an algorithm over a stream.
* :mod:`~repro.streams.scopes` — full-window, landmark, and sliding-window
  scope functions, both in the paper's mathematical form (position sets) and
  as incremental *scope drivers* for the level-0 operators below.
* :mod:`~repro.streams.ordering` — arrival-order transforms used in the
  paper's sensitivity analyses (random permutation, partially-sorted
  reverse).
* :mod:`~repro.streams.operators` — exact level-0 stream aggregate
  operators (running COUNT/SUM/AVG/MIN/MAX with scope and predicate), the
  building blocks the paper's Section 2 examples compose.

The correlated estimators use neither the scope drivers nor the level-0
operators: each keeps its own scope state (running moments, a ring
window, a time-ordered deque) inside :mod:`repro.core`.
"""

from repro.streams.model import Record, StreamAlgorithm, materialize, run_stream
from repro.streams.ordering import as_is, partially_sorted_reverse, random_permutation
from repro.streams.scopes import (
    FullWindowScope,
    LandmarkScope,
    Scope,
    SlidingWindowScope,
    full_scope_positions,
    landmark_scope_positions,
    sliding_scope_positions,
)

__all__ = [
    "Record",
    "StreamAlgorithm",
    "materialize",
    "run_stream",
    "as_is",
    "partially_sorted_reverse",
    "random_permutation",
    "Scope",
    "FullWindowScope",
    "LandmarkScope",
    "SlidingWindowScope",
    "full_scope_positions",
    "landmark_scope_positions",
    "sliding_scope_positions",
]
