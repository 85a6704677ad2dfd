"""The data-stream computation model (paper Section 2.1).

A *stream* is an ordered sequence of records; a *stream algorithm* reads one
record per step, does bounded-space work, and emits one output per step
(Henzinger–Raghavan–Rajagopalan model).  This package provides:

* :mod:`~repro.streams.model` — record types, the :class:`StreamAlgorithm`
  protocol, and helpers to run an algorithm over a stream.
* :mod:`~repro.streams.scopes` — full-window, landmark, and sliding-window
  scope functions in the paper's mathematical form (position sets), the
  reference the tests recompute scope aggregates over.
* :mod:`~repro.streams.ordering` — arrival-order transforms used in the
  paper's sensitivity analyses (random permutation, partially-sorted
  reverse).
* :mod:`~repro.streams.operators` — :class:`ScopeAggregate`, the exact
  level-0 MIN/MAX/AVG/SUM over a full or sliding scope.  The exact oracle
  and the traditional-histogram baselines hold one for their independent
  aggregate; the focused estimators approximate theirs inside
  :mod:`repro.core`.
"""

from repro.streams.model import Record, StreamAlgorithm, materialize, run_stream
from repro.streams.operators import ScopeAggregate
from repro.streams.ordering import as_is, partially_sorted_reverse, random_permutation
from repro.streams.scopes import (
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
    "ScopeAggregate",
    "full_scope_positions",
    "landmark_scope_positions",
    "sliding_scope_positions",
]
