"""Keyed multi-tenancy: one correlated aggregate per group-by key.

* :mod:`repro.keyed.admission` — the Space-Saving/Misra–Gries counter
  layer with over/under-count guarantees and per-slot replay buffers;
* :mod:`repro.keyed.gated` — :class:`GatedKeyedBank`, the one keyed bank:
  it promotes heavy keys to full estimators, demotes/evicts cold ones
  under a byte budget, and answers every key with explicit error
  intervals.  ``GatedKeyedBank(query, promote_threshold=1)`` gives every
  key its own estimator on first sight (the small-population shape).
"""

from repro.keyed.admission import Slot, SpaceSavingAdmission
from repro.keyed.gated import GatedKeyedBank, KeyEstimate

__all__ = [
    "SpaceSavingAdmission",
    "Slot",
    "GatedKeyedBank",
    "KeyEstimate",
]
