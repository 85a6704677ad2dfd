"""Space-Saving admission layer: who deserves a full estimator?

The correlated-heavy-hitter papers (Lahiri/Mukherjee/Tirthapura,
arXiv:1310.1161; Epicoco/Cafaro/Pulimeno, arXiv:1611.04942) compose a
counter-based heavy-hitter sketch with per-key summaries: only keys the
sketch *guarantees* to be heavy get their own correlated-aggregate
estimator, everything else lives in the sketch's bounded counters.  This
module is that front layer — a Space-Saving / Misra–Gries sketch over
group-by keys with the classic over/under-count guarantees, plus two
additions the gated bank needs:

* a bounded **replay buffer** per monitored key (the records seen while
  the key was monitored, in arrival order), so a key crossing the
  promotion threshold can replay its history into a freshly built
  estimator — *exactly* when the sketch never charged it an inherited
  error, bounded otherwise;
* a monotone **forgotten ceiling**: the largest count upper bound ever
  held by a key that left the sketch (replaced, demoted over, or
  explicitly evicted).  Classic Space-Saving uses the current minimum
  count as the bound for unmonitored keys; that argument breaks once
  promotion can *free* slots (a later newcomer would re-lower the
  minimum), so the ceiling is tracked explicitly and never decreases.

Guarantees (``n`` = records routed through the sketch, ``k`` = capacity):

* monitored key: ``count - error <= true_hits <= count`` — the observed
  hits ``count - error`` are real (an under-count of the truth), the
  slot count is an over-count;
* unmonitored key: ``true_hits <= ceiling``, and while no slot was ever
  displaced or freed, ``ceiling = 0`` (the key was genuinely never seen);
* the classic error bound: every inherited ``error`` (and hence the
  ceiling, absent explicit evictions) is at most ``n / k``.

Masses (sums of ``|y|``) carry parallel bounds so SUM-dependent
aggregates over the tail can be boxed too: the pre-monitoring mass of a
key is at most ``error * max|y|`` seen up to its admission.
"""

from __future__ import annotations

import heapq
from collections.abc import Hashable, Iterator, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from repro.exceptions import ConfigurationError
from repro.streams.model import Record


@dataclass
class Slot:
    """One monitored key's counters.

    ``count`` is the Space-Saving count (inherited error included) and
    only ever grows; ``error`` is the inherited over-count charged at
    admission; ``count - error`` is the number of records actually
    observed while monitored — the guaranteed (under-count) hits.
    """

    count: int
    error: int
    #: Sum of ``|y|`` observed while monitored (inherited mass excluded).
    mass: float
    #: Bound on the pre-monitoring mass: ``error * max|y|`` at admission.
    mass_error: float
    #: Observed records in arrival order, capped at the buffer limit.
    buffer: list[Record] = field(default_factory=list)
    #: Observed-hits level at which the owner may attempt promotion next.
    promote_at: int = 0

    @property
    def observed(self) -> int:
        """Records actually seen while monitored (exact under-count)."""
        return self.count - self.error


class SpaceSavingAdmission:
    """Bounded key-frequency sketch with per-slot replay buffers.

    Parameters
    ----------
    capacity:
        Number of monitored slots (the Misra–Gries ``k``).  Total memory
        is ``O(capacity * buffer_limit)`` records.
    buffer_limit:
        Per-slot replay-buffer cap in records; 0 disables buffering.
    """

    def __init__(self, capacity: int, buffer_limit: int = 0) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"capacity must be positive, got {capacity}")
        if buffer_limit < 0:
            raise ConfigurationError(
                f"buffer_limit must be >= 0, got {buffer_limit}"
            )
        self._capacity = capacity
        self._buffer_limit = buffer_limit
        self._slots: dict[Hashable, Slot] = {}
        #: Lazy min-heap of (count, key) candidates; counts only grow, so a
        #: popped entry is either current (a true minimum) or stale and
        #: replaced by a fresh one.  Entries are pushed on admission;
        #: entries of departed slots are dropped when popped, or in bulk
        #: once the heap outgrows twice the capacity.
        self._heap: list[tuple[int, int, Hashable]] = []
        self._heap_seq = 0  # tiebreaker so unorderable keys never compare
        self._ceiling = 0
        self._total = 0
        self._max_abs_y = 0.0
        self._replacements = 0

    # ----------------------------------------------------------- inventory

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def buffer_limit(self) -> int:
        return self._buffer_limit

    @property
    def total(self) -> int:
        """Records routed through the sketch (promoted traffic excluded)."""
        return self._total

    @property
    def ceiling(self) -> int:
        """Monotone count upper bound for every unmonitored key."""
        return self._ceiling

    @property
    def max_abs_y(self) -> float:
        """Largest ``|y|`` routed through the sketch so far."""
        return self._max_abs_y

    @property
    def replacements(self) -> int:
        """Slots displaced by newcomers since construction."""
        return self._replacements

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._slots

    def keys(self) -> Iterator[Hashable]:
        """Monitored keys, in admission order."""
        return iter(self._slots)

    def slot(self, key: Hashable) -> Slot | None:
        """The monitored slot for ``key`` (``None`` when unmonitored)."""
        return self._slots.get(key)

    def slots(self) -> Mapping[Hashable, Slot]:
        """Read-only view of every monitored slot, in admission order."""
        return MappingProxyType(self._slots)

    # --------------------------------------------------------------- heap

    def _push(self, key: Hashable, count: int) -> None:
        self._heap_seq += 1
        heapq.heappush(self._heap, (count, self._heap_seq, key))
        if len(self._heap) > 2 * self._capacity:
            self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        """One fresh entry per monitored slot, in slot order.

        Promotions and evictions free slots without popping their heap
        entries, and :meth:`_pop_min` only drains the heap once the
        sketch is full, so a sketch with free slots would otherwise keep
        every departed key's entry forever.  Rebuilt in place: callers
        may hold a reference to the list.
        """
        heap = self._heap
        heap.clear()
        for key, slot in self._slots.items():
            self._heap_seq += 1
            heap.append((slot.count, self._heap_seq, key))
        heapq.heapify(heap)

    def _pop_min(self) -> tuple[Hashable, Slot]:
        """Remove and return the slot with the (current) minimum count."""
        heap = self._heap
        slots = self._slots
        while True:
            count, _, key = heapq.heappop(heap)
            slot = slots.get(key)
            if slot is None:  # slot left the sketch since this entry
                continue
            if slot.count != count:  # stale: re-queue at its live count
                self._push(key, slot.count)
                continue
            del slots[key]
            return key, slot

    def min_count(self) -> int:
        """Current minimum slot count (0 while the sketch has free slots)."""
        if len(self._slots) < self._capacity:
            return 0
        heap = self._heap
        slots = self._slots
        while heap:
            count, _, key = heap[0]
            slot = slots.get(key)
            if slot is not None and slot.count == count:
                return count
            heapq.heappop(heap)
            if slot is not None:
                self._push(key, slot.count)
        return 0

    # ------------------------------------------------------------- updates

    def update(self, key: Hashable, record: Record) -> Slot:
        """Route one record for ``key``; returns its (possibly new) slot."""
        self._total += 1
        abs_y = abs(record.y)
        if abs_y > self._max_abs_y:
            self._max_abs_y = abs_y
        slot = self._slots.get(key)
        if slot is not None:
            slot.count += 1
            slot.mass += abs_y
            if len(slot.buffer) < self._buffer_limit:
                slot.buffer.append(record)
            return slot
        if len(self._slots) >= self._capacity:
            _, victim = self._pop_min()
            self._replacements += 1
            if victim.count > self._ceiling:
                self._ceiling = victim.count
        error = self._ceiling
        slot = Slot(
            error + 1,  # count
            error,
            abs_y,  # mass
            error * self._max_abs_y,  # mass_error
            [record] if self._buffer_limit else [],  # buffer
        )
        self._slots[key] = slot
        self._push(key, slot.count)
        return slot

    def remove(self, key: Hashable, forget: bool = False) -> Slot | None:
        """Detach ``key``'s slot (e.g. on promotion) without replacing it.

        With ``forget=True`` the key's count upper bound is folded into
        the ceiling — use when the key's history is being *discarded*
        (explicit eviction), so a later reappearance still satisfies the
        unmonitored bound.  A promotion keeps the history in the promoted
        estimator and must not widen the ceiling.
        """
        slot = self._slots.pop(key, None)
        if slot is not None and forget and slot.count > self._ceiling:
            self._ceiling = slot.count
        return slot

    def raise_ceiling(self, bound: int) -> None:
        """Record that a key with count upper bound ``bound`` was forgotten.

        Called when state *outside* the sketch (a promoted estimator) is
        dropped, so the unmonitored-key bound stays sound if the key
        reappears.
        """
        if bound > self._ceiling:
            self._ceiling = bound

    def reinsert(
        self,
        key: Hashable,
        hits: int,
        mass: float,
        missed: int = 0,
        promote_at: int = 0,
    ) -> Slot:
        """Re-admit a demoted key with its exactly known lifetime counters.

        ``hits``/``mass`` are the records and ``|y|`` mass the key is
        *known* to have received (estimator-side accounting); ``missed``
        is the upper bound on pre-promotion records the estimator never
        saw.  The slot keeps the over/under-count invariants: its count is
        clamped up to any displaced victim's so the ceiling argument for
        previously evicted keys still holds.
        """
        if key in self._slots:
            raise ConfigurationError(f"key {key!r} is already monitored")
        if hits < 0 or missed < 0:
            raise ConfigurationError("hits and missed must be >= 0")
        floor = 0
        if len(self._slots) >= self._capacity:
            _, victim = self._pop_min()
            self._replacements += 1
            if victim.count > self._ceiling:
                self._ceiling = victim.count
            floor = victim.count
        count = max(hits + missed, floor)
        slot = Slot(
            count=count,
            error=count - hits,
            mass=mass,
            mass_error=(count - hits) * self._max_abs_y,
            buffer=[],
            promote_at=promote_at,
        )
        self._slots[key] = slot
        self._push(key, slot.count)
        return slot

    # -------------------------------------------------------------- bounds

    def hit_bounds(self, key: Hashable) -> tuple[int, int]:
        """``(low, high)`` bounds on the key's true record count.

        Monitored keys get ``(count - error, count)``; unmonitored keys
        get ``(0, ceiling)`` — exact ``(0, 0)`` while nothing was ever
        displaced from the sketch.
        """
        slot = self._slots.get(key)
        if slot is not None:
            return slot.observed, slot.count
        return 0, self._ceiling

    def mass_bound(self, key: Hashable) -> float:
        """Upper bound on the key's true ``sum(|y|)``."""
        slot = self._slots.get(key)
        if slot is not None:
            return slot.mass + slot.mass_error
        return self._ceiling * self._max_abs_y

    def obs_state(self) -> dict[str, float]:
        """Live state-size gauges for the instrumentation layer."""
        return {
            "slots": float(len(self._slots)),
            "capacity": float(self._capacity),
            "ceiling": float(self._ceiling),
            "min_count": float(self.min_count()),
            "total": float(self._total),
            "replacements": float(self._replacements),
            "buffered_records": float(
                sum(len(slot.buffer) for slot in self._slots.values())
            ),
        }
