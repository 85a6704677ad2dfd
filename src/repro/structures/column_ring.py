"""A window of ``(x, y, side)`` rows in flat columns, scoped by count or by time.

The sliding-window estimators follow the paper's Figure 11 loop: *"add
incoming tuple to appropriate bucket; delete outgoing tuple from
appropriate bucket"*.  Deleting the outgoing tuple needs its values and
the account its mass was credited to, so this ring keeps the last
``capacity`` rows as ``x`` and ``y`` float64 columns plus one *side* byte
per row, and hands back the rows a push evicts.  The scalar loop pushes
one row at a time, the columnar kernels a whole segment, so a chunk costs
O(chunk), never O(window).  The columns are ``array.array`` objects:
cheaper than numpy to index from Python, and still viewed in place by
numpy through ``np.frombuffer``.  Pickled state holds the live rows only,
oldest first, so it does not depend on where the head is.

A count window and a time window differ only in how a row leaves: a full
:class:`ColumnRing` evicts one row per push, a :class:`ClockedRing`
expires every row its clock has passed (zero, one or thousands, in
O(rows expired)).  Iteration, side assignment and pickling are shared.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Callable, Iterator

import numpy as np

from repro.exceptions import ConfigurationError, StreamError


class ColumnRing:
    """Fixed-capacity FIFO of ``(x, y, side)`` rows; a full ring evicts the oldest.

    A pushed row's side is 0 until :meth:`set_newest_side` or
    :meth:`assign_sides` stores the account it was credited to.

    >>> ring = ColumnRing(2)
    >>> ring.push(1.0, 9.0), ring.push(2.0, 1.0), ring.push(3.0, 1.0)
    (None, None, (1.0, 9.0, 0))
    >>> ring.set_newest_side(1)
    >>> list(ring)
    [(2.0, 1.0, 0), (3.0, 1.0, 1)]
    """

    #: :meth:`push` hands back at most one row here, a list when clocked.
    clocked = False

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"ColumnRing capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._xs = array("d", bytes(8 * capacity))
        self._ys = array("d", bytes(8 * capacity))
        self._sides = array("b", bytes(capacity))
        # Storage index of the oldest row; the live rows run from it for
        # `size` slots, wrapping at the capacity (0 until a count ring fills).
        self._head = 0
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push(self, x: float, y: float) -> tuple[float, float, int] | None:
        """Append a row; return the evicted oldest ``(x, y, side)`` if full."""
        i = self._size
        if i < self._capacity:
            self._xs[i] = x
            self._ys[i] = y
            self._sides[i] = 0
            self._size = i + 1
            return None
        i = self._head
        xs = self._xs
        ys = self._ys
        sides = self._sides
        evicted = (xs[i], ys[i], sides[i])
        xs[i] = x
        ys[i] = y
        sides[i] = 0
        i += 1
        self._head = 0 if i == self._capacity else i
        return evicted

    def set_newest_side(self, side: int) -> None:
        """Store the account code of the most recently pushed row."""
        i = self._head + self._size - 1
        self._sides[i - self._capacity if i >= self._capacity else i] = side

    def push_columns(self, xs, ys, sides) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Append equal-length columns of rows, with their side codes.

        Returns the evicted rows as ``(xs, ys, sides)`` arrays, in order:
        the oldest live rows first, then the chunk's own first rows when
        the chunk is longer than the room the window leaves them.  Row
        ``j`` of a chunk of ``k`` evicts exactly when ``j >= k - len(evicted)``.
        Count rings only.
        """
        chunk = (
            np.asarray(xs, dtype=np.float64),
            np.asarray(ys, dtype=np.float64),
            np.asarray(sides, dtype=np.int8),
        )
        k = len(chunk[0])
        cap = self._capacity
        size = self._size
        head = self._head
        gone = max(size + k - cap, 0)
        old = np.arange(head, head + min(gone, size))
        own = gone - len(old)  # chunk rows evicted by later chunk rows
        skip = max(k - cap, 0)  # chunk rows evicted before they are stored
        slots = np.arange(head + size + skip, head + size + k)
        evicted = []
        for column, values in zip(self._columns(), chunk):
            view = np.frombuffer(column, dtype=values.dtype)
            rows = view.take(old, mode="wrap")
            evicted.append(np.concatenate((rows, values[:own])) if own else rows)
            view.put(slots, values[skip:], mode="wrap")
        if size + k < cap:
            self._size = size + k
        else:
            self._size = cap
            self._head = (head + size + k) % cap
        return evicted[0], evicted[1], evicted[2]

    def assign_sides(self, route: Callable[[float, float], int]) -> None:
        """Call ``route(x, y)`` on every live row, oldest first, and store
        the side code it returns in that row (a from-window rebuild)."""
        xs = self._live(self._xs).tolist()
        sides = array("b", map(route, xs, self._live(self._ys).tolist()))
        head = self._head
        end = head + self._size
        cut = (end if end <= self._capacity else self._capacity) - head  # before the wrap
        self._sides[head : head + cut] = sides[:cut]
        self._sides[: self._size - cut] = sides[cut:]

    def x_values(self) -> list[float]:
        """The live rows' ``x`` values, oldest first."""
        return self._live(self._xs).tolist()

    def __iter__(self) -> Iterator[tuple[float, float, int]]:
        """The live ``(x, y, side)`` rows, oldest first (copied on the first
        ``next``, so an iterator that is never read costs nothing)."""
        yield from zip(self._live(self._xs), self._live(self._ys), self._live(self._sides))

    def _columns(self) -> tuple[array, ...]:
        return (self._xs, self._ys, self._sides)

    def _live(self, column: array) -> array:
        """A copy of ``column``'s live rows, oldest first."""
        end = self._head + self._size
        if end <= self._capacity:
            return column[self._head : end]
        return column[self._head :] + column[: end - self._capacity]

    def __getstate__(self) -> tuple:
        return (self._capacity, *(self._live(column).tobytes() for column in self._columns()))

    def __setstate__(self, state: tuple) -> None:
        capacity, *live = state
        ColumnRing.__init__(self, capacity)
        self._size = len(live[2])
        for column, data in zip(self._columns(), live):
            column[: self._size] = array(column.typecode, data)


class ClockedRing(ColumnRing):
    """The rows of the trailing ``duration`` before the clock (:meth:`tick`).

    A push first expires the rows with ``time <= now - duration``, then
    stamps the new row ``now``; a full ring doubles instead of evicting.

    >>> ring = ClockedRing(2.0)
    >>> ring.tick(0.0); ring.push(1.0, 9.0)
    >>> ring.tick(2.5); ring.push(2.0, 1.0)
    [(1.0, 9.0, 0)]
    """

    clocked = True

    def __init__(self, duration: float, capacity: int = 16) -> None:
        if not duration > 0.0:
            raise ConfigurationError(f"duration must be positive, got {duration}")
        super().__init__(capacity)
        self._ts = array("d", bytes(8 * capacity))
        self.duration = duration
        self.now = -math.inf

    def tick(self, now: float) -> None:
        """Advance the clock to ``now`` (finite and non-decreasing)."""
        if not math.isfinite(now):
            raise StreamError(f"non-finite timestamp {now!r}")
        if now < self.now:
            raise StreamError(f"timestamps must be non-decreasing: {now} after {self.now}")
        self.now = now

    def push(self, x: float, y: float) -> list[tuple[float, float, int]] | None:  # type: ignore[override]
        """Append ``(x, y)``; return the rows it expired, oldest first, if any."""
        xs, ys, sides, ts = self._columns()
        cutoff = self.now - self.duration
        expired = []
        while self._size and ts[self._head] <= cutoff:
            i = self._head
            expired.append((xs[i], ys[i], sides[i]))
            self._head = 0 if i + 1 == self._capacity else i + 1
            self._size -= 1
        if self._size == self._capacity:  # full: double, oldest row first
            for name, column in zip(("_xs", "_ys", "_sides", "_ts"), self._columns()):
                live = self._live(column)
                live.frombytes(bytes(live.itemsize * self._size))
                setattr(self, name, live)
            self._capacity *= 2
            self._head = 0
            xs, ys, sides, ts = self._columns()
        i = (self._head + self._size) % self._capacity
        xs[i], ys[i], sides[i], ts[i] = x, y, 0, self.now
        self._size += 1
        return expired or None

    def _columns(self) -> tuple[array, ...]:
        return (self._xs, self._ys, self._sides, self._ts)

    def __getstate__(self) -> tuple:
        return (*super().__getstate__(), self.duration, self.now)

    def __setstate__(self, state: tuple) -> None:
        *rows, self.duration, self.now = state
        self._ts = array("d", bytes(8 * rows[0]))
        super().__setstate__(tuple(rows))
