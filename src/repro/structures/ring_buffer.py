"""A fixed-capacity FIFO ring buffer.

The sliding-window estimators follow the paper's Figure 11 loop: *"add
incoming tuple to appropriate bucket; delete outgoing tuple from appropriate
bucket"*.  Deleting the outgoing tuple requires remembering it; this buffer
holds the last ``capacity`` items and hands back the evicted one, so the
estimator can decrement the right histogram bucket.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Generic, TypeVar

from repro.exceptions import ConfigurationError

T = TypeVar("T")


class RingBuffer(Generic[T]):
    """Fixed-capacity FIFO; pushing into a full buffer evicts the oldest item.

    >>> buf = RingBuffer(2)
    >>> buf.push('a'), buf.push('b'), buf.push('c')
    (None, None, 'a')
    >>> list(buf)
    ['b', 'c']
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"RingBuffer capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._items: list[T | None] = [None] * capacity
        self._start = 0
        self._size = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return self._size

    @property
    def is_full(self) -> bool:
        return self._size == self._capacity

    def push(self, item: T) -> T | None:
        """Append ``item``; return the evicted oldest item if the buffer was full."""
        evicted: T | None = None
        end = (self._start + self._size) % self._capacity
        if self.is_full:
            evicted = self._items[self._start]
            self._start = (self._start + 1) % self._capacity
        else:
            self._size += 1
        self._items[end] = item
        return evicted

    def load(self, items: "list[T]") -> None:
        """Replace the whole contents with ``items`` (oldest first).

        Bulk assignment for the columnar kernels: after a vectorised
        segment the live window is exactly the last ``len(items)`` history
        entries, so the buffer is rebuilt in one shot instead of ``n``
        pushes.  ``items`` must fit the capacity.
        """
        if len(items) > self._capacity:
            raise ConfigurationError(
                f"cannot load {len(items)} items into a RingBuffer of "
                f"capacity {self._capacity}"
            )
        self._items = list(items) + [None] * (self._capacity - len(items))
        self._start = 0
        self._size = len(items)

    def oldest(self) -> T:
        """The item that would be evicted next."""
        if self._size == 0:
            raise IndexError("oldest() on an empty RingBuffer")
        item = self._items[self._start]
        assert item is not None or True  # None is a legal stored value
        return item  # type: ignore[return-value]

    def newest(self) -> T:
        """The most recently pushed item."""
        if self._size == 0:
            raise IndexError("newest() on an empty RingBuffer")
        return self._items[(self._start + self._size - 1) % self._capacity]  # type: ignore[return-value]

    def __iter__(self) -> Iterator[T]:
        """Iterate oldest to newest."""
        for offset in range(self._size):
            yield self._items[(self._start + offset) % self._capacity]  # type: ignore[misc]

    def __getitem__(self, index: int) -> T:
        """0 is the oldest live item; negative indices count from the newest."""
        if index < 0:
            index += self._size
        if not 0 <= index < self._size:
            raise IndexError(f"index {index} out of range for size {self._size}")
        return self._items[(self._start + index) % self._capacity]  # type: ignore[return-value]
