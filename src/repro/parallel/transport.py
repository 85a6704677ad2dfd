"""The shared-memory slot ring that carries sharded-ingestion chunks.

:class:`~repro.parallel.sharded.ShardedIngestor` moves records to its
workers through :class:`ShmTransport`: a zero-copy double-buffered ring
of ``multiprocessing.shared_memory`` float64 slabs per shard.  The
coordinator writes the xs/ys columns **directly into a free slot's
slab**, hands the slot over with a one-int control message, and the
worker wraps the slab in a numpy view and feeds it straight into
``update_columns(..., collect="none")`` — the column data crosses the
process boundary without being pickled or copied.  When every slot of a
shard's ring is in flight the coordinator **stalls** until the worker
returns one; the stall count is the transport's backpressure gauge.

Slot lifecycle (``slots_per_shard`` defaults to 2 — double buffering)::

    coordinator                                  worker (shard i)
        free: {0, 1}                                  |
        write cols -> slab[0]                         |
        control.put(("slot", 0, n)) ---------------> wrap numpy view,
        write cols -> slab[1]                         update_columns(...)
        control.put(("slot", 1, n)) ----------+       |
        free: {} -> BLOCK on free queue       |      free.put(0)
        (transport.stalls += 1)  <-- 0 -------+------ |
        write cols -> slab[0] ...                     |

Worker-side attachment is **resource-tracker quiet**: workers never
unlink (the coordinator owns every slab) and never unbalance the shared
resource tracker's books — see :func:`_attach_slab` for the per-version
details.  A normal run, including under ``-W error``, must produce no
"leaked shared_memory" warnings and no tracker KeyError noise; the test
suite pins that in a subprocess.

The coordinator unlinks every slab in :meth:`ShmTransport.close`; a
coordinator that dies by SIGKILL leaves its resource tracker to clean
up, and if the whole process group is killed (tracker included) the
orphans stay in ``/dev/shm`` — :func:`unlink_stale_slabs` is the
operator mop for that case.

Summaries and errors still travel worker-to-coordinator over a plain
shared output queue owned by the ingestor: that path carries a handful
of messages per query, not per chunk, so it has nothing to gain from
shared memory.
"""

from __future__ import annotations

import os
import queue as queue_mod
import secrets
import time
from multiprocessing import shared_memory
from pathlib import Path
from typing import Callable

import numpy as np

from repro.exceptions import ConfigurationError, StreamError
from repro.streams.columns import records_to_columns

__all__ = ["DEFAULT_SLOTS", "ShmTransport", "unlink_stale_slabs"]

#: Slots per shard ring: two means classic double buffering — the worker
#: drains one slab while the coordinator fills the other.
DEFAULT_SLOTS = 2

#: Shared-memory segment name prefix (short: macOS caps names at 31 chars).
SLAB_PREFIX = "repro-"

_FLOAT_BYTES = 8


def _create_slab(nbytes: int) -> shared_memory.SharedMemory:
    """Create one named slab, retrying name collisions."""
    for _ in range(16):
        name = f"{SLAB_PREFIX}{os.getpid()}-{secrets.token_hex(3)}"
        try:
            return shared_memory.SharedMemory(name=name, create=True, size=nbytes)
        except FileExistsError:  # pragma: no cover - 24 random bits collided
            continue
    raise StreamError("could not allocate a shared-memory slab name")


def _attach_slab(name: str) -> shared_memory.SharedMemory:
    """Attach to a coordinator-owned slab, resource-tracker quiet.

    The worker must never unlink the slab — the coordinator owns it and
    unlinks in :meth:`ShmTransport.close`.  CPython 3.13+ makes that
    explicit with ``track=False``.  On earlier versions the attach
    re-registers the name, but a ``multiprocessing`` child shares its
    parent's resource tracker and the tracker's cache is a set, so the
    duplicate registration is a no-op and the coordinator's single
    unlink balances the books — crucially the worker must NOT
    ``unregister`` (that would strip the coordinator's registration from
    the shared tracker and turn the later unlink into tracker noise).
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - depends on interpreter version
        return shared_memory.SharedMemory(name=name)


def _slab_views(shm: shared_memory.SharedMemory, capacity: int):
    """(xs, ys) float64 views over one slab: xs first, ys second."""
    xs = np.frombuffer(shm.buf, dtype=np.float64, count=capacity, offset=0)
    ys = np.frombuffer(
        shm.buf, dtype=np.float64, count=capacity, offset=capacity * _FLOAT_BYTES
    )
    return xs, ys


def unlink_stale_slabs(prefix: str = SLAB_PREFIX) -> list[str]:
    """Remove orphaned transport slabs left by a killed coordinator.

    Normally the coordinator unlinks its slabs in :meth:`ShmTransport.
    close`, and even a SIGKILLed coordinator's resource tracker mops up
    behind it.  Only when the tracker dies too (the whole process group
    killed) do segments persist — this scans ``/dev/shm`` for slab names
    and removes them.  Returns the names it unlinked; a no-op (empty
    list) on platforms without ``/dev/shm``.
    """
    removed: list[str] = []
    shm_dir = Path("/dev/shm")
    if not shm_dir.is_dir():
        return removed
    for path in shm_dir.glob(f"{prefix}*"):
        try:
            path.unlink()
        except OSError:  # pragma: no cover - raced another cleaner
            continue
        removed.append(path.name)
    return removed


class ShmTransport:
    """Zero-copy slot ring over ``multiprocessing.shared_memory`` slabs.

    Per shard: ``slots_per_shard`` slabs of ``2 * chunk_size`` float64s
    (xs column, then ys), a control queue carrying ``("slot", i, n)``
    hand-offs (plus the query/stop fences), and a free queue returning
    slot indices.  The column data itself never touches a queue.

    Backpressure: :meth:`send_records` blocks when no slot is free,
    counting one stall (and the seconds spent) per blocking acquire —
    a persistently stalling coordinator means the workers, not the
    transport, are the bottleneck.  While blocked it polls ``liveness``
    so a dead worker raises :class:`~repro.exceptions.StreamError`
    instead of waiting out ``stall_timeout``.
    """

    def __init__(
        self,
        chunk_size: int,
        slots_per_shard: int = DEFAULT_SLOTS,
        stall_timeout: float = 120.0,
    ) -> None:
        if chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
        if not isinstance(slots_per_shard, int) or slots_per_shard < 1:
            raise ConfigurationError(
                f"slots_per_shard must be a positive integer, got {slots_per_shard!r}"
            )
        self._capacity = chunk_size
        self._slots = slots_per_shard
        self._stall_timeout = stall_timeout
        self.liveness: Callable[[int], str | None] | None = None
        self._control: list = []
        self._free: list = []
        self._slabs: list[list[shared_memory.SharedMemory]] = []
        self._views: list[list[tuple]] = []
        self._local_free: list[list[int]] = []
        self._handoffs = 0
        self._bytes = 0
        self._stalls = 0
        self._stall_seconds = 0.0
        self._closed = False

    def start(self, ctx, shards: int) -> None:
        """Create the slabs, control and free-slot queues for every shard."""
        nbytes = 2 * self._capacity * _FLOAT_BYTES
        self._control = [ctx.Queue() for _ in range(shards)]
        self._free = [ctx.Queue() for _ in range(shards)]
        self._slabs = [
            [_create_slab(nbytes) for _ in range(self._slots)] for _ in range(shards)
        ]
        self._views = [
            [_slab_views(slab, self._capacity) for slab in row] for row in self._slabs
        ]
        # Every slot starts free on the coordinator side; the free queues
        # only ever carry slots coming *back* from the workers.
        self._local_free = [list(range(self._slots)) for _ in range(shards)]
        self._closed = False

    def worker_endpoint(self, shard: int) -> "ShmEndpoint":
        """The worker's handle: queues plus slab names to attach by."""
        return ShmEndpoint(
            self._control[shard],
            self._free[shard],
            [slab.name for slab in self._slabs[shard]],
            self._capacity,
        )

    def _acquire_slot(self, shard: int) -> int:
        local = self._local_free[shard]
        if local:
            return local.pop()
        free = self._free[shard]
        try:
            # Returned slots cross a feeder thread, so allow a short grace
            # before calling the wait a stall: a slot released moments ago
            # is scheduling noise, not worker backpressure.
            return free.get(timeout=0.005)
        except queue_mod.Empty:
            pass
        # Ring exhausted: the worker owns every slot.  Block, counting
        # the stall, until one comes back or the worker proves dead.
        self._stalls += 1
        started = time.perf_counter()
        while True:
            try:
                slot = free.get(timeout=0.05)
                self._stall_seconds += time.perf_counter() - started
                return slot
            except queue_mod.Empty:
                waited = time.perf_counter() - started
                if self.liveness is not None:
                    dead = self.liveness(shard)
                    if dead:
                        self._stall_seconds += waited
                        raise StreamError(
                            f"shard {shard} worker died holding every "
                            f"transport slot ({dead})"
                        ) from None
                if waited >= self._stall_timeout:
                    self._stall_seconds += waited
                    raise StreamError(
                        f"timed out after {self._stall_timeout}s waiting for "
                        f"shard {shard} to return a transport slot "
                        "(worker alive but not draining)"
                    ) from None

    def send_records(self, shard: int, records) -> None:
        """Write ``records`` column-wise into free slots and hand them off."""
        control = self._control[shard]
        for lo in range(0, len(records), self._capacity):
            part = records[lo : lo + self._capacity]
            n = len(part)
            slot = self._acquire_slot(shard)
            records_to_columns(part, out=self._views[shard][slot])
            control.put(("slot", slot, n))
            self._handoffs += 1
            self._bytes += 2 * n * _FLOAT_BYTES

    def send_control(self, shard: int, message: tuple) -> None:
        """Control messages share the slot queue, so they are fences."""
        self._control[shard].put(message)

    def close(self) -> None:
        """Tear down queues and unlink every slab (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for queue in [*self._control, *self._free]:
            queue.close()
            queue.cancel_join_thread()
        self._views = []
        for row in self._slabs:
            for slab in row:
                try:
                    slab.close()
                except BufferError:  # pragma: no cover - caller-held view
                    pass
                try:
                    slab.unlink()
                except FileNotFoundError:  # pragma: no cover - already mopped
                    pass
        self._slabs = []
        self._control = []
        self._free = []

    def stats(self) -> dict[str, float]:
        """Slots handed off, bytes moved, and the backpressure gauges."""
        return {
            "slots": float(self._handoffs),
            "bytes": float(self._bytes),
            "stalls": float(self._stalls),
            "stall_seconds": self._stall_seconds,
        }


class ShmEndpoint:
    """Worker-side shm handle: attach by name, read views, return slots.

    Picklable for ``spawn``: carries queue handles (inherited through the
    process spawner), slab *names*, and the slot capacity — never the
    maps themselves.
    """

    def __init__(self, control, free, slab_names: list[str], capacity: int) -> None:
        self._control = control
        self._free = free
        self._names = slab_names
        self._capacity = capacity
        self._slabs: list[shared_memory.SharedMemory] | None = None
        self._views: list[tuple] | None = None
        self._pending: int | None = None

    def __getstate__(self) -> dict[str, object]:
        state = dict(self.__dict__)
        state["_slabs"] = None  # maps are per-process; re-attach after spawn
        state["_views"] = None
        return state

    def attach(self) -> None:
        """Map every slab by name and build the per-slot column views."""
        self._slabs = [_attach_slab(name) for name in self._names]
        self._views = [_slab_views(slab, self._capacity) for slab in self._slabs]

    def recv(self) -> tuple[str, object]:
        """Next message: zero-copy ("columns", views) for a slot, or a fence."""
        message = self._control.get()
        tag = message[0]
        if tag != "slot":
            return tag, None
        _, slot, n = message
        self._pending = slot
        xs, ys = self._views[slot]
        return "columns", (xs[:n], ys[:n])

    def release(self) -> None:
        """Return the slot read by the last :meth:`recv` to the ring."""
        if self._pending is not None:
            self._free.put(self._pending)
            self._pending = None

    def detach(self) -> None:
        """Unmap the slabs (views first — they hold buffer exports)."""
        if self._slabs is not None:
            # Views must drop before close(): releasing a memoryview with
            # live exports (numpy views included) raises BufferError.
            self._views = None
            for slab in self._slabs:
                try:
                    slab.close()
                except BufferError:  # caller still holds a recv() view
                    pass
            self._slabs = None
