"""The shared-memory slot ring that carries sharded-ingestion chunks.

:class:`~repro.parallel.sharded.ShardedIngestor` moves records to its
workers through :class:`ShmTransport`: a zero-copy double-buffered ring
of ``multiprocessing.shared_memory`` float64 slabs per shard, plus one
duplex ``multiprocessing.Pipe`` per shard for everything else.  The
coordinator writes the xs/ys columns **directly into a free slot's
slab**, hands the slot over with a one-tuple message down the shard's
pipe, and the worker wraps the slab in a numpy view and feeds it
straight into ``update_columns(..., collect="none")`` — the column data
crosses the process boundary without being pickled or copied.  When
every slot of a shard's ring is in flight the coordinator **stalls**
until the worker returns one; the stall count is the transport's
backpressure gauge.

Each shard's pipe is one FIFO per direction.  Coordinator to worker:
``("slot", i, n)``, ``("query",)`` and ``("stop",)``.  Worker to
coordinator: ``("free", i)``, ``("summary", estimator, ingested)`` and
``("error", traceback, ingested)``.  So a query message is a barrier
behind every slot handed off before it, and the ``free`` of every slot
the worker drained arrives ahead of its ``summary``.

Slot lifecycle (``slots_per_shard`` defaults to 2 — double buffering)::

    coordinator                                  worker (shard i)
        free: {0, 1}                                  |
        write cols -> slab[0]                         |
        send ("slot", 0, n) -----------------------> wrap numpy view,
        write cols -> slab[1]                         update_columns(...)
        send ("slot", 1, n) ------------------+       |
        free: {} -> read the pipe, BLOCK      |      send ("free", 0)
        (transport.stalls += 1)  <-- 0 -------+------ |
        write cols -> slab[0] ...                     |

The coordinator reads every shard's replies in one loop,
``multiprocessing.connection.wait`` over the shard pipes plus the worker
processes' sentinels: returned slots go back on the shard's free list,
a worker's ``error`` raises :class:`~repro.exceptions.StreamError` with
the worker's traceback wherever the coordinator is waiting, and a worker
that dies without a word is seen as soon as its sentinel fires.

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
"""

from __future__ import annotations

import multiprocessing as mp
import os
import secrets
import select
import time
from collections.abc import Callable, Sequence
from multiprocessing import shared_memory
from multiprocessing.connection import wait
from pathlib import Path

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
    (xs column, then ys) and one duplex pipe carrying the slot hand-offs,
    the query/stop fences and every reply.  The column data itself never
    touches the pipe.

    Backpressure: :meth:`send_records` blocks when no slot is free,
    counting one stall (and the seconds spent) per blocking acquire —
    a persistently stalling coordinator means the workers, not the
    transport, are the bottleneck.  Once :meth:`adopt` has the worker
    processes, a dead worker raises :class:`~repro.exceptions.StreamError`
    at once instead of waiting out ``stall_timeout``; so does a worker's
    ``error`` reply, with its traceback.
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
        #: Called as ``on_error(shard, ingested, sent)`` just before a
        #: worker's ``error`` reply is raised; the ingestor's obs hook.
        self.on_error: Callable[[int, int, int], None] | None = None
        self._conns: list = []
        self._worker_conns: list = []
        self._processes: list = []
        self._slabs: list[list[shared_memory.SharedMemory]] = []
        self._views: list[list[tuple]] = []
        self._local_free: list[list[int]] = []
        self._records: list[int] = []
        self._handoffs = 0
        self._bytes = 0
        self._stalls = 0
        self._stall_seconds = 0.0
        self._closed = False

    def start(self, ctx, shards: int) -> None:
        """Create the slabs and one duplex pipe for every shard."""
        nbytes = 2 * self._capacity * _FLOAT_BYTES
        pipes = [ctx.Pipe(duplex=True) for _ in range(shards)]
        self._conns = [ours for ours, _ in pipes]
        self._worker_conns = [theirs for _, theirs in pipes]
        self._slabs = [
            [_create_slab(nbytes) for _ in range(self._slots)] for _ in range(shards)
        ]
        self._views = [
            [_slab_views(slab, self._capacity) for slab in row] for row in self._slabs
        ]
        # Every slot starts free on the coordinator side; the pipes only
        # ever carry slots coming *back* from the workers.
        self._local_free = [list(range(self._slots)) for _ in range(shards)]
        self._records = [0] * shards
        self._processes = []
        self._closed = False

    def worker_endpoint(self, shard: int) -> "ShmEndpoint":
        """The worker's handle: its pipe end plus slab names to attach by."""
        return ShmEndpoint(
            self._worker_conns[shard],
            [slab.name for slab in self._slabs[shard]],
            self._capacity,
        )

    def adopt(self, process) -> None:
        """Take the next shard's started worker process, in shard order.

        The worker now holds its own end of its pipe, so the coordinator
        closes its copy (before the next fork can inherit it); the
        process's sentinel joins the receive loop, so a dead worker is
        seen at once.
        """
        self._worker_conns[len(self._processes)].close()
        self._processes.append(process)

    def records_sent(self, shard: int) -> int:
        """Records handed off to ``shard`` so far (0 before :meth:`start`)."""
        return self._records[shard] if shard < len(self._records) else 0

    def _acquire_slot(self, shard: int) -> int:
        local = self._local_free[shard]
        if not local:
            # Take the slots already returned without blocking; only an
            # empty pipe means the worker owns the whole ring.
            self._drain(shard)
        if not local:
            self._stalls += 1
            started = time.perf_counter()
            try:
                self._receive([shard], lambda replies: bool(local), "for a free transport slot")
            finally:
                self._stall_seconds += time.perf_counter() - started
        return local.pop()

    def send_records(self, shard: int, records) -> None:
        """Write ``records`` column-wise into free slots and hand them off."""
        for lo in range(0, len(records), self._capacity):
            part = records[lo : lo + self._capacity]
            n = len(part)
            slot = self._acquire_slot(shard)
            records_to_columns(part, out=self._views[shard][slot])
            self.send_control(shard, ("slot", slot, n))
            self._records[shard] += n
            self._handoffs += 1
            self._bytes += 2 * n * _FLOAT_BYTES

    def send_control(self, shard: int, message: tuple) -> None:
        """Control messages share the slot pipe, so they are fences."""
        try:
            self._conns[shard].send(message)
        except OSError:
            # The worker is gone; an error it sent first says why.
            self._drain(shard)
            raise StreamError(f"shard {shard} worker died ({self._describe(shard)})") from None

    def collect(self) -> list[tuple]:
        """Wait for one reply from every shard; their payloads in shard order."""
        shards = len(self._conns)
        replies = self._receive(
            range(shards), lambda replies: len(replies) == shards, "for a reply"
        )
        return [replies[shard][1:] for shard in range(shards)]

    def _drain(self, shard: int) -> None:
        """Read every reply already waiting on ``shard``'s pipe."""
        conn = self._conns[shard]
        while conn.poll():
            self._read(shard)

    def _read(self, shard: int) -> tuple | None:
        """One reply off ``shard``'s pipe: recycle a slot, raise an error, or return it."""
        try:
            message = self._conns[shard].recv()
        except (EOFError, OSError):
            raise StreamError(f"shard {shard} worker died ({self._describe(shard)})") from None
        tag = message[0]
        if tag == "free":
            self._local_free[shard].append(message[1])
            return None
        if tag == "error":
            _, report, ingested = message
            sent = self._records[shard]
            if self.on_error is not None:
                self.on_error(shard, ingested, sent)
            raise StreamError(
                f"shard {shard} failed after ingesting {ingested} of {sent} sent records:\n{report}"
            )
        return message

    def _receive(
        self,
        shards: Sequence[int],
        done: Callable[[dict[int, tuple]], bool],
        waiting: str,
    ) -> dict[int, tuple]:
        """Read ``shards``' pipes until ``done(replies)``: the one receive loop.

        ``replies`` maps a shard to its latest reply other than ``free``.
        A worker whose sentinel fires with nothing left in its pipe is
        dead; the wait as a whole gives up after ``stall_timeout``.
        """
        replies: dict[int, tuple] = {}
        conns = {self._conns[shard]: shard for shard in shards}
        sentinels = {
            self._processes[shard].sentinel: shard
            for shard in shards
            if shard < len(self._processes)
        }
        deadline = time.monotonic() + self._stall_timeout
        while not done(replies):
            remaining = deadline - time.monotonic()
            ready = wait([*conns, *sentinels], remaining) if remaining > 0 else []
            if not ready:
                raise StreamError(
                    f"timed out after {self._stall_timeout}s waiting {waiting} "
                    f"from shards {list(shards)} (workers alive but not answering)"
                )
            for handle in ready:
                if handle in conns:
                    shard = conns[handle]
                    message = self._read(shard)
                    if message is not None:
                        replies[shard] = message
                elif not self._conns[sentinels[handle]].poll():
                    shard = sentinels[handle]
                    raise StreamError(
                        f"shard {shard} worker died while the coordinator waited "
                        f"{waiting} ({self._describe(shard)})"
                    )
        return replies

    def _describe(self, shard: int) -> str:
        if shard >= len(self._processes):
            return "no worker process"
        process = self._processes[shard]
        return f"{process.name} exitcode={process.exitcode}"

    def close(self) -> None:
        """Close the pipes and unlink every slab (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for conn in [*self._conns, *self._worker_conns]:
            conn.close()
        self._conns = []
        self._worker_conns = []
        self._processes = []
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

    Picklable for ``spawn``: carries the worker's pipe end (inherited
    through the process spawner), slab *names*, and the slot capacity —
    never the maps themselves.
    """

    def __init__(self, conn, slab_names: list[str], capacity: int) -> None:
        self._conn = conn
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
        """Next message: zero-copy ("columns", views) for a slot, or a fence.

        A worker waits on its pipe and its parent together and reads the
        parent's death as a ``"stop"``: a fork-started worker inherits the
        coordinator's pipe end, so a killed coordinator never closes it.
        One ``poll`` call watches both (``Connection.poll`` alone costs
        more than that, through a selector built per call)."""
        conn = self._conn
        parent = mp.parent_process()
        if parent is not None:
            watch = select.poll()
            watch.register(conn, select.POLLIN)
            watch.register(parent.sentinel, select.POLLIN)
            if conn.fileno() not in {fd for fd, _ in watch.poll()}:
                return "stop", None
        message = conn.recv()
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
            self._conn.send(("free", self._pending))
            self._pending = None

    def reply(self, message: tuple) -> None:
        """Send a ``summary`` or ``error`` back, behind every ``free`` so far."""
        self._conn.send(message)

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
