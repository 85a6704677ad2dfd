"""Checkpoint and restore estimator state.

Stream processors checkpoint their operator state so a restart resumes
where the stream left off instead of re-reading an unbounded past.  Every
estimator in this library is a plain Python object whose state is a small
graph of floats, lists and named tuples, so pickling is a faithful
serialisation; these helpers add a format header and a version check so a
checkpoint from an incompatible library version fails loudly instead of
resuming with silently different semantics.  The header is read before
any estimator class is resolved (the estimator is pickled separately,
inside the header's payload), so a checkpoint naming a class that no
longer exists is still refused by its format number.

Writes are *atomic*: the blob lands in a temporary file in the target's
directory, is flushed and fsynced, and only then renamed over the final
path with :func:`os.replace`.  A crash at any point leaves either the
previous complete checkpoint or no checkpoint — never a truncated file
that poisons the next restart.  All filesystem calls go through a
:class:`Filesystem` object so the fault-injection harness
(:mod:`repro.testing.faults`) can crash a write at an exact point.

Security note: like all pickle-based formats, checkpoints must only be
loaded from trusted sources — loading executes arbitrary code by design.

>>> from repro import CorrelatedQuery, build_estimator
>>> from repro.persistence import dumps_estimator, loads_estimator
>>> est = build_estimator(CorrelatedQuery("count", "avg"), "piecemeal-uniform")
>>> _ = est.update((5.0, 1.0))
>>> resumed = loads_estimator(dumps_estimator(est))
>>> resumed.estimate() == est.estimate()
True
"""

from __future__ import annotations

import contextlib
import io
import os
import pickle
from pathlib import Path

import repro
from repro.exceptions import StreamError
from repro.streams.model import StreamAlgorithm

#: Bumped when estimator internals change incompatibly.  Format 3: a
#: sliding window is a ``ColumnRing`` of float columns (format 2 pickled a
#: list of per-record cells), and the estimator is pickled as its own bytes.
#: Format 4: a time window is a ``ClockedRing`` too (format 3 pickled a
#: deque of ``[time, record, side]`` cells).
FORMAT_VERSION = 4

_MAGIC = b"repro-checkpoint"

#: Suffix of in-flight temporary files; readers must ignore these.
TMP_SUFFIX = ".tmp"


class Filesystem:
    """The os calls the checkpoint path makes, behind one seam.

    The durability argument for atomic checkpoints only holds if every
    write really reaches the disk in the claimed order, and the only way
    to *test* the crash windows between those calls is to be able to fail
    each one individually.  Production code uses the shared :data:`OS_FS`
    instance; tests inject a :class:`repro.testing.faults.FailingFilesystem`.
    """

    def write_bytes(self, path: Path, data: bytes) -> None:
        """Write ``data`` to ``path`` and fsync the file before closing."""
        with open(path, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())

    def read_bytes(self, path: Path) -> bytes:
        """Read ``path`` whole."""
        return Path(path).read_bytes()

    def replace(self, src: Path, dst: Path) -> None:
        """Atomically rename ``src`` over ``dst`` (POSIX rename semantics)."""
        os.replace(src, dst)

    def fsync_dir(self, directory: Path) -> None:
        """Persist a rename by fsyncing its directory (best effort)."""
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:  # platform without directory fds (e.g. Windows)
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def remove(self, path: Path) -> None:
        """Delete ``path`` (used by generation rotation and tmp cleanup)."""
        os.remove(path)

    def mkdir(self, directory: Path) -> None:
        """Create ``directory`` (and parents) if it does not exist yet."""
        Path(directory).mkdir(parents=True, exist_ok=True)

    def listdir(self, directory: Path) -> list[str]:
        """Name every entry of ``directory``."""
        return os.listdir(directory)


#: Shared default instance — the real filesystem.
OS_FS = Filesystem()


def atomic_write_bytes(path: str | Path, data: bytes, fs: Filesystem | None = None) -> None:
    """Write ``data`` to ``path`` so a crash never leaves a partial file.

    The data goes to ``<path>.tmp.<pid>`` in the same directory (same
    filesystem, so the rename is atomic), is fsynced, and is then renamed
    over ``path``; finally the directory entry itself is fsynced.  On any
    failure the temporary file is removed best-effort and the previous
    content of ``path`` is untouched.
    """
    fs = fs if fs is not None else OS_FS
    path = Path(path)
    tmp = path.with_name(f"{path.name}{TMP_SUFFIX}.{os.getpid()}")
    try:
        fs.write_bytes(tmp, data)
        fs.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(Exception):
            fs.remove(tmp)
        raise
    fs.fsync_dir(path.parent)


def dumps_estimator(estimator: StreamAlgorithm) -> bytes:
    """Serialise an estimator (any ``update``-capable object) to bytes."""
    payload = {
        "magic": _MAGIC,
        "format": FORMAT_VERSION,
        "library": repro.__version__,
        "estimator": pickle.dumps(estimator, protocol=pickle.HIGHEST_PROTOCOL),
    }
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


class _Unresolved:
    """Stands in for every object a header pass meets: the header is read
    without importing or running anything the blob names."""

    def _ignore(self, *args, **kwargs) -> None:
        """Accept any construction or state call; keep nothing."""

    __init__ = __setstate__ = __setitem__ = append = extend = _ignore


class _HeaderUnpickler(pickle.Unpickler):
    """Unpickles a checkpoint header; every class or function it names
    resolves to :class:`_Unresolved`.  Earlier formats pickled the
    estimator inline, so this is how their format number is read."""

    def find_class(self, module: str, name: str) -> type:
        return _Unresolved


def loads_estimator(blob: bytes) -> StreamAlgorithm:
    """Restore an estimator serialised by :func:`dumps_estimator`."""
    try:
        payload = _HeaderUnpickler(io.BytesIO(blob)).load()
    except Exception as exc:  # pickle raises a zoo of types
        raise StreamError(f"not a repro checkpoint: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("magic") != _MAGIC:
        raise StreamError("not a repro checkpoint (missing header)")
    if payload.get("format") != FORMAT_VERSION:
        raise StreamError(
            f"checkpoint format {payload.get('format')} is not supported "
            f"(this library reads format {FORMAT_VERSION})"
        )
    if not isinstance(payload.get("estimator"), bytes):
        raise StreamError(
            "malformed repro checkpoint: valid header but no 'estimator' payload"
        )
    try:
        return pickle.loads(payload["estimator"])
    except Exception as exc:
        raise StreamError(f"corrupt repro checkpoint payload: {exc}") from exc


def save_estimator(
    estimator: StreamAlgorithm, path: str | Path, fs: Filesystem | None = None
) -> None:
    """Atomically write an estimator checkpoint to ``path``."""
    atomic_write_bytes(path, dumps_estimator(estimator), fs=fs)


def load_estimator(path: str | Path, fs: Filesystem | None = None) -> StreamAlgorithm:
    """Read an estimator checkpoint from ``path``."""
    fs = fs if fs is not None else OS_FS
    try:
        blob = fs.read_bytes(Path(path))
    except OSError as exc:
        raise StreamError(f"cannot read checkpoint {path}: {exc}") from exc
    return loads_estimator(blob)
