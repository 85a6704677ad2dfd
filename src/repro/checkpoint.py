"""Crash-safe checkpoint/resume runtime for continual stream processors.

The paper's setting is a *continual* query: the stream is unbounded, so a
processor that crashes cannot re-read the past — whatever state the
estimator carried must come back from durable storage.  A
:class:`CheckpointManager` owns that lifecycle for any snapshottable
target (a single estimator, a :class:`~repro.core.multiplex.QueryEngine`,
a :class:`~repro.keyed.GatedKeyedBank`, or any picklable object):

* **atomic writes** — every generation goes through
  :func:`repro.persistence.atomic_write_bytes` (temp file + fsync +
  ``os.replace``), so a crash mid-checkpoint leaves the previous
  generation intact, never a torn file;
* **scheduling** — :meth:`maybe_save` checkpoints every ``every`` tuples,
  :meth:`save_final` once more at end of stream; :meth:`save`
  checkpoints on demand;
* **rotation** — the newest ``retain`` generations are kept on disk,
  older ones are deleted after a successful write (never before);
* **offset tracking** — each generation records the stream offset (tuples
  consumed) and an optional ``source`` tag; :meth:`resume` verifies both
  against the stream being resumed and hands back the restored target
  plus the gap still to replay;
* **corruption fallback** — :meth:`restore` walks generations newest to
  oldest, skipping any blob :mod:`repro.persistence` rejects, so one
  damaged file degrades recovery by one generation instead of killing it;
* **observability** — ``checkpoint.write`` / ``checkpoint.restore`` /
  ``checkpoint.corrupt`` / ``recovery.replayed`` events flow through the
  standard :class:`~repro.obs.sink.ObsSink` layer.

Typical use — :func:`repro.eval.tracker.evaluate_methods` drives a
whole evaluation with ``checkpoint=manager`` (and ``resume=True``); a
hand-written loop over one target looks like::

    manager = CheckpointManager("ckpts/", every=1_000, source="USAGE:20000")
    target, offset = manager.resume(records, fresh=lambda: build_estimator(q, m))
    for consumed, record in enumerate(records[offset:], start=offset + 1):
        target.update(record)
        manager.maybe_save(target, consumed)
    manager.save_final(target, len(records), offset)
"""

from __future__ import annotations

import re
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.exceptions import ConfigurationError, StreamError
from repro.obs.sink import NULL_SINK, ObsSink
from repro.obs.trace import NULL_TRACER, Tracer
from repro.persistence import (
    OS_FS,
    Filesystem,
    atomic_write_bytes,
    dumps_estimator,
    loads_estimator,
)

#: Generation filename shape: offset, zero-padded so names sort like numbers.
_GENERATION_RE = re.compile(r"^ckpt-(\d{12})\.ckpt$")


def generation_name(offset: int) -> str:
    """Filename of the generation taken at stream ``offset``."""
    return f"ckpt-{offset:012d}.ckpt"


@dataclass(frozen=True)
class CheckpointState:
    """What one generation persists: the target plus its stream position."""

    target: object
    offset: int
    source: str | None = None


@dataclass(frozen=True)
class RestoredCheckpoint:
    """A successfully restored generation."""

    target: object
    offset: int
    path: Path
    #: Newer generations that were skipped as corrupt during fallback.
    skipped: int = 0


class CheckpointManager:
    """Snapshot, rotate, and restore one stream processor's state.

    Parameters
    ----------
    directory:
        Where generations live.  Created on the first save.
    every:
        Checkpoint period in tuples for :meth:`maybe_save` (``None``
        disables the schedule; :meth:`save` still works on demand).
    retain:
        Number of newest generations kept on disk (older ones are removed
        after each successful write).
    source:
        Optional identity tag of the stream this state was computed over
        (e.g. ``"USAGE:as-is:20000"``).  Stored in every generation and
        verified on restore, so state from one stream cannot silently
        resume over another.
    sink:
        Optional :class:`~repro.obs.sink.ObsSink` for lifecycle events.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; writes, restores,
        resumes and replay runs execute inside ``checkpoint.*`` /
        ``recovery.*`` spans.
    fs:
        Filesystem seam (fault injection); the real one by default.
    """

    def __init__(
        self,
        directory: str | Path,
        every: int | None = None,
        retain: int = 3,
        source: str | None = None,
        sink: ObsSink | None = None,
        tracer: Tracer | None = None,
        fs: Filesystem | None = None,
    ) -> None:
        if every is not None and every <= 0:
            raise ConfigurationError(f"every must be positive, got {every}")
        if retain < 1:
            raise ConfigurationError(f"retain must be >= 1, got {retain}")
        self._directory = Path(directory)
        self._every = every
        self._retain = retain
        self._source = source
        self._obs = sink if sink is not None else NULL_SINK
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._fs = fs if fs is not None else OS_FS
        self._last_saved: int | None = None

    # ---------------------------------------------------------- inventory

    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def every(self) -> int | None:
        return self._every

    @property
    def source(self) -> str | None:
        return self._source

    @property
    def last_saved(self) -> int | None:
        """Offset of the last generation written by *this* manager."""
        return self._last_saved

    def generations(self) -> list[tuple[int, Path]]:
        """On-disk generations as ``(offset, path)``, oldest first.

        In-flight temporaries (``*.tmp.<pid>`` debris from a crash) and
        foreign files are ignored — they are never candidates for restore.
        """
        try:
            names = self._fs.listdir(self._directory)
        except OSError:
            return []
        found = []
        for name in names:
            match = _GENERATION_RE.match(name)
            if match is not None:  # anchored: "*.tmp.<pid>" debris never matches
                found.append((int(match.group(1)), self._directory / name))
        return sorted(found)

    # -------------------------------------------------------------- writes

    def save(self, target: object, offset: int) -> Path:
        """Write one generation at stream ``offset`` and rotate old ones."""
        if offset < 0:
            raise ConfigurationError(f"offset must be >= 0, got {offset}")
        with self._tracer.span("checkpoint.write", offset=float(offset)) as span:
            self._fs.mkdir(self._directory)
            path = self._directory / generation_name(offset)
            blob = dumps_estimator(CheckpointState(target, offset, self._source))
            atomic_write_bytes(path, blob, fs=self._fs)
            self._last_saved = offset
            self._rotate()
            span.set("bytes", float(len(blob)))
            if self._obs.enabled:
                self._obs.emit(
                    "checkpoint.write",
                    offset=float(offset),
                    bytes=float(len(blob)),
                    generations=float(len(self.generations())),
                )
        return path

    def maybe_save(self, target: object, offset: int) -> Path | None:
        """Apply the every-N schedule; returns the path when one was taken."""
        if self._every is None or offset <= 0 or offset % self._every != 0:
            return None
        if self._last_saved == offset:  # already have this position
            return None
        return self.save(target, offset)

    def save_final(self, target: object, offset: int, start: int = 0) -> Path | None:
        """Take the end-of-stream generation of a run over ``[start, offset)``.

        Only when a schedule is set, the run consumed something, and the
        schedule has not already saved ``offset`` — so a later ``resume``
        replays an empty gap instead of the whole tail.  Returns the path
        when one was taken.
        """
        if self._every is None or offset <= start or self._last_saved == offset:
            return None
        return self.save(target, offset)

    def _rotate(self) -> None:
        """Drop generations beyond ``retain`` — only after a good write."""
        generations = self.generations()
        for _, path in generations[: -self._retain]:
            self._fs.remove(path)

    # ------------------------------------------------------------ restores

    def restore(self) -> RestoredCheckpoint | None:
        """Load the newest intact generation (``None`` when none exist).

        Corrupt generations (truncated, bit-flipped, wrong format) are
        skipped with a ``checkpoint.corrupt`` event; if every generation
        is damaged a :class:`~repro.exceptions.StreamError` names them
        all.  A ``source`` mismatch is configuration, not corruption, and
        raises immediately.
        """
        with self._tracer.span("checkpoint.restore") as span:
            generations = self.generations()
            skipped = 0
            for offset, path in reversed(generations):
                try:
                    state = loads_estimator(self._fs.read_bytes(path))
                except (StreamError, OSError):
                    skipped += 1
                    if self._obs.enabled:
                        self._obs.emit("checkpoint.corrupt", offset=float(offset))
                    continue
                if not isinstance(state, CheckpointState):
                    skipped += 1
                    if self._obs.enabled:
                        self._obs.emit("checkpoint.corrupt", offset=float(offset))
                    continue
                if (
                    self._source is not None
                    and state.source is not None
                    and state.source != self._source
                ):
                    raise StreamError(
                        f"checkpoint {path.name} was taken over source "
                        f"{state.source!r}, but this manager resumes {self._source!r}"
                    )
                span.set("offset", float(state.offset))
                span.set("skipped", float(skipped))
                if self._obs.enabled:
                    self._obs.emit(
                        "checkpoint.restore",
                        offset=float(state.offset),
                        skipped=float(skipped),
                    )
                self._last_saved = state.offset
                return RestoredCheckpoint(state.target, state.offset, path, skipped)
            if skipped:
                raise StreamError(
                    f"all {skipped} checkpoint generations in {self._directory} "
                    "are corrupt"
                )
            return None

    def resume(
        self, records: Sequence[object], fresh: Callable[[], object] | None = None
    ) -> tuple[object, int]:
        """Restore state and verify it against the stream being resumed.

        Returns ``(target, offset)`` where ``records[offset:]`` is the gap
        still to replay.  With no generation on disk, ``fresh()`` builds a
        new target at offset 0 (without ``fresh`` that case raises).  A
        checkpoint taken *beyond* the end of ``records`` means the caller
        is resuming over the wrong (shorter) stream and raises.
        """
        with self._tracer.span("recovery.resume") as span:
            restored = self.restore()
            if restored is None:
                if fresh is None:
                    raise StreamError(
                        f"no checkpoint to resume from in {self._directory}"
                    )
                return fresh(), 0
            if restored.offset > len(records):
                raise StreamError(
                    f"checkpoint offset {restored.offset} is beyond the resumed "
                    f"stream's length {len(records)}; wrong or truncated source?"
                )
            span.set("offset", float(restored.offset))
            span.set("gap", float(len(records) - restored.offset))
            if self._obs.enabled:
                self._obs.emit(
                    "recovery.replayed",
                    offset=float(restored.offset),
                    count=float(len(records) - restored.offset),
                )
            return restored.target, restored.offset
