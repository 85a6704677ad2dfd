"""Records, the stream-algorithm protocol, and stream runners.

The paper's model of computation (Section 2.1, after Henzinger et al.)
proceeds in steps: read ``S_in[i]``, compute in memory, write ``S_out[i]``.
A :class:`StreamAlgorithm` is exactly that contract: :meth:`~StreamAlgorithm.
update` consumes the next input record and returns the next output value.

Records carry two numeric attributes ``x`` and ``y`` matching the paper's
schema R(X, Y): the *independent* aggregate ranges over ``x`` and the
*dependent* aggregate over ``y``.  Plain ``(x, y)`` tuples are accepted
anywhere a :class:`Record` is; the estimators only unpack two fields.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from typing import NamedTuple, Protocol, runtime_checkable

from repro.exceptions import ConfigurationError, StreamError

#: Valid ``collect=`` modes for batched ingestion.
COLLECT_MODES = ("all", "none")


class Record(NamedTuple):
    """One stream tuple of the schema R(X, Y)."""

    x: float
    y: float = 1.0


def ensure_finite(record: Record) -> Record:
    """Reject NaN/infinite attributes before they poison a summary.

    A single NaN silently corrupts every running aggregate it touches
    (means, histogram totals, extrema comparisons), so estimators validate
    at ingestion and fail loudly instead.
    """
    if not (math.isfinite(record.x) and math.isfinite(record.y)):
        raise StreamError(f"non-finite record {record!r}")
    return record


@runtime_checkable
class StreamAlgorithm(Protocol):
    """One read–compute–emit step of the stream computation model.

    Implementations consume one input record per call and return the current
    value of their output sequence.  They must use bounded state (up to the
    logarithmic-growth caveat the paper notes).
    """

    def update(self, record: Record) -> float:
        """Consume ``S_in[i]`` and return ``S_out[i]``."""
        ...

    def update_many(
        self, records: Iterable[Record], collect: str = "all"
    ) -> list[float]:
        """Consume a chunk of records; return outputs per ``collect``.

        The record-list adapter over :meth:`update_columns`'s batch loop.
        ``collect="all"`` (the default) must be exactly equivalent to
        ``[self.update(r) for r in records]`` — batching is an ingestion
        fast path, never a semantic change.  ``"none"`` returns ``[]``:
        it leaves the summary in the identical post-chunk state and lets
        implementations skip per-record answer extraction, avoiding the
        O(n) output list on million-tuple batches (call ``estimate()``
        for the final answer).
        """
        ...

    def update_columns(
        self,
        xs: "Iterable[float]",
        ys: "Iterable[float] | None" = None,
        collect: str = "all",
        *,
        times: "Iterable[float] | None" = None,
    ) -> list[float]:
        """Consume a columnar chunk: parallel arrays of x and y values.

        The batch primitive.  Equivalent to ``update_many([Record(x, y)
        for x, y in zip(xs, ys)], collect)`` with ``ys=None`` meaning
        y=1.0 throughout.  ``times`` is the time axis, one more input
        column: time-window scopes require it and every other scope
        rejects it.  Columnar implementations may route the arrays
        through vectorised kernels instead of materialising records.
        """
        ...


class BatchedIngest:
    """The one batch loop behind ``update_columns`` and ``update_many``.

    The default steps every row through the scalar path; the focused
    kernel overrides only the hand-off, :meth:`_feed_rows`.
    """

    #: Time-window scopes: rows need ``times=`` and step via
    #: ``update(time, record)``, or ``_absorb_timed`` without the answer.
    _timestamped = False

    def update_many(self, records: Iterable[Record], collect: str = "all") -> list[float]:
        """Adapter: coerce plain tuples (``Record`` objects pass as-is)."""
        rows = [r if isinstance(r, Record) else Record(*r) for r in records]
        return self._ingest_rows(rows, None, collect)

    def update_columns(
        self,
        xs: Iterable[float],
        ys: Iterable[float] | None = None,
        collect: str = "all",
        *,
        times: Iterable[float] | None = None,
    ) -> list[float]:
        """The batch primitive; see :meth:`StreamAlgorithm.update_columns`."""
        x_col, y_col = as_columns(xs, ys)
        if times is not None:
            times = times.tolist() if hasattr(times, "tolist") else [float(t) for t in times]
            if len(times) != len(x_col):
                raise ConfigurationError(
                    f"times and xs have mismatched lengths: {len(times)} != {len(x_col)}"
                )
        return self._ingest_rows(ColumnRows(x_col, y_col), times, collect)

    def _ingest_rows(self, rows: Sequence[Record], times, collect: str) -> list[float]:
        """Validate ``collect`` and ``times``, then feed every row."""
        if collect not in COLLECT_MODES:
            raise ConfigurationError(
                f"unknown collect mode {collect!r}; choose one of {', '.join(COLLECT_MODES)}"
            )
        if (times is not None) != self._timestamped:
            raise ConfigurationError(
                f"times= is {'required' if self._timestamped else 'only'} for "
                "time-window estimators: update_columns(xs, ys, times=...)"
            )
        outputs: list[float] = []
        self._feed_rows(rows, times, outputs, collect)
        return outputs

    def _feed_rows(self, rows, times, outputs: list[float], collect: str) -> None:
        """Step every row through the scalar path (answers only for "all")."""
        if times is not None:
            if collect == "all":
                outputs.extend(map(self.update, times, rows))  # type: ignore[attr-defined]
            else:
                for time, record in zip(times, rows):
                    self._absorb_timed(time, record)
        elif collect == "all":
            update = self.update  # type: ignore[attr-defined]
            append = outputs.append
            for record in rows:
                append(update(record))
        else:
            absorb = self._absorb
            for record in rows:
                absorb(record)

    def _absorb(self, record: Record) -> None:
        """Ingest one row without its answer (default: ``update``, dropped)."""
        self.update(record)  # type: ignore[attr-defined]


@runtime_checkable
class ObservableAlgorithm(StreamAlgorithm, Protocol):
    """A stream algorithm that also reports live state-size gauges.

    Every estimator in this library implements it: ``obs_state()`` returns
    a flat name→value mapping of the summary's current footprint (bucket
    count, ring length, tail mass, ...), which the evaluation tracker
    copies into ``state.<key>`` gauges after a run.
    """

    def obs_state(self) -> dict[str, float]:
        """Current state-size gauges, name → value."""
        ...


def run_stream(algorithm: StreamAlgorithm, stream: Iterable[Record]) -> Iterator[float]:
    """Lazily drive ``algorithm`` over ``stream``, yielding each output.

    This is the model's outer loop: one output value per input record.
    """
    for item in stream:
        record = item if isinstance(item, Record) else Record(*item)
        yield algorithm.update(record)


def materialize(algorithm: StreamAlgorithm, stream: Iterable[Record]) -> list[float]:
    """Run ``algorithm`` over ``stream`` and collect the full output sequence."""
    return list(run_stream(algorithm, stream))


def as_records(values: Iterable[float | tuple[float, ...] | Record]) -> list[Record]:
    """Coerce a mixed iterable into :class:`Record` objects.

    Bare floats become ``Record(x=v, y=1.0)``, so COUNT-style dependent
    aggregates work without callers having to invent a y attribute.
    """
    records = []
    for item in values:
        if isinstance(item, Record):
            records.append(item)
        elif isinstance(item, tuple):
            records.append(Record(*item))
        else:
            records.append(Record(float(item)))
    return records


# Last: repro.streams.columns imports Record from this module.
from repro.streams.columns import ColumnRows, as_columns  # noqa: E402
