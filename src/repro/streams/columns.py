"""Columnar record chunks: parallel arrays of x and y values.

The columnar ingestion path (``update_columns`` on every stream
algorithm) moves records through the system as two flat float columns
instead of one ``Record`` object per tuple, as numpy float64 arrays —
the form the vectorised family kernels in ``repro.core`` and the
sharded slot ring read.

Nothing here changes estimator semantics: columns are a transport and
staging format, and every conversion back to :class:`Record` goes
through Python floats so downstream state never holds numpy scalars.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import chain

import numpy as np

from repro.exceptions import ConfigurationError
from repro.streams.model import Record

ColumnPair = tuple["Sequence[float]", "Sequence[float]"]


def _float_column(values: Iterable[float], name: str) -> "np.ndarray":
    """One numpy float64 column, rejecting anything but one dimension."""
    # numpy takes an input without a length (a generator) for one scalar
    # and raises; np.fromiter consumes it instead.
    try:
        col = np.asarray(values, dtype=np.float64)
    except TypeError:
        col = np.fromiter(values, dtype=np.float64)
    if col.ndim != 1:
        raise ConfigurationError(
            f"{name} column must be one-dimensional, got shape {col.shape}"
        )
    return col


def as_columns(xs: Iterable[float], ys: Iterable[float] | None = None) -> ColumnPair:
    """Coerce ``xs``/``ys`` into a pair of equal-length float64 columns.

    ``ys=None`` means every tuple carries the default measure weight of
    1.0 (mirroring ``Record``'s default ``y``).
    """
    x_col = _float_column(xs, "x")
    if ys is None:
        y_col = np.ones(len(x_col), dtype=np.float64)
    else:
        y_col = _float_column(ys, "y")
    if len(x_col) != len(y_col):
        raise ConfigurationError(
            f"column length mismatch: {len(x_col)} x values vs {len(y_col)} y values"
        )
    return x_col, y_col


def columns_to_records(xs: Sequence[float], ys: Sequence[float]) -> list[Record]:
    """Materialise a column pair as ``Record`` objects (Python floats)."""
    if isinstance(xs, np.ndarray):
        return [Record(x, y) for x, y in zip(xs.tolist(), ys.tolist())]
    return [Record(float(x), float(y)) for x, y in zip(xs, ys)]


def records_to_columns(
    records: Sequence[Record], out: ColumnPair | None = None
) -> ColumnPair:
    """Split records into an (xs, ys) column pair.

    The inverse of :func:`columns_to_records`; the sharded transport
    uses it to ship chunks as two flat arrays instead of n pickled
    ``Record`` tuples.  A :class:`ColumnRows` view hands back the
    columns it wraps.

    Both paths read the records in one flat walk over their fields
    (``Record`` is an ``(x, y)`` pair, and so is every plain tuple that
    stands in for one), staging ``x0, y0, x1, y1, ...`` in a single
    ``2n`` float64 block; each value converts exactly as ``float()``
    would.  Without ``out=`` the block is split into two C-contiguous
    columns.  With ``out=`` — a preallocated pair of float64 buffers,
    each at least ``len(records)`` long, such as a shared-memory slab —
    the block is copied into the buffers in place and the return value
    is a pair of length-n views into them.
    """
    if out is None and isinstance(records, ColumnRows):
        return records.xs, records.ys
    n = len(records)
    if out is not None:
        xs_buf, ys_buf = out
        if len(xs_buf) < n or len(ys_buf) < n:
            raise ConfigurationError(
                f"out= buffers hold {min(len(xs_buf), len(ys_buf))} values "
                f"but the chunk has {n} records"
            )
        staged = _staged(records, n)
        np.copyto(xs_buf[:n], staged[0::2])
        np.copyto(ys_buf[:n], staged[1::2])
        return xs_buf[:n], ys_buf[:n]
    xs, ys = _staged(records, n).reshape(n, 2).T.copy()
    return xs, ys


def _staged(records: Sequence[Record], n: int) -> "np.ndarray":
    """Every record's x and y, interleaved, from one walk over the fields."""
    return np.fromiter(chain.from_iterable(records), dtype=np.float64, count=2 * n)


class ColumnRows:
    """A column pair read as a sequence of records, built on demand.

    Lets the one batch loop take record lists and column chunks alike;
    :func:`records_to_columns` hands the wrapped columns back as-is.
    """

    __slots__ = ("xs", "ys")

    def __init__(self, xs: Sequence[float], ys: Sequence[float]) -> None:
        self.xs = xs
        self.ys = ys

    def __len__(self) -> int:
        return len(self.xs)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ColumnRows(self.xs[index], self.ys[index])
        return Record(float(self.xs[index]), float(self.ys[index]))

    def __iter__(self):
        return iter(columns_to_records(self.xs, self.ys))
