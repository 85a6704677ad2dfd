"""Shared test helpers: brute-force reference implementations.

Every estimator in the library is ultimately checked against these
O(n^2)-ish references on small streams; the library's own fast oracle is
itself validated against them first.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.query import CorrelatedQuery
from repro.streams.model import Record
from repro.structures.welford import RunningMoments


def brute_force_series(records: list[Record], query: CorrelatedQuery) -> list[float]:
    """Exact output sequence by literal re-evaluation at every step."""
    out = []
    for i in range(1, len(records) + 1):
        if query.is_sliding:
            scope = records[max(0, i - query.window) : i]
        else:
            scope = records[:i]
        xs = [r.x for r in scope]
        if query.independent == "min":
            independent = min(xs)
        elif query.independent == "max":
            independent = max(xs)
        elif query.is_sliding:
            # Match the oracle's exactly-rounded window mean (fsum is
            # order-independent): a value can sit exactly on the mean,
            # where a last-ulp difference flips the strict predicate.
            independent = math.fsum(xs) / len(xs)
        else:
            # Landmark scopes: same Welford recurrence (same push order) as
            # the oracle, bit-for-bit.
            moments = RunningMoments()
            for x in xs:
                moments.push(x)
            independent = moments.mean
        qualifying = [r for r in scope if query.qualifies(r.x, independent)]
        if query.dependent == "count":
            out.append(float(len(qualifying)))
        else:
            out.append(sum(r.y for r in qualifying))
    return out


def make_records(xs, ys=None) -> list[Record]:
    """Build records from value lists (y defaults to 1.0)."""
    if ys is None:
        return [Record(float(x)) for x in xs]
    return [Record(float(x), float(y)) for x, y in zip(xs, ys)]


def outcome(fn, *args) -> str:
    """``repr`` of ``fn(*args)``, or the raised exception's type and message.

    Bit-identity tests compare these strings: ``repr`` tells ``-0.0`` from
    ``0.0`` and shows NaN, where ``==`` would not.
    """
    try:
        return repr(fn(*args))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return f"{type(exc).__name__}: {exc}"


@pytest.fixture
def rng() -> np.random.Generator:
    """A seeded generator for per-test randomness."""
    return np.random.default_rng(12345)
