"""The bucket-array primitive shared by every histogram in the library.

A :class:`BucketArray` is a sequence of contiguous buckets over
``edges[0] < edges[1] < ... < edges[k]`` where bucket ``i`` covers
``[edges[i], edges[i+1])`` (the last bucket is closed on the right so the
domain maximum is representable).  Each bucket tracks two masses:

* ``count`` — number of tuples that landed in the bucket, and
* ``weight`` — sum of their ``y`` values,

so the same structure answers both COUNT- and SUM-dependent correlated
aggregates.  Threshold estimates interpolate inside the straddling bucket
under the paper's local-uniformity assumption; lower/upper bounds (discard
or include the whole straddling bucket) are also exposed, matching the
paper's note that bounds can be reported instead of point estimates.

Counts may go transiently negative under sliding-window deletion (a value
can be deleted from a bucket it was not inserted into after reallocation
moved the boundaries); estimates clamp at zero.
"""

from __future__ import annotations

import bisect
from collections.abc import Sequence
from typing import NamedTuple

from repro.exceptions import ConfigurationError, HistogramError


class Mass(NamedTuple):
    """A (count, weight) pair — COUNT and SUM(y) mass of a region."""

    count: float
    weight: float

    def __add__(self, other: object) -> "Mass":  # type: ignore[override]
        if not isinstance(other, Mass):
            return NotImplemented
        return Mass(self.count + other.count, self.weight + other.weight)

    def __sub__(self, other: "Mass") -> "Mass":
        return Mass(self.count - other.count, self.weight - other.weight)

    def scaled(self, factor: float) -> "Mass":
        """Both components multiplied by ``factor``."""
        return Mass(self.count * factor, self.weight * factor)

    def clamped(self) -> "Mass":
        """Both components floored at zero (for post-deletion estimates)."""
        return Mass(max(self.count, 0.0), max(self.weight, 0.0))


ZERO_MASS = Mass(0.0, 0.0)


class BucketArray:
    """Contiguous histogram buckets with COUNT and SUM(y) masses.

    Parameters
    ----------
    edges:
        Strictly increasing bucket boundaries; ``len(edges) >= 2``.
    counts, weights:
        Optional initial per-bucket masses (default all zero); each must
        have ``len(edges) - 1`` entries.
    """

    def __init__(
        self,
        edges: Sequence[float],
        counts: Sequence[float] | None = None,
        weights: Sequence[float] | None = None,
    ) -> None:
        if len(edges) < 2:
            raise ConfigurationError(f"need at least 2 edges, got {len(edges)}")
        edge_list = [float(e) for e in edges]
        for left, right in zip(edge_list, edge_list[1:]):
            if not right > left:
                raise ConfigurationError(f"edges must be strictly increasing, got {edge_list}")
        self._edges = edge_list
        k = len(edge_list) - 1
        self._counts = [0.0] * k if counts is None else [float(c) for c in counts]
        self._weights = [0.0] * k if weights is None else [float(w) for w in weights]
        self._merge_slack = 0.0
        if len(self._counts) != k or len(self._weights) != k:
            raise ConfigurationError(
                f"counts/weights must have {k} entries, got "
                f"{len(self._counts)}/{len(self._weights)}"
            )

    # ---------------------------------------------------------------- shape

    @property
    def edges(self) -> list[float]:
        """A copy of the bucket boundaries."""
        return list(self._edges)

    @property
    def counts(self) -> list[float]:
        return list(self._counts)

    @property
    def weights(self) -> list[float]:
        return list(self._weights)

    @property
    def num_buckets(self) -> int:
        return len(self._counts)

    @property
    def low(self) -> float:
        return self._edges[0]

    @property
    def high(self) -> float:
        return self._edges[-1]

    def __contains__(self, x: float) -> bool:
        return self._edges[0] <= x <= self._edges[-1]

    def locate(self, x: float) -> int:
        """Index of the bucket containing ``x``; raises if outside the range."""
        if not self._edges[0] <= x <= self._edges[-1]:
            raise HistogramError(
                f"value {x!r} outside histogram range [{self._edges[0]}, {self._edges[-1]}]"
            )
        if x == self._edges[-1]:
            return len(self._counts) - 1
        return bisect.bisect_right(self._edges, x) - 1

    # ------------------------------------------------------------- updates

    def add(self, x: float, y: float = 1.0) -> None:
        """Add one tuple ``(x, y)`` to the bucket containing ``x``."""
        index = self.locate(x)
        self._counts[index] += 1.0
        self._weights[index] += y

    def remove(self, x: float, y: float = 1.0) -> None:
        """Remove one tuple ``(x, y)``; ``x`` is clamped to the nearest bucket.

        Sliding windows delete values whose bucket layout has changed since
        insertion, so the value may fall (slightly) outside the current
        range; the mass is taken from the nearest boundary bucket, which
        keeps total mass conserved at the cost of local error — exactly the
        approximation the paper accepts for sliding scopes.
        """
        clamped = min(max(x, self._edges[0]), self._edges[-1])
        index = self.locate(clamped)
        self._counts[index] -= 1.0
        self._weights[index] -= y

    def add_mass(self, index: int, mass: Mass) -> None:
        """Pour raw mass into bucket ``index`` (used by reallocation)."""
        self._counts[index] += mass.count
        self._weights[index] += mass.weight

    def mass_columns(self) -> tuple[list[float], list[float]]:
        """``(counts, weights)`` as parallel lists — staging copies for
        batch kernels to mirror into flat arrays."""
        return list(self._counts), list(self._weights)

    def set_mass_columns(
        self, counts: Sequence[float], weights: Sequence[float]
    ) -> None:
        """Install batch-staged per-bucket mass (inverse of
        :meth:`mass_columns`; lengths must match the bucket count)."""
        k = len(self._counts)
        if len(counts) != k or len(weights) != k:
            raise HistogramError(
                f"mass columns must have {k} entries, got "
                f"{len(counts)}/{len(weights)}"
            )
        self._counts = [float(c) for c in counts]
        self._weights = [float(w) for w in weights]

    # ------------------------------------------------------------ queries

    def total(self) -> Mass:
        """Total mass of all buckets."""
        return Mass(sum(self._counts), sum(self._weights))

    def bucket_mass(self, index: int) -> Mass:
        """Mass of bucket ``index``."""
        return Mass(self._counts[index], self._weights[index])

    def estimate_between(self, lo: float, hi: float) -> Mass:
        """Interpolated mass in ``[lo, hi]`` under local uniformity.

        The query interval is intersected with the histogram range; buckets
        fully inside contribute their whole mass, partially overlapped
        buckets contribute pro-rata by width.  Only the overlapping buckets
        are visited: the scan starts at the bucket holding ``lo`` (found by
        bisection) and stops after the bucket whose right edge reaches
        ``hi``, so a call costs O(log m + overlapped buckets) and adds the
        same terms in the same order as a scan of every bucket.  A NaN
        bound still visits at least one bucket, so the answer is NaN, as it
        was for a full scan.
        """
        if hi < lo:
            raise HistogramError(f"reversed interval [{lo}, {hi}]")
        edges = self._edges
        lo = max(lo, edges[0])
        hi = min(hi, edges[-1])
        if hi <= lo:
            return ZERO_MASS
        counts = self._counts
        weights = self._weights
        k = len(counts)
        count = 0.0
        weight = 0.0
        for i in range(bisect.bisect_right(edges, lo, 1, k) - 1, k):
            left = edges[i]
            right = edges[i + 1]
            # min(hi, right) - max(lo, left), without the builtin calls.
            fraction = ((right if right < hi else hi) - (left if left > lo else lo)) / (
                right - left
            )
            count += counts[i] * fraction
            weight += weights[i] * fraction
            if right >= hi:
                break
        return Mass(count, weight)

    def estimate_leq(self, threshold: float) -> Mass:
        """Interpolated mass with ``x <= threshold`` (clamped to the range)."""
        if threshold <= self._edges[0]:
            return ZERO_MASS
        return self.estimate_between(self._edges[0], threshold)

    def estimate_geq(self, threshold: float) -> Mass:
        """Interpolated mass with ``x >= threshold`` (clamped to the range)."""
        if threshold >= self._edges[-1]:
            return ZERO_MASS
        return self.estimate_between(threshold, self._edges[-1])

    def bound_leq(self, threshold: float, upper: bool) -> Mass:
        """Lower/upper bound on the mass below ``threshold``.

        Instead of interpolating the straddling bucket, either discard it
        entirely (``upper=False`` → lower bound) or include it entirely
        (``upper=True`` → upper bound), per the paper's bound-reporting
        remark in Section 3.1.
        """
        if threshold <= self._edges[0]:
            return ZERO_MASS
        if threshold >= self._edges[-1]:
            return self.total()
        index = self.locate(threshold)
        count = sum(self._counts[:index])
        weight = sum(self._weights[:index])
        if upper:
            count += self._counts[index]
            weight += self._weights[index]
        return Mass(count, weight)

    # ------------------------------------------------- structural editing

    def split_bucket(self, index: int, at: float | None = None) -> None:
        """Split bucket ``index`` into two, dividing mass by width pro-rata.

        ``at`` defaults to the bucket midpoint (the paper's split halves the
        frequency; halving by width under uniformity is the same thing for a
        midpoint split and generalises to arbitrary cut points).
        """
        left, right = self._edges[index], self._edges[index + 1]
        cut = (left + right) / 2.0 if at is None else at
        if not left < cut < right:
            raise HistogramError(f"split point {cut} outside bucket ({left}, {right})")
        fraction = (cut - left) / (right - left)
        self._edges.insert(index + 1, cut)
        count, weight = self._counts[index], self._weights[index]
        self._counts[index] = count * fraction
        self._weights[index] = weight * fraction
        self._counts.insert(index + 1, count * (1.0 - fraction))
        self._weights.insert(index + 1, weight * (1.0 - fraction))

    def merge_buckets(self, index: int) -> None:
        """Merge bucket ``index`` with bucket ``index + 1``."""
        if not 0 <= index < len(self._counts) - 1:
            raise HistogramError(f"cannot merge bucket {index} of {len(self._counts)}")
        self._counts[index] += self._counts[index + 1]
        self._weights[index] += self._weights[index + 1]
        del self._counts[index + 1]
        del self._weights[index + 1]
        del self._edges[index + 1]

    def truncate_above(self, new_high: float) -> Mass:
        """Drop everything above ``new_high``; return the discarded mass.

        The straddling bucket is split pro-rata first, so the retained part
        keeps its interpolated share (paper Figure 3(b): ``v'_k = b'``,
        frequency scaled by the retained width fraction).
        """
        if new_high >= self._edges[-1]:
            return ZERO_MASS
        if new_high <= self._edges[0]:
            raise HistogramError(f"truncate_above({new_high}) would empty the histogram")
        index = self.locate(new_high)
        if new_high > self._edges[index]:
            self.split_bucket(index, at=new_high)
            first_dropped = index + 1
        else:
            first_dropped = index
        dropped = Mass(sum(self._counts[first_dropped:]), sum(self._weights[first_dropped:]))
        del self._counts[first_dropped:]
        del self._weights[first_dropped:]
        del self._edges[first_dropped + 1 :]
        return dropped

    def truncate_below(self, new_low: float) -> Mass:
        """Drop everything below ``new_low``; return the discarded mass."""
        if new_low <= self._edges[0]:
            return ZERO_MASS
        if new_low >= self._edges[-1]:
            raise HistogramError(f"truncate_below({new_low}) would empty the histogram")
        index = self.locate(new_low)
        if new_low < self._edges[index + 1]:
            if new_low > self._edges[index]:
                self.split_bucket(index, at=new_low)
                last_dropped = index
            else:
                last_dropped = index - 1
        else:  # pragma: no cover - locate() places interior x strictly inside
            last_dropped = index
        if last_dropped < 0:
            return ZERO_MASS
        dropped = Mass(
            sum(self._counts[: last_dropped + 1]), sum(self._weights[: last_dropped + 1])
        )
        del self._counts[: last_dropped + 1]
        del self._weights[: last_dropped + 1]
        del self._edges[: last_dropped + 1]
        return dropped

    def extend_low(self, new_low: float) -> None:
        """Prepend an empty bucket covering ``[new_low, current low)``."""
        if new_low >= self._edges[0]:
            raise HistogramError(f"extend_low({new_low}) is not below {self._edges[0]}")
        self._edges.insert(0, new_low)
        self._counts.insert(0, 0.0)
        self._weights.insert(0, 0.0)

    def extend_high(self, new_high: float) -> None:
        """Append an empty bucket covering ``(current high, new_high]``."""
        if new_high <= self._edges[-1]:
            raise HistogramError(f"extend_high({new_high}) is not above {self._edges[-1]}")
        self._edges.append(new_high)
        self._counts.append(0.0)
        self._weights.append(0.0)

    def widest_bucket(self) -> int:
        """Index of the widest bucket (ties: lowest index)."""
        widths = [r - l for l, r in zip(self._edges, self._edges[1:])]
        return widths.index(max(widths))

    def heaviest_bucket(self) -> int:
        """Index of the bucket with the largest count (ties: lowest index)."""
        return self._counts.index(max(self._counts))

    # -- MergeableSummary protocol -------------------------------------
    def merge_from(self, other: "BucketArray") -> None:
        """Absorb ``other``'s mass by re-pouring it across these buckets.

        Boundaries of ``self`` are unchanged; each of ``other``'s buckets
        is spread over its span pro-rata (local uniformity), clamping
        spans outside this array's range into the boundary buckets.
        Total mass is conserved exactly; placements that needed the
        uniformity assumption accumulate into :meth:`merge_error_bound`.
        """
        from repro.histograms.mass import pour_histogram

        slack = pour_histogram(self, other)
        self._merge_slack = (
            getattr(self, "_merge_slack", 0.0)
            + slack.count
            + getattr(other, "_merge_slack", 0.0)
        )

    def merge_error_bound(self) -> float:
        """Count-mass whose placement relied on uniformity during merges."""
        return getattr(self, "_merge_slack", 0.0)

    def copy(self) -> "BucketArray":
        """An independent deep copy."""
        return BucketArray(self._edges, self._counts, self._weights)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"[{l:g},{r:g}):{c:g}"
            for l, r, c in zip(self._edges, self._edges[1:], self._counts)
        )
        return f"BucketArray({inner})"
