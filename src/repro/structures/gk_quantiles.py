"""Greenwald–Khanna ε-approximate quantile summary.

The paper's footnote 5 observes that the then-recent single-pass quantile
algorithms (Alsabti et al.; Manku et al.) could replace its offline "true"
equidepth baseline, but "would likely give less accurate results than an
exact equidepth histogram".  To *test* that conjecture this library ships a
feasible streaming quantile summary — the Greenwald–Khanna sketch (SIGMOD
2001, the same conference!) — and an equidepth baseline built on it
(:class:`repro.histograms.streaming_equidepth.StreamingEquidepthHistogram`).

The summary maintains a list of tuples ``(value, g, delta)`` such that for
any rank query the returned value's true rank is within ``eps * n`` of the
requested rank, using ``O((1/eps) * log(eps * n))`` space.

Summaries are *mergeable* (:meth:`GKQuantileSummary.merge_from` /
:meth:`GKQuantileSummary.merge`): two sketches built over disjoint
substreams combine into one sketch over their union by merge-sorting the
entries and recomputing each entry's rank bounds from the two sides'
prefix bounds — the standard one-shot merge for rank summaries.  The
merged rank uncertainty is at most the *sum* of the two sides' absolute
uncertainties, so the merged summary answers quantiles within
``(eps_1 + eps_2) * n`` of the true rank; the summary tracks that
accumulated slack in :attr:`GKQuantileSummary.effective_eps` and reports
the absolute rank bound via :meth:`GKQuantileSummary.merge_error_bound`.
This is what lets per-shard sketches be combined at query time by
:class:`repro.parallel.ShardedIngestor`.
"""

from __future__ import annotations

import bisect
import copy
import math
from typing import NamedTuple

from repro.exceptions import ConfigurationError, EmptyScopeError
from repro.obs.sink import NULL_SINK, ObsSink


class _Entry(NamedTuple):
    value: float
    g: int  # rank(value) - rank(previous value), lower-bound increments
    delta: int  # uncertainty of the rank within the band


def _prefix_rmin(entries: list[_Entry]) -> list[int]:
    """Cumulative lower rank bound per entry: ``rmin[i] = sum(g[0..i])``."""
    out: list[int] = []
    running = 0
    for entry in entries:
        running += entry.g
        out.append(running)
    return out


class GKQuantileSummary:
    """ε-approximate rank/quantile queries over a stream of values.

    >>> s = GKQuantileSummary(eps=0.01)
    >>> for v in range(1, 1001):
    ...     s.insert(float(v))
    >>> abs(s.quantile(0.5) - 500.0) <= 0.01 * 1000 + 1
    True
    """

    def __init__(self, eps: float = 0.01, sink: ObsSink | None = None) -> None:
        if not 0.0 < eps < 0.5:
            raise ConfigurationError(f"eps must be in (0, 0.5), got {eps}")
        self._eps = eps
        self._obs = sink if sink is not None else NULL_SINK
        self._entries: list[_Entry] = []
        self._count = 0
        # Compress every ~1/(2 eps) inserts, the standard schedule.
        self._compress_period = max(int(1.0 / (2.0 * eps)), 1)
        self._since_compress = 0
        # Rank-error budget including merge slack; grows additively on merge.
        self._effective_eps = eps

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        # Checkpoints written before merge support lack the slack field.
        self.__dict__.setdefault("_effective_eps", self.__dict__.get("_eps", 0.01))

    @property
    def eps(self) -> float:
        return self._eps

    @property
    def effective_eps(self) -> float:
        """Rank-error fraction this summary currently guarantees.

        Equals ``eps`` for a summary that has never been merged; each
        :meth:`merge_from` adds the other side's effective eps.
        """
        return self._effective_eps

    @property
    def count(self) -> int:
        """Number of values observed."""
        return self._count

    def __len__(self) -> int:
        """Number of summary entries currently retained."""
        return len(self._entries)

    def insert(self, value: float) -> None:
        """Observe the next stream value."""
        self._count += 1
        index = bisect.bisect_left(self._entries, value, key=lambda e: e.value)
        if index == 0 or index == len(self._entries):
            # New minimum or maximum: its rank is known exactly.
            entry = _Entry(value, 1, 0)
        else:
            band_cap = int(math.floor(2.0 * self._eps * self._count))
            entry = _Entry(value, 1, max(band_cap - 1, 0))
        self._entries.insert(index, entry)
        self._since_compress += 1
        if self._since_compress >= self._compress_period:
            self._compress()
            self._since_compress = 0

    def _compress(self) -> None:
        """Merge adjacent entries whose combined uncertainty stays in bounds."""
        if len(self._entries) < 3:
            return
        before = len(self._entries)
        threshold = int(math.floor(2.0 * self._eps * self._count))
        merged: list[_Entry] = [self._entries[0]]
        # Never merge into the last entry's slot from the right; walk from
        # the second entry and fold entries forward where allowed.
        for i in range(1, len(self._entries) - 1):
            current = self._entries[i]
            nxt = self._entries[i + 1]
            if current.g + nxt.g + nxt.delta <= threshold:
                # Fold `current` into `nxt` (classic GK merge).
                self._entries[i + 1] = _Entry(nxt.value, nxt.g + current.g, nxt.delta)
            else:
                merged.append(current)
        merged.append(self._entries[-1])
        self._entries = merged
        if self._obs.enabled:
            self._obs.emit(
                "gk.compress",
                entries_before=float(before),
                entries_after=float(len(merged)),
                n=float(self._count),
            )

    def merge_from(self, other: GKQuantileSummary) -> None:
        """Absorb ``other`` so ``self`` summarises the union of both streams.

        Entries are merge-sorted by value and each merged entry's rank
        bounds are recomputed from the two sides' prefix bounds: an entry
        from A inherits A's bounds shifted by the ranks B assigns to its
        predecessor/successor (and symmetrically for B's entries).  The
        result is a valid rank summary whose per-query uncertainty is at
        most the sum of the inputs' uncertainties, so
        ``effective_eps`` becomes ``eps_self + eps_other``.

        ``other`` is not modified.  Merging is intended for summaries
        built over *disjoint* substreams (shards); merging overlapping
        streams double-counts.
        """
        if not isinstance(other, GKQuantileSummary):
            raise ConfigurationError(
                f"cannot merge GKQuantileSummary with {type(other).__name__}"
            )
        if other._count == 0:
            return
        if self._count == 0:
            self._entries = list(other._entries)
            self._count = other._count
            self._effective_eps = other._effective_eps
            self._since_compress = 0
            return

        a, b = self._entries, other._entries
        n_a, n_b = self._count, other._count
        # Prefix rank bounds for each side: rmin[i] = sum g[0..i],
        # rmax[i] = rmin[i] + delta[i].
        rmin_a = _prefix_rmin(a)
        rmin_b = _prefix_rmin(b)

        merged: list[tuple[float, int, int]] = []  # (value, rmin, rmax)
        i = j = 0
        while i < len(a) or j < len(b):
            take_a = j >= len(b) or (i < len(a) and a[i].value <= b[j].value)
            if take_a:
                entry, own_rmin = a[i], rmin_a[i]
                pred = rmin_b[j - 1] if j > 0 else 0
                if j < len(b):
                    succ = rmin_b[j] + b[j].delta - 1
                else:
                    succ = n_b
                i += 1
            else:
                entry, own_rmin = b[j], rmin_b[j]
                pred = rmin_a[i - 1] if i > 0 else 0
                if i < len(a):
                    succ = rmin_a[i] + a[i].delta - 1
                else:
                    succ = n_a
                j += 1
            rmin = own_rmin + pred
            rmax = own_rmin + entry.delta + max(succ, pred)
            merged.append((entry.value, rmin, rmax))

        # Re-derive (g, delta) from the merged rank bounds, enforcing
        # monotone rmin and rmax >= rmin so every g stays non-negative.
        total = n_a + n_b
        entries: list[_Entry] = []
        prev_rmin = 0
        for value, rmin, rmax in merged:
            rmin = min(max(rmin, prev_rmin), total)
            rmax = min(max(rmax, rmin), total)
            entries.append(_Entry(value, rmin - prev_rmin, rmax - rmin))
            prev_rmin = rmin
        # The extreme values of the union are known exactly.
        first = entries[0]
        entries[0] = _Entry(first.value, first.g, 0)
        last = entries[-1]
        if prev_rmin < total:
            entries[-1] = _Entry(last.value, last.g + (total - prev_rmin), 0)
        else:
            entries[-1] = _Entry(last.value, last.g, 0)

        self._entries = entries
        self._count = total
        self._effective_eps = self._effective_eps + other._effective_eps
        self._since_compress = 0
        self._compress()
        if self._obs.enabled:
            self._obs.emit(
                "gk.merge",
                n=float(total),
                entries=float(len(self._entries)),
                effective_eps=self._effective_eps,
            )

    def merge(self, other: GKQuantileSummary) -> GKQuantileSummary:
        """Non-mutating merge: a new summary over both inputs' streams."""
        result = copy.deepcopy(self)
        result._obs = self._obs
        result.merge_from(other)
        return result

    def merge_error_bound(self) -> float:
        """Absolute rank-error bound, in tuples: ``effective_eps * n``."""
        return self._effective_eps * self._count

    def rank_bounds(self, value: float) -> tuple[int, int]:
        """Bounds on ``count(x <= value)`` among the observed values.

        Returns ``(lower, upper)`` with ``lower <= true count <= upper``;
        the gap is at most ``2 * eps * n`` by the GK invariant.
        """
        if self._count == 0:
            raise EmptyScopeError("rank of an empty summary")
        below = 0  # sum of g over entries with entry.value <= value
        next_entry: _Entry | None = None
        for entry in self._entries:
            if entry.value <= value:
                below += entry.g
            else:
                next_entry = entry
                break
        if next_entry is None:
            return (self._count, self._count)
        upper = below + next_entry.g + next_entry.delta - 1
        return (below, min(max(upper, below), self._count))

    def quantile(self, p: float) -> float:
        """Value whose rank is within ``eps * n`` of ``ceil(p * n)``."""
        if not 0.0 <= p <= 1.0:
            raise ConfigurationError(f"p must be in [0, 1], got {p}")
        if self._count == 0:
            raise EmptyScopeError("quantile of an empty summary")
        target = max(int(math.ceil(p * self._count)), 1)
        allowed = target + int(math.ceil(self._effective_eps * self._count))
        min_rank = 0
        answer = self._entries[0].value
        for entry in self._entries:
            min_rank += entry.g
            if min_rank + entry.delta > allowed:
                return answer
            answer = entry.value
        return answer

    def boundaries(self, num_buckets: int) -> list[float]:
        """Approximate equidepth edges: the j/num_buckets quantiles."""
        if num_buckets <= 0:
            raise ConfigurationError(f"num_buckets must be positive, got {num_buckets}")
        if self._count == 0:
            return []
        edges = [self.quantile(j / num_buckets) for j in range(num_buckets + 1)]
        edges[0] = self._entries[0].value
        edges[-1] = self._entries[-1].value
        return edges
