"""Bucket partitioning policies: uniform and quantile.

The paper's PartitionHistogram step places bucket boundaries over the focus
region according to one of two policies:

* **uniform** — equally spaced boundaries ``v_j = a + j * (b - a) / m``;
* **quantile** — boundaries placed so each bucket holds (an estimate of)
  the same frequency ``f_bar = total / m``.  When re-partitioning an
  existing histogram the quantile positions are derived from the current
  buckets under local uniformity (paper: *"we start with (v_j, f_j) and
  determine (v'_j, f_bar) based on local uniformity assumptions"*).  For
  the AVG focus region the paper also partitions by the quantiles of the
  fitted normal ``N(mu, sigma/sqrt(n))``; that variant is provided too.

All functions return plain edge lists; callers build
:class:`~repro.histograms.bucket.BucketArray` objects from them.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from repro.exceptions import ConfigurationError
from repro.histograms.bucket import BucketArray


def uniform_boundaries(low: float, high: float, num_buckets: int) -> list[float]:
    """Equally spaced edges: ``num_buckets`` buckets over ``[low, high]``."""
    if num_buckets <= 0:
        raise ConfigurationError(f"num_buckets must be positive, got {num_buckets}")
    if not high > low:
        raise ConfigurationError(f"need high > low, got [{low}, {high}]")
    step = (high - low) / num_buckets
    edges = [low + j * step for j in range(num_buckets)]
    edges.append(high)  # exact, avoids float drift on the last edge
    return edges


def quantile_boundaries_from_histogram(
    histogram: BucketArray,
    num_buckets: int,
    low: float | None = None,
    high: float | None = None,
) -> list[float]:
    """Edges equalising estimated frequency, interpolated from ``histogram``.

    The target range ``[low, high]`` defaults to the histogram's own range;
    when it extends beyond the histogram the uncovered part contributes zero
    estimated mass, so boundaries crowd into the covered part (which is the
    desired behaviour when a region grows into fresh, empty space).

    Falls back to uniform spacing when the histogram holds (approximately)
    no positive mass — there is no frequency information to equalise.
    """
    if num_buckets <= 0:
        raise ConfigurationError(f"num_buckets must be positive, got {num_buckets}")
    low = histogram.low if low is None else low
    high = histogram.high if high is None else high
    if not high > low:
        raise ConfigurationError(f"need high > low, got [{low}, {high}]")

    total = histogram.estimate_between(low, high).count
    if total <= 1e-12:
        return uniform_boundaries(low, high, num_buckets)

    per_bucket = total / num_buckets
    edges = [low]
    accumulated = 0.0
    target = per_bucket
    hist_edges = histogram.edges
    hist_counts = histogram.counts
    for i, (left, right) in enumerate(zip(hist_edges, hist_edges[1:])):
        seg_lo = max(left, low)
        seg_hi = min(right, high)
        if seg_hi <= seg_lo:
            continue
        width = right - left
        density = hist_counts[i] / width if width > 0 else 0.0
        seg_mass = density * (seg_hi - seg_lo)
        # Emit as many boundaries as fall inside this segment.
        while accumulated + seg_mass >= target - 1e-12 and len(edges) < num_buckets:
            needed = target - accumulated
            if density > 0:
                cut = seg_lo + needed / density
            else:  # pragma: no cover - zero-density segment cannot reach target
                cut = seg_hi
            cut = min(max(cut, seg_lo), seg_hi)
            if cut > edges[-1] + 1e-15 * max(abs(cut), 1.0):
                edges.append(cut)
            target += per_bucket
        accumulated += seg_mass
    # Pad out degenerate cases (mass concentrated at the far end) uniformly.
    while len(edges) < num_buckets:
        edges.append(edges[-1] + (high - edges[-1]) / 2.0)
    edges.append(high)
    return _repair_edges(edges, low, high)


def quantile_boundaries_from_values(
    values: Sequence[float],
    num_buckets: int,
    low: float,
    high: float,
) -> list[float]:
    """Edges at the empirical quantiles of ``values`` within ``[low, high]``.

    Used to seed a quantile-partitioned histogram from the warm-up buffer
    (the paper's InitializeHistogram for the quantile policy sorts the first
    m tuples by x value).  Interior edges are midpoints between the sorted
    samples flanking each quantile position; degenerate layouts (ties,
    everything at one end) fall back to uniform spacing via edge repair.
    """
    if num_buckets <= 0:
        raise ConfigurationError(f"num_buckets must be positive, got {num_buckets}")
    if not high > low:
        raise ConfigurationError(f"need high > low, got [{low}, {high}]")
    inside = sorted(v for v in values if low <= v <= high)
    if len(inside) < 2:
        return uniform_boundaries(low, high, num_buckets)
    n = len(inside)
    edges = [low]
    for j in range(1, num_buckets):
        position = j * n / num_buckets
        left = inside[min(max(int(position) - 1, 0), n - 1)]
        right = inside[min(int(position), n - 1)]
        edges.append((left + right) / 2.0)
    edges.append(high)
    return _repair_edges(edges, low, high)


def normal_quantile_boundaries(
    mean: float,
    scale: float,
    num_buckets: int,
    low: float,
    high: float,
) -> list[float]:
    """Edges at the quantiles of ``N(mean, scale)`` clipped to ``[low, high]``.

    This is the paper's second AVG partitioning strategy: partition the CLT
    focus interval *"according to the quantiles of the normal distribution
    with mean mu and standard deviation sigma/sqrt(n)"*.  Quantiles are
    computed for the normal distribution conditioned on ``[low, high]`` so
    all edges land inside the interval.

    Each edge is found by bisection on the cdf, capped at 80 steps.  A step
    is a pure function of the bracket ``(lo, hi)``, so once a step would
    leave the bracket unchanged (the midpoint rounds onto the end it would
    replace) every later step repeats it: the bisection stops there, at its
    fixed point, with the edge the full 80 steps would have produced.
    """
    if num_buckets <= 0:
        raise ConfigurationError(f"num_buckets must be positive, got {num_buckets}")
    if not high > low:
        raise ConfigurationError(f"need high > low, got [{low}, {high}]")
    if scale <= 0:
        return uniform_boundaries(low, high, num_buckets)
    denom = scale * math.sqrt(2.0)
    erf = math.erf

    def cdf(x: float) -> float:
        return 0.5 * (1.0 + erf((x - mean) / denom))

    def inverse_cdf(p: float) -> float:
        lo, hi = low, high
        for _ in range(80):  # bisection: plenty for double precision
            mid = (lo + hi) / 2.0
            if 0.5 * (1.0 + erf((mid - mean) / denom)) < p:  # cdf(mid), inlined
                if mid == lo:
                    break
                lo = mid
            else:
                if mid == hi:
                    break
                hi = mid
        return (lo + hi) / 2.0

    p_low, p_high = cdf(low), cdf(high)
    if p_high - p_low <= 1e-12:
        return uniform_boundaries(low, high, num_buckets)
    edges = [low]
    for j in range(1, num_buckets):
        p = p_low + (p_high - p_low) * j / num_buckets
        edges.append(inverse_cdf(p))
    edges.append(high)
    return _repair_edges(edges, low, high)


def _repair_edges(edges: list[float], low: float, high: float) -> list[float]:
    """Force strict monotonicity (float ties collapse to tiny offsets)."""
    repaired = [low]
    span = high - low
    min_gap = span * 1e-12
    for edge in edges[1:-1]:
        candidate = max(edge, repaired[-1] + min_gap)
        if candidate < high - min_gap:
            repaired.append(candidate)
    repaired.append(high)
    # If collapses removed edges, re-space the interior uniformly.
    expected = len(edges)
    if len(repaired) < expected:
        return uniform_boundaries(low, high, expected - 1)
    return repaired
