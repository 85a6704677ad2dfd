"""Band-mass queries over a three-region summary (tails + fine buckets).

The AVG-independent estimators (and the time-sliding estimator) keep
their summary as three regions — a coarse left tail over
``[xmin, inner.low]``, the fine focus buckets, and a coarse right tail
over ``[inner.high, xmax]`` — the paper's bucket list
``(min, lo, ..., hi, max)``.  These helpers answer threshold-band
queries against that shape:

* :func:`band_mass` — interpolated mass inside a band (point estimate);
* :func:`band_bounds` — lower/upper bounds per the paper's Section 3.1
  remark (discard or count partially-overlapped buckets whole);
* :func:`pour_uniform` — spread tail mass back into fine buckets under
  the same local-uniformity assumption, used when a reallocation grows
  the focus region into a tail.
* :func:`pour_histogram` — re-pour one bucket array's mass into another
  (the histogram merge primitive used by the sharded-ingestion
  coordinator), returning the *slack*: the portion of the poured mass
  whose placement relied on the uniformity assumption.

They live in the histogram layer because they are pure functions of a
:class:`~repro.histograms.bucket.BucketArray` plus two scalar
:class:`~repro.histograms.bucket.Mass` tails — no estimator state —
and every focus-region scope (landmark, count-sliding, time-sliding)
shares them.
"""

from __future__ import annotations

from repro.histograms.bucket import ZERO_MASS, BucketArray, Mass


def band_mass(
    inner: BucketArray,
    left_tail: Mass,
    right_tail: Mass,
    xmin: float,
    xmax: float,
    lo: float,
    hi: float,
) -> Mass:
    """Interpolated mass within the qualifying band ``(lo, hi)``.

    The summary is three regions — left tail over ``[xmin, inner.low]``,
    the fine buckets, right tail over ``[inner.high, xmax]`` — each
    contributing its overlap with the band pro-rata (tails under the
    uniformity assumption; ``hi`` may be ``math.inf`` for one-sided
    queries).

    Runs once per answer, so it accumulates plain floats: the left tail's
    share plus the right tail's, then the fine buckets' interpolated sum
    (left to right, as :meth:`BucketArray.estimate_between` adds them).
    """
    edges = inner._edges
    low = edges[0]
    high = edges[-1]
    left_c = left_w = right_c = right_w = 0.0
    span = low - xmin
    if span <= 0.0:
        if lo <= xmin <= hi:
            left_c, left_w = left_tail
    else:
        overlap = min(hi, low) - max(lo, xmin)
        if overlap > 0.0:
            share = min(overlap / span, 1.0)
            left_c = left_tail.count * share
            left_w = left_tail.weight * share
    span = xmax - high
    if span <= 0.0:
        if lo <= high <= hi:
            right_c, right_w = right_tail
    else:
        overlap = min(hi, xmax) - max(lo, high)
        if overlap > 0.0:
            share = min(overlap / span, 1.0)
            right_c = right_tail.count * share
            right_w = right_tail.weight * share
    count = left_c + right_c
    weight = left_w + right_w
    clipped_lo = max(lo, low)
    clipped_hi = min(hi, high)
    if clipped_hi > clipped_lo:
        inner_count = inner_weight = 0.0
        left = low
        for right, c, w in zip(edges[1:], inner._counts, inner._weights):
            # min(clipped_hi, right) - max(clipped_lo, left), spelled out
            # (same ties and NaN handling, without two calls per bucket).
            overlap = (right if right < clipped_hi else clipped_hi) - (
                left if left > clipped_lo else clipped_lo
            )
            if overlap > 0.0:
                fraction = overlap / (right - left)
                inner_count += c * fraction
                inner_weight += w * fraction
            left = right
        count += inner_count
        weight += inner_weight
    return Mass(count, weight)


def band_bounds(
    inner: BucketArray,
    left_tail: Mass,
    right_tail: Mass,
    xmin: float,
    xmax: float,
    lo: float,
    hi: float,
) -> tuple[Mass, Mass]:
    """Lower/upper bounds on the mass within ``(lo, hi)``.

    The paper (Section 3.1): "upper- or lower-bounds can be reported based
    on counting or discarding the entire bucket" — instead of interpolating
    a partially-overlapped bucket, the lower bound discards it entirely and
    the upper bound includes it entirely.  Applied to every partially
    overlapped region: the straddling fine buckets and the two coarse
    tails.  Accumulated as plain floats in a fixed order: left tail, right
    tail, then the fine buckets left to right.
    """
    edges = inner._edges
    lower_c = lower_w = upper_c = upper_w = 0.0
    for (tail_c, tail_w), span_lo, span_hi in (
        (left_tail, xmin, edges[0]),
        (right_tail, edges[-1], xmax),
    ):
        span = span_hi - span_lo
        if span <= 0.0:
            if not lo <= span_lo <= hi:
                continue
            whole = True
        else:
            overlap = min(hi, span_hi) - max(lo, span_lo)
            if overlap <= 0.0:
                continue
            whole = overlap >= span
        upper_c += tail_c
        upper_w += tail_w
        if whole:
            lower_c += tail_c
            lower_w += tail_w

    left = edges[0]
    for right, c, w in zip(edges[1:], inner._counts, inner._weights):
        # min(hi, right) - max(lo, left), spelled out as in band_mass.
        overlap = (right if right < hi else hi) - (left if left > lo else lo)
        if overlap > 0.0:
            upper_c += c
            upper_w += w
            if overlap >= right - left:
                lower_c += c
                lower_w += w
        left = right
    return (
        Mass(max(lower_c, 0.0), max(lower_w, 0.0)),
        Mass(max(upper_c, 0.0), max(upper_w, 0.0)),
    )


def pour_uniform(histogram: BucketArray, lo: float, hi: float, mass: Mass) -> None:
    """Spread ``mass`` uniformly over ``[lo, hi]`` across the buckets it overlaps."""
    lo = max(lo, histogram.low)
    hi = min(hi, histogram.high)
    span = hi - lo
    if span <= 0.0 or (mass.count == 0.0 and mass.weight == 0.0):
        # Degenerate target: drop the mass into the nearest boundary bucket.
        if mass.count != 0.0 or mass.weight != 0.0:
            index = histogram.locate(min(max(lo, histogram.low), histogram.high))
            histogram.add_mass(index, mass)
        return
    edges = histogram.edges
    for i, (left, right) in enumerate(zip(edges, edges[1:])):
        overlap = min(hi, right) - max(lo, left)
        if overlap > 0.0:
            histogram.add_mass(i, mass.scaled(overlap / span))


def span_is_exact(histogram: BucketArray, lo: float, hi: float) -> bool:
    """True when pouring ``[lo, hi]`` into ``histogram`` needs no assumption.

    A poured span lands exactly where per-tuple inserts would have put it
    when it fits inside a single target bucket (every tuple the span
    summarises belonged to that bucket).  Spans straddling a bucket edge —
    or extending past the histogram's range, where :func:`pour_uniform`
    clamps — are split pro-rata under local uniformity instead.
    """
    if lo < histogram.low or hi > histogram.high:
        return False
    index = histogram.locate(lo)
    edges = histogram.edges
    return hi <= edges[index + 1]


def pour_histogram(target: BucketArray, source: BucketArray) -> Mass:
    """Re-pour every ``source`` bucket's mass into ``target`` pro-rata.

    The merge primitive for bucket histograms with different boundaries:
    each source bucket's mass is spread over its span under the paper's
    local-uniformity assumption (clamping spans that extend outside the
    target's range into its boundary buckets, as :func:`pour_uniform`
    does).  Total mass is conserved exactly; *placement* of a source
    bucket is exact only when its span fits inside one target bucket.

    Returns the slack: the summed mass of source buckets whose placement
    relied on the uniformity assumption.  This is the conservative
    per-merge error bound on any band query against the merged histogram.
    """
    slack = ZERO_MASS
    edges = source.edges
    for i, (left, right) in enumerate(zip(edges, edges[1:])):
        mass = source.bucket_mass(i)
        if mass.count == 0.0 and mass.weight == 0.0:
            continue
        if not span_is_exact(target, left, right):
            slack += mass
        pour_uniform(target, left, right, mass)
    return slack
