"""Pin the allocation-free band answers to the ``Mass``-based originals.

``band_mass`` and ``band_bounds`` run once per answer on every two-tail
estimator, so they accumulate plain floats instead of building a
closure and a :class:`Mass` per tail and bucket.  The reference copies
below are the earlier ``Mass``-arithmetic versions, kept verbatim; the
rewrite must reproduce them bit for bit (signed zeros included) on
every summary shape, including negative masses left by sliding deletion,
degenerate tail spans and one-sided bands.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.histograms.bucket import ZERO_MASS, BucketArray, Mass
from repro.histograms.mass import band_bounds, band_mass


def reference_band_mass(inner, left_tail, right_tail, xmin, xmax, lo, hi):
    def tail_share(tail, span_lo, span_hi):
        span = span_hi - span_lo
        if span <= 0.0:
            inside = lo <= span_lo <= hi
            return tail if inside else ZERO_MASS
        overlap = min(hi, span_hi) - max(lo, span_lo)
        if overlap <= 0.0:
            return ZERO_MASS
        return tail.scaled(min(overlap / span, 1.0))

    total = tail_share(left_tail, xmin, inner.low)
    total += tail_share(right_tail, inner.high, xmax)
    clipped_lo = max(lo, inner.low)
    clipped_hi = min(hi, inner.high)
    if clipped_hi > clipped_lo:
        total += inner.estimate_between(clipped_lo, clipped_hi)
    return total


def reference_band_bounds(inner, left_tail, right_tail, xmin, xmax, lo, hi):
    def tail_bounds(tail, span_lo, span_hi):
        span = span_hi - span_lo
        if span <= 0.0:
            inside = lo <= span_lo <= hi
            return (tail, tail) if inside else (ZERO_MASS, ZERO_MASS)
        overlap = min(hi, span_hi) - max(lo, span_lo)
        if overlap <= 0.0:
            return (ZERO_MASS, ZERO_MASS)
        if overlap >= span:
            return (tail, tail)
        return (ZERO_MASS, tail)

    lower = ZERO_MASS
    upper = ZERO_MASS
    for tail, span in ((left_tail, (xmin, inner.low)), (right_tail, (inner.high, xmax))):
        tail_lo, tail_hi = tail_bounds(tail, *span)
        lower += tail_lo
        upper += tail_hi

    edges = inner.edges
    for i, (left, right) in enumerate(zip(edges, edges[1:])):
        overlap = min(hi, right) - max(lo, left)
        if overlap <= 0.0:
            continue
        bucket = inner.bucket_mass(i)
        upper += bucket
        if overlap >= right - left:
            lower += bucket
    return (lower.clamped(), upper.clamped())


def bits(*masses: Mass) -> list[str]:
    """Exact float identity, telling -0.0 from 0.0."""
    return [repr(float(v)) for mass in masses for v in mass]


def assert_bit_identical(args) -> None:
    assert bits(band_mass(*args)) == bits(reference_band_mass(*args))
    assert bits(*band_bounds(*args)) == bits(*reference_band_bounds(*args))


masses = st.floats(-50.0, 200.0, allow_nan=False)
#: Tail and bucket masses: mostly positive, negative after sliding
#: deletion, and exact zeros of either sign.
signed_mass = st.one_of(masses, st.sampled_from([0.0, -0.0, -1.0, 1e-300, -1e-300]))


@st.composite
def summaries(draw):
    k = draw(st.integers(1, 8))
    start = draw(st.floats(-100.0, 100.0))
    widths = draw(st.lists(st.floats(1e-3, 50.0), min_size=k, max_size=k))
    edges = [start]
    for width in widths:
        edges.append(edges[-1] + width)
    inner = BucketArray(
        edges,
        counts=draw(st.lists(signed_mass, min_size=k, max_size=k)),
        weights=draw(st.lists(signed_mass, min_size=k, max_size=k)),
    )
    # Degenerate tail spans (xmin == inner.low, xmax == inner.high) are
    # the common case right after a build.
    xmin = inner.low - draw(st.just(0.0) | st.floats(1e-3, 80.0))
    xmax = inner.high + draw(st.just(0.0) | st.floats(1e-3, 80.0))
    left = Mass(draw(signed_mass), draw(signed_mass))
    right = Mass(draw(signed_mass), draw(signed_mass))

    shape = draw(
        st.sampled_from(["any", "one_sided", "left_tail", "right_tail", "everything", "point"])
    )
    if shape == "left_tail":
        lo = draw(st.floats(xmin, inner.low))
        hi = draw(st.floats(lo, inner.low))
    elif shape == "right_tail":
        lo = draw(st.floats(inner.high, xmax))
        hi = draw(st.floats(lo, xmax))
    elif shape == "everything":
        lo = xmin - draw(st.floats(0.0, 10.0))
        hi = draw(st.sampled_from([math.inf, xmax, xmax + 1.0]))
    elif shape == "point":
        lo = hi = draw(st.sampled_from([xmin, inner.low, inner.high, xmax] + edges))
    else:
        lo = draw(st.floats(xmin - 20.0, xmax + 20.0))
        hi = math.inf if shape == "one_sided" else draw(st.floats(lo, xmax + 20.0))
    return (inner, left, right, xmin, xmax, lo, hi)


@given(summaries())
@settings(max_examples=600, deadline=None)
def test_band_answers_match_mass_reference(args):
    assert_bit_identical(args)


def _inner():
    return BucketArray([10.0, 12.0, 15.0, 20.0], counts=[3.0, -1.5, 4.25], weights=[2.5, -0.5, 7.0])


def test_degenerate_left_span():
    inner = _inner()
    assert_bit_identical((inner, Mass(5.0, 6.0), Mass(2.0, 1.0), 10.0, 30.0, 10.0, 13.0))
    assert_bit_identical((inner, Mass(5.0, 6.0), Mass(2.0, 1.0), 10.0, 30.0, 11.0, 13.0))


def test_one_sided_band():
    inner = _inner()
    assert_bit_identical((inner, Mass(5.0, 6.0), Mass(2.0, 1.0), 0.0, 30.0, 13.3, math.inf))


def test_negative_masses_from_deletion():
    inner = _inner()
    args = (inner, Mass(-2.0, -0.75), Mass(-1.0, 3.0), 4.0, 25.0, 8.0, 22.0)
    assert_bit_identical(args)
    lower, upper = band_bounds(*args)
    assert lower.count >= 0.0 and upper.count >= 0.0


def test_band_inside_one_tail():
    inner = _inner()
    assert_bit_identical((inner, Mass(5.0, 6.0), Mass(2.0, 1.0), 0.0, 30.0, 2.0, 7.5))
    assert_bit_identical((inner, Mass(5.0, 6.0), Mass(2.0, 1.0), 0.0, 30.0, 22.0, 29.0))


def test_band_covering_everything():
    inner = _inner()
    args = (inner, Mass(5.0, 6.0), Mass(2.0, 1.0), 0.0, 30.0, -1.0, math.inf)
    assert_bit_identical(args)
    total = band_mass(*args)
    assert total.count == 5.0 + 2.0 + 3.0 - 1.5 + 4.25
