"""Batch-vs-scalar golden parity for the columnar ingestion kernels.

``update_columns`` (with ``times=`` on the time-window estimator) must
be a float-for-float transcription of the scalar ``update`` loop: same
per-record outputs under ``collect="all"``, same final estimate and
internal state under ``collect="none"``, same exception (with
the same partial state) when a chunk holds a record the scalar path
would reject.  These tests pin that equivalence for all five estimator
families across batch sizes 1, 7 and 4096 and at the window size and
either side of it (a chunk longer than the window evicts its own first
rows), through mid-batch reallocations, non-finite records and traced
runs — and, for the landmark kernels, under the quantile policy, whose
merge/split swaps run as boundary records.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.core.engine import build_estimator
from repro.core.query import CorrelatedQuery
from repro.core.time_sliding import TimeSlidingEstimator
from repro.datasets.registry import load_dataset
from repro.exceptions import ConfigurationError, StreamError
from repro.obs.sink import RecordingSink
from repro.obs.trace import Tracer
from repro.streams.model import Record

SIZE = 1200
WINDOW = 100
#: Window-straddling sizes pin the chunks that evict their own first rows.
BATCH_SIZES = (1, 7, WINDOW - 1, WINDOW, WINDOW + 1, 4096)

FAMILY_QUERIES = {
    "landmark_extrema": CorrelatedQuery("count", "min", epsilon=99.0),
    "landmark_avg": CorrelatedQuery("count", "avg"),
    "sliding_extrema": CorrelatedQuery("count", "min", epsilon=99.0, window=WINDOW),
    "sliding_avg": CorrelatedQuery("count", "avg", window=WINDOW),
}

#: The families with a vectorised kernel (sliding_avg has none).
KERNEL_FAMILIES = ("landmark_extrema", "landmark_avg", "sliding_extrema")


def _signed_zero_stream(n: int = SIZE) -> list[Record]:
    """Duplicate-heavy values, with both zeros in every other block of 150.

    Every extremum tie shows, through its sign, which zero a fold kept;
    the zero-free blocks let the window minimum rise and fall again, so
    the extrema regions keep moving.
    """
    rng = random.Random(24)
    positive = (1.0, 1.0, 2.0, 3.5, 3.5, 7.0)
    zeros = (0.0, -0.0, 0.0, -0.0) + positive
    return [
        Record(rng.choice(zeros if i // 150 % 2 else positive), rng.choice((0.5, 1.0, 2.0)))
        for i in range(n)
    ]


@pytest.fixture(scope="module", params=["usage", "signed-zeros"])
def stream(request):
    if request.param == "usage":
        return load_dataset("USAGE", size=SIZE)
    return _signed_zero_stream()


@pytest.fixture(scope="module")
def columns(stream):
    xs = [r.x for r in stream]
    ys = [r.y for r in stream]
    return xs, ys


def _state_fingerprint(estimator) -> dict:
    """Every piece of kernel state the columnar path stages and writes back."""
    state: dict = {"estimate": estimator.estimate(), "obs": estimator.obs_state()}
    inner = getattr(estimator, "_inner", None)
    if inner is not None:
        state["edges"] = list(inner.edges)
        state["mass"] = inner.mass_columns()
    for name in ("_tail", "_left", "_right", "_left_tail", "_right_tail"):
        mass = getattr(estimator, name, None)
        if mass is not None:
            state[name] = tuple(mass)
    moments = getattr(estimator, "_moments", None)
    if moments is not None:
        state["moments"] = repr(
            (moments._count, moments._mean, moments._m2, moments._min, moments._max)
        )
    for name in ("_tracked", "_opposite"):
        tracker = getattr(estimator, name, None)
        if tracker is not None:
            state[name] = repr(
                (
                    list(tracker._locals),
                    tracker._current,
                    tracker._current_count,
                    tracker._total_seen,
                )
            )
    ring = getattr(estimator, "_ring", None)
    if ring is not None:
        state["ring"] = list(ring)
    state["ssr"] = getattr(estimator, "_steps_since_rebuild", None)
    state["adds_since_swap"] = getattr(estimator, "_adds_since_swap", None)
    return state


def _build(family):
    return build_estimator(FAMILY_QUERIES[family], "piecemeal-uniform", num_buckets=10)


def _scalar_outputs(family, stream):
    estimator = _build(family)
    return [estimator.update(r) for r in stream], estimator


@pytest.mark.parametrize("family", sorted(FAMILY_QUERIES))
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_collect_all_matches_scalar(family, batch_size, stream, columns):
    """Per-record outputs are bit-identical at every batch size."""
    xs, ys = columns
    expected, single = _scalar_outputs(family, stream)
    batched = _build(family)
    got: list[float] = []
    for i in range(0, len(xs), batch_size):
        got.extend(
            batched.update_columns(xs[i : i + batch_size], ys[i : i + batch_size])
        )
    assert got == expected
    assert _state_fingerprint(batched) == _state_fingerprint(single)


@pytest.mark.parametrize("family", sorted(FAMILY_QUERIES))
@pytest.mark.parametrize("batch_size", BATCH_SIZES)
def test_lean_collect_mode_matches_scalar_state(family, batch_size, stream, columns):
    """collect='none' skips outputs but lands in the identical state."""
    xs, ys = columns
    expected, single = _scalar_outputs(family, stream)
    batched = _build(family)
    for i in range(0, len(xs), batch_size):
        out = batched.update_columns(
            xs[i : i + batch_size], ys[i : i + batch_size], collect="none"
        )
        assert out == []
    assert batched.estimate() == expected[-1]
    assert _state_fingerprint(batched) == _state_fingerprint(single)


@pytest.mark.parametrize("family", sorted(FAMILY_QUERIES))
def test_numpy_inputs_match_list_inputs(family, stream, columns):
    """float64 arrays in, Python-float state out — no numpy scalars leak."""
    xs, ys = columns
    expected, single = _scalar_outputs(family, stream)
    batched = _build(family)
    got = batched.update_columns(np.asarray(xs), np.asarray(ys))
    assert got == expected
    for edge in getattr(batched, "_inner").edges:
        assert type(edge) is float
    assert _state_fingerprint(batched) == _state_fingerprint(single)
    from_generators = _build(family)
    assert from_generators.update_columns((x for x in xs), (y for y in ys)) == expected
    assert _state_fingerprint(from_generators) == _state_fingerprint(single)


@pytest.mark.parametrize("family", sorted(FAMILY_QUERIES))
def test_default_unit_weights(family, stream, columns):
    """``ys=None`` behaves exactly like a column of 1.0 weights."""
    xs, _ = columns
    single = _build(family)
    expected = [single.update(Record(x)) for x in xs[:400]]
    batched = _build(family)
    assert batched.update_columns(xs[:400]) == expected


@pytest.mark.parametrize("family", sorted(FAMILY_QUERIES))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_mid_chunk_matches_scalar(family, bad, stream, columns):
    """A non-finite record raises the scalar error with the scalar state."""
    xs, ys = columns
    bad_xs = xs[:500] + [bad] + xs[500:700]
    bad_ys = ys[:500] + [1.0] + ys[500:700]
    single = _build(family)
    single_exc = None
    try:
        for x, y in zip(bad_xs, bad_ys):
            single.update(Record(x, y))
    except StreamError as exc:
        single_exc = str(exc)
    assert single_exc is not None
    batched = _build(family)
    with pytest.raises(StreamError) as caught:
        batched.update_columns(bad_xs, bad_ys, collect="none")
    assert str(caught.value) == single_exc
    assert _state_fingerprint(batched) == _state_fingerprint(single)


@pytest.mark.parametrize("family", sorted(FAMILY_QUERIES))
def test_mid_batch_reallocation_parity(family, stream):
    """A regime shift inside one chunk reallocates exactly like the scalar path.

    The stream trebles its scale mid-chunk, which drags the focus target
    away from the fitted interval and forces reallocation (and, for the
    extrema families, a near-disjoint regime rebuild) while the kernel is
    deep inside a vectorised segment.
    """
    shifted = [Record(r.x, r.y) for r in stream[:400]]
    shifted += [Record(r.x * 3.0 + 50.0, r.y) for r in stream[400:800]]
    xs = [r.x for r in shifted]
    ys = [r.y for r in shifted]
    single = _build(family)
    expected = [single.update(r) for r in shifted]
    batched = _build(family)
    assert batched.update_columns(xs, ys) == expected
    assert _state_fingerprint(batched) == _state_fingerprint(single)


def _traced_run(family, records, collect, columnar, monkeypatch):
    """``update_columns`` under a tracer: its result, estimator and spans.

    ``columnar=False`` forces the scalar batch loop, the reference.
    """
    tracer = Tracer(max_spans=100_000)
    estimator = build_estimator(
        FAMILY_QUERIES[family], "piecemeal-uniform", num_buckets=10, tracer=tracer
    )
    kernel_rows: list[int] = []
    if columnar:
        steady = estimator._steady_columns

        def counted(xs, *args):
            kernel_rows.append(len(xs))
            return steady(xs, *args)

        monkeypatch.setattr(estimator, "_steady_columns", counted)
    else:
        monkeypatch.setattr(estimator, "_columns_supported", lambda collect: False)
    got = estimator.update_columns(
        [r.x for r in records], [r.y for r in records], collect=collect
    )
    spans = [(span["name"], span["attributes"]) for span in tracer.recent()]
    return got, estimator, spans, sum(kernel_rows)


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
def test_traced_columns_take_the_kernel(family, stream, monkeypatch):
    """Tracing without per-record answers keeps the vectorised kernel.

    The scalar loop opens no answer span for ``"none"``, and the kernel
    pushes every boundary record through the same scalar machinery, so
    state and the span sequence match it exactly.
    """
    expected, single, single_spans, _ = _traced_run(
        family, stream, "none", False, monkeypatch
    )
    got, batched, spans, kernel_rows = _traced_run(
        family, stream, "none", True, monkeypatch
    )
    assert kernel_rows > SIZE // 2
    assert got == expected
    assert _state_fingerprint(batched) == _state_fingerprint(single)
    assert {name for name, _ in single_spans} > {"kernel.build"}
    assert spans == single_spans


def test_traced_collect_all_stays_scalar():
    """Per-record answers under a tracer open one span per tuple."""
    for family in KERNEL_FAMILIES:
        estimator = build_estimator(
            FAMILY_QUERIES[family], "piecemeal-uniform", num_buckets=10, tracer=Tracer()
        )
        assert not estimator._columns_supported("all")
        assert estimator._columns_supported("none")


def test_mismatched_columns_rejected(columns):
    xs, ys = columns
    estimator = _build("landmark_extrema")
    with pytest.raises(ConfigurationError):
        estimator.update_columns(xs[:10], ys[:9])


def test_bad_collect_mode_did_you_mean():
    estimator = _build("landmark_extrema")
    with pytest.raises(ConfigurationError, match="collect"):
        estimator.update_columns([1.0], [1.0], collect="lsat")
    # No "last" mode: the final answer is estimate().
    with pytest.raises(ConfigurationError, match="collect"):
        estimator.update_many([Record(1.0)], collect="last")


# ------------------------------------------------------------- time-sliding

TIMED_QUERY = CorrelatedQuery("count", "min", epsilon=99.0)


def _timed_stream(stream):
    times = [i * 0.5 for i in range(len(stream))]
    return times, stream


def test_time_sliding_columns_timed_matches_scalar(stream):
    times, records = _timed_stream(stream)
    xs = [r.x for r in records]
    ys = [r.y for r in records]
    single = TimeSlidingEstimator(TIMED_QUERY, duration=50.0, num_buckets=10)
    expected = [single.update(t, r) for t, r in zip(times, records)]
    batched = TimeSlidingEstimator(TIMED_QUERY, duration=50.0, num_buckets=10)
    assert batched.update_columns(xs, ys, times=times) == expected
    assert batched.obs_state() == single.obs_state()
    lean = TimeSlidingEstimator(TIMED_QUERY, duration=50.0, num_buckets=10)
    assert lean.update_columns(xs, ys, collect="none", times=times) == []
    assert lean.estimate() == expected[-1]
    assert lean.obs_state() == single.obs_state()


def test_time_sliding_columns_timed_length_mismatch(stream):
    estimator = TimeSlidingEstimator(TIMED_QUERY, duration=50.0, num_buckets=10)
    with pytest.raises(ConfigurationError, match="mismatched"):
        estimator.update_columns([1.0], times=[1.0, 2.0])


@pytest.mark.parametrize("family", sorted(FAMILY_QUERIES))
def test_empty_chunks_return_nothing(family, stream):
    """An empty chunk ingests nothing and returns [] in every mode."""
    estimator = _build(family)
    oracle = build_estimator(FAMILY_QUERIES[family], "exact", stream=stream)
    for algorithm in (estimator, oracle):
        for collect in ("all", "none"):
            assert algorithm.update_columns([], [], collect=collect) == []
            assert algorithm.update_many([], collect=collect) == []
    estimator.update_many(stream[:300], collect="none")
    before = _state_fingerprint(estimator)
    for collect in ("all", "none"):
        assert estimator.update_columns([], [], collect=collect) == []
        assert estimator.update_many([], collect=collect) == []
    assert _state_fingerprint(estimator) == before


@pytest.mark.parametrize("family", sorted(FAMILY_QUERIES))
def test_times_rejected_on_count_scope(family, columns):
    xs, ys = columns
    oracle = build_estimator(FAMILY_QUERIES[family], "exact", universe=xs)
    for algorithm in (_build(family), oracle):
        untouched = algorithm.obs_state()
        with pytest.raises(ConfigurationError, match="times="):
            algorithm.update_columns(xs[:10], ys[:10], times=[float(i) for i in range(10)])
        assert algorithm.obs_state() == untouched  # nothing ingested


def test_time_sliding_requires_times(stream):
    records = stream[:10]
    estimator = TimeSlidingEstimator(TIMED_QUERY, duration=50.0, num_buckets=10)
    with pytest.raises(ConfigurationError, match="times="):
        estimator.update_columns([r.x for r in records], [r.y for r in records])
    with pytest.raises(ConfigurationError, match="times="):
        estimator.update_many(records)
    assert estimator.live_count == 0


def test_time_sliding_timed_collect_modes(stream):
    times, records = _timed_stream(stream[:200])
    single = TimeSlidingEstimator(TIMED_QUERY, duration=50.0, num_buckets=10)
    expected = [single.update(t, r) for t, r in zip(times, records)]
    xs = [r.x for r in records]
    ys = [r.y for r in records]
    for collect, want in (("all", expected), ("none", [])):
        batched = TimeSlidingEstimator(TIMED_QUERY, duration=50.0, num_buckets=10)
        assert batched.update_columns(xs, ys, collect=collect, times=times) == want
        assert batched.estimate() == expected[-1]


# --------------------------------------------------------- quantile policy
#
# Under the quantile policy every fine-bucket insert counts toward the
# next merge/split swap.  The columnar kernel cuts its vectorised
# segments at the record that runs the countdown out and steps it through
# the scalar machinery, so swaps land on exactly the scalar record — in
# the sliding window too, where that record also evicts.

QUANTILE_METHODS = ("wholesale-quantile", "piecemeal-quantile")
QUANTILE_BATCH_SIZES = (1, 7, 32, WINDOW - 1, WINDOW, WINDOW + 1, 4096)
QUANTILE_FAMILIES = ("landmark_extrema", "landmark_avg", "sliding_extrema")


def _quantile_stream(family: str, n: int = 1500) -> list[Record]:
    """A stream that keeps most records in the fine buckets.

    Extrema: a slowly falling floor scaled by up to 3x, so nearly every
    record lands inside ``[min, 100 * min]`` and new minima (region
    shifts) keep arriving — in the sliding window, as old minima expire
    and fresh ones arrive.  AVG: 70% of the records sit on the mean
    (inside the CLT focus) and 30% spread wide, so the narrowing focus
    keeps triggering reallocations.
    """
    rng = random.Random(3)
    if family.endswith("extrema"):
        return [
            Record((1000.0 - 0.5 * i) * rng.uniform(0.9, 3.0), rng.uniform(0.5, 2.0))
            for i in range(n)
        ]
    return [
        Record(
            100.0
            + (rng.gauss(0.0, 0.01) if rng.random() < 0.7 else rng.gauss(0.0, 10.0)),
            rng.uniform(0.5, 2.0),
        )
        for _ in range(n)
    ]


def _build_quantile(family, method, swap_period, sink=None):
    return build_estimator(
        FAMILY_QUERIES[family], method, num_buckets=10, swap_period=swap_period, sink=sink
    )


def _events(sink) -> list[tuple[str, dict]]:
    return [(event.name, event.fields) for event in sink.events]


def _scalar_run(family, method, swap_period, records):
    """Scalar replay: outputs, the estimator, its sink, and per-record event names."""
    sink = RecordingSink()
    estimator = _build_quantile(family, method, swap_period, sink)
    outputs: list[float] = []
    names: list[set[str]] = []
    for record in records:
        seen = len(sink.events)
        outputs.append(estimator.update(record))
        names.append({event.name for event in sink.events[seen:]})
    return outputs, estimator, sink, names


def _columnar_run(family, method, swap_period, records, cuts, collect="none"):
    """Feed ``records`` through update_columns, split at the ``cuts`` offsets."""
    sink = RecordingSink()
    estimator = _build_quantile(family, method, swap_period, sink)
    outputs: list[float] = []
    bounds = [0, *cuts, len(records)]
    for lo, hi in zip(bounds, bounds[1:]):
        chunk = records[lo:hi]
        outputs.extend(
            estimator.update_columns(
                [r.x for r in chunk], [r.y for r in chunk], collect=collect
            )
        )
    return outputs, estimator, sink


def _assert_same(batched, batched_sink, single, single_sink):
    assert _state_fingerprint(batched) == _state_fingerprint(single)
    assert _events(batched_sink) == _events(single_sink)


@pytest.mark.parametrize("family", QUANTILE_FAMILIES)
@pytest.mark.parametrize("method", QUANTILE_METHODS)
def test_untraced_quantile_estimators_take_the_columnar_path(family, method):
    estimator = _build_quantile(family, method, 32, RecordingSink())
    assert estimator._columns_supported("none")


@pytest.mark.parametrize("family", QUANTILE_FAMILIES)
@pytest.mark.parametrize("method", QUANTILE_METHODS)
@pytest.mark.parametrize("swap_period", [3, 32])
@pytest.mark.parametrize("batch_size", QUANTILE_BATCH_SIZES)
@pytest.mark.parametrize("collect", ["all", "none"])
def test_quantile_columns_match_scalar(family, method, swap_period, batch_size, collect):
    """Outputs, edges, masses, the swap countdown and every event match."""
    records = _quantile_stream(family)
    expected, single, single_sink, names = _scalar_run(family, method, swap_period, records)
    assert sum("hist.swap" in n for n in names) >= 30
    cuts = list(range(batch_size, len(records), batch_size))
    got, batched, batched_sink = _columnar_run(
        family, method, swap_period, records, cuts, collect
    )
    if collect == "all":
        assert got == expected
    assert batched.estimate() == expected[-1]
    _assert_same(batched, batched_sink, single, single_sink)


def _first_swap_index(names, start: int = 0, also: str | None = None) -> int:
    for i, n in enumerate(names[start:], start):
        if "hist.swap" in n and (also is None or also in n):
            return i
    raise AssertionError("stream has no such swap record")


@pytest.mark.parametrize("family", QUANTILE_FAMILIES)
@pytest.mark.parametrize("method", QUANTILE_METHODS)
def test_chunk_ending_on_the_swap_record(family, method):
    """A chunk whose last record fires the swap leaves a fresh countdown."""
    records = _quantile_stream(family, 800)
    _, _, _, names = _scalar_run(family, method, 3, records)
    k = _first_swap_index(names, start=200)
    _, single, single_sink, _ = _scalar_run(family, method, 3, records[: k + 1])
    _, batched, batched_sink = _columnar_run(family, method, 3, records[: k + 1], [150])
    assert batched._adds_since_swap == 0
    _assert_same(batched, batched_sink, single, single_sink)
    # ... and the next chunk picks the countdown up from zero.
    _, single, single_sink, _ = _scalar_run(family, method, 3, records)
    _, batched, batched_sink = _columnar_run(family, method, 3, records, [150, k + 1])
    _assert_same(batched, batched_sink, single, single_sink)


@pytest.mark.parametrize("family", QUANTILE_FAMILIES)
@pytest.mark.parametrize("method", QUANTILE_METHODS)
def test_nan_right_after_a_swap(family, method):
    """A NaN straight after a swap raises with the post-swap scalar state."""
    records = _quantile_stream(family, 800)
    _, _, _, names = _scalar_run(family, method, 3, records)
    k = _first_swap_index(names, start=300)
    bad = records[: k + 1] + [Record(math.nan, 1.0)] + records[k + 1 :]
    single_sink = RecordingSink()
    single = _build_quantile(family, method, 3, single_sink)
    with pytest.raises(StreamError) as scalar_exc:
        for record in bad:
            single.update(record)
    batched_sink = RecordingSink()
    batched = _build_quantile(family, method, 3, batched_sink)
    with pytest.raises(StreamError) as caught:
        batched.update_columns([r.x for r in bad], [r.y for r in bad], collect="none")
    assert str(caught.value) == str(scalar_exc.value)
    _assert_same(batched, batched_sink, single, single_sink)


@pytest.mark.parametrize("family", QUANTILE_FAMILIES)
@pytest.mark.parametrize("method", QUANTILE_METHODS)
@pytest.mark.parametrize("where", ["mid_chunk", "chunk_start", "chunk_end"])
@pytest.mark.parametrize("collect", ["all", "none"])
def test_swap_on_a_region_shift_record(family, method, where, collect):
    """The swap record is also an LE region shift or an LA reallocation.

    Both run in the one scalar step — shift/reallocate, then the add that
    runs the countdown out — and the kernel must re-stage the edges both
    moved before it resumes vectorising.
    """
    records = _quantile_stream(family)
    expected, single, single_sink, names = _scalar_run(family, method, 3, records)
    k = _first_swap_index(names, start=100, also="region.shift")
    cuts = {"mid_chunk": [k - 5, k + 5], "chunk_start": [k], "chunk_end": [k + 1]}[where]
    got, batched, batched_sink = _columnar_run(family, method, 3, records, cuts, collect)
    if collect == "all":
        assert got == expected
    _assert_same(batched, batched_sink, single, single_sink)
