"""Tests for the keyed bank's threshold-scan ``top(n)``.

For COUNT and SUM dependents :meth:`GatedKeyedBank.top` asks promoted
keys for their answers in descending order of an answer bound and stops
once no remaining bound can reach the n-th answer; tail slots below the
n-th answer are skipped.  These tests pin that it ranks exactly like the
full scan ``rank_estimates(bank.estimates().items(), n)``, and the
premise the stopping rule rests on: a promoted COUNT answer never exceeds
the records its estimator consumed, nor a SUM answer's magnitude their
``sum |y|``, beyond the bank's rounding allowance.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import build_estimator, methods_for_query
from repro.core.query import CorrelatedQuery
from repro.keyed import GatedKeyedBank
from repro.keyed.gated import (
    _ROUNDOFF_PER_RECORD,
    ONLINE_METHODS,
    key_gauge_names,
    rank_estimates,
)
from repro.streams.model import Record

NAN = float("nan")
NUM_BUCKETS = 4
WINDOW = 12

#: Every online method, plus equiwidth with an explicit domain.
METHODS = [(method, {}) for method in ONLINE_METHODS] + [
    ("equiwidth", {"domain": (0.0, 10.0)})
]
_METHOD_IDS = [method for method, _ in METHODS]


class _NanEstimator:
    """Stand-in whose answer is NaN (focused estimators reject non-finite
    records, so a NaN answer must be injected — e.g. an extrema estimator
    whose focus region emptied)."""

    def update(self, record: Record) -> float:
        return NAN

    def estimate(self) -> float:
        return NAN


@st.composite
def _query(draw, method: str, dependents=("count", "sum", "avg")) -> CorrelatedQuery:
    """A query ``method`` accepts: any dependent, landmark or sliding."""
    dependent = draw(st.sampled_from(dependents))
    window = draw(st.sampled_from([None, WINDOW]))
    independent = draw(st.sampled_from(["min", "max", "avg"]))
    if independent == "avg":
        query = CorrelatedQuery(dependent, "avg", window=window)
    else:
        epsilon = 1.5 if independent == "min" else 0.5
        query = CorrelatedQuery(dependent, independent, epsilon=epsilon, window=window)
    if method not in methods_for_query(query):
        # Heuristics and streaming-equidepth are landmark-only; the
        # extrema heuristics need MIN/MAX, heuristic-running needs AVG.
        query = CorrelatedQuery(
            dependent, "avg" if method == "heuristic-running" else "min", epsilon=1.5
        )
    return query


#: Duplicate-heavy attributes: few distinct x (COUNT answers tie with
#: tail counts) and y in {0, ±1, ...} (SUM answers tie at zero).
_X = st.one_of(
    st.sampled_from([1.0, 2.0, 2.0, 3.0, 5.0, 8.0]),
    st.floats(min_value=0.1, max_value=10.0),
)
_Y = st.one_of(
    st.sampled_from([0.0, 0.0, 1.0, -1.0, 0.5, 2.0]),
    st.floats(min_value=-3.0, max_value=3.0),
)

_OPS = st.lists(
    st.tuples(
        st.sampled_from(["update"] * 12 + ["evict", "nan"]),
        st.integers(min_value=0, max_value=11),
        _X,
        _Y,
    ),
    min_size=10,
    max_size=120,
)


def _assert_top_matches_full_scan(bank: GatedKeyedBank) -> None:
    for n in range(1, len(bank) + 3):
        expected = rank_estimates(bank.estimates().items(), n)
        assert repr(bank.top(n)) == repr(expected), n


class TestMatchesFullScan:
    """``top(n)`` is ``repr``-equal to ranking every tracked key."""

    @pytest.mark.parametrize(("method", "options"), METHODS, ids=_METHOD_IDS)
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_differential(self, method, options, data):
        query = data.draw(_query(method), label="query")
        probe = GatedKeyedBank(query, method, num_buckets=NUM_BUCKETS, **options)
        budget = data.draw(
            st.sampled_from([None, 1, 2, 3]), label="budget in estimators"
        )
        bank = GatedKeyedBank(
            query,
            method,
            num_buckets=NUM_BUCKETS,
            sketch_capacity=data.draw(st.sampled_from([2, 4, 8]), label="capacity"),
            promote_threshold=data.draw(st.integers(1, 3), label="threshold"),
            replay_buffer=data.draw(st.sampled_from([None, 0, 1]), label="buffer"),
            # 1 estimator's worth defers some promotions; 2-3 demote.
            memory_budget=None if budget is None else budget * probe._estimator_bytes_hint,
            **options,
        )
        for step, (op, key, x, y) in enumerate(data.draw(_OPS, label="ops")):
            if op == "evict":
                bank.evict(key)
            elif op == "nan":
                if bank.is_promoted(key):
                    bank._promoted[key] = _NanEstimator()
            else:
                bank.update(key, Record(x, y))
            if step % 10 == 9:
                _assert_top_matches_full_scan(bank)
        _assert_top_matches_full_scan(bank)

    def test_rounding_allowance_keeps_an_earlier_tie(self):
        # wholesale-uniform answers 4.000000000000001 for "a"'s four
        # records: above its record count.  "b" repeats them plus one that
        # does not qualify, so both keys answer the same, "b" from the
        # larger bound.  Bounded by the record count alone, "a" (4 < b's
        # answer) would be skipped, though it precedes "b" in the ranking.
        query = CorrelatedQuery("count", "min", epsilon=1000.0)
        bank = GatedKeyedBank(
            query, "wholesale-uniform", num_buckets=3, promote_threshold=1
        )
        history = [Record(x) for x in (10.0, 3.98, 1.58, 0.63)]
        for record in history:
            bank.update("a", record)
        for record in history + [Record(1000.0)]:
            bank.update("b", record)
        assert bank.estimate("a") == bank.estimate("b") > 4.0
        assert bank.top(1) == [("a", bank.estimate("a"))]
        _assert_top_matches_full_scan(bank)

    def test_stops_only_on_a_strictly_greater_answer(self):
        # "b" has the larger bound and is asked first; its answer 0.0
        # equals "a"'s zero bound.  "a" came first, so it must still be
        # asked: it ties at 0.0 and outranks "b".
        query = CorrelatedQuery("sum", "min", epsilon=9.0)
        bank = GatedKeyedBank(query, promote_threshold=1)
        bank.update("a", Record(1.0, 0.0))
        bank.update("b", Record(1.0, 1.0))
        bank.update("b", Record(1.0, -1.0))
        assert bank.estimates() == {"a": 0.0, "b": 0.0}
        assert bank.top(1) == [("a", 0.0)]
        _assert_top_matches_full_scan(bank)


class TestAnswerBoundPremise:
    """The stopping rule skips a promoted key only when its bound is below
    the n-th answer, so each answer must stay within its bound."""

    @pytest.mark.parametrize(("method", "options"), METHODS, ids=_METHOD_IDS)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_standalone_answer_within_consumed_records(self, method, options, data):
        query = data.draw(_query(method, dependents=("count", "sum")), label="query")
        records = data.draw(
            st.lists(st.tuples(_X, _Y), min_size=1, max_size=150), label="records"
        )
        estimator = build_estimator(query, method, num_buckets=NUM_BUCKETS, **options)
        mass = 0.0
        for hits, (x, y) in enumerate(records, start=1):
            answer = estimator.update(Record(x, y))
            mass += abs(y)
            total = hits if query.dependent == "count" else mass
            bound = total * (1.0 + hits * _ROUNDOFF_PER_RECORD)
            assert math.isnan(answer) or abs(answer) <= bound, (hits, answer, total)

    @pytest.mark.parametrize(("method", "options"), METHODS, ids=_METHOD_IDS)
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_bank_bounds_cover_promoted_answers(self, method, options, data):
        # Promotion replays, demotions, re-promotions and evictions must
        # keep each key's consumed-record bookkeeping behind its bound.
        query = data.draw(_query(method, dependents=("count", "sum")), label="query")
        probe = GatedKeyedBank(query, method, num_buckets=NUM_BUCKETS, **options)
        bank = GatedKeyedBank(
            query,
            method,
            num_buckets=NUM_BUCKETS,
            sketch_capacity=4,
            promote_threshold=2,
            memory_budget=3 * probe._estimator_bytes_hint,
            **options,
        )
        for op, key, x, y in data.draw(_OPS, label="ops"):
            if op == "evict":
                bank.evict(key)
            else:
                bank.update(key, Record(x, y))
            bounds = bank._answer_bounds()
            for promoted in bank.promoted_keys():
                answer = bank.estimate(promoted)
                assert math.isnan(answer) or abs(answer) <= bounds[promoted], promoted


class TestObsKeyDetail:
    def test_gauges_equal_full_scan_ranking(self, rng):
        query = CorrelatedQuery("count", "min", epsilon=9.0)
        bank = GatedKeyedBank(
            query, promote_threshold=8, sketch_capacity=16, obs_key_detail=5
        )
        for i in range(600):
            record = Record(float(rng.uniform(1, 100)), float(rng.uniform(0.5, 2)))
            bank.update(f"k{int(rng.zipf(1.3)) % 40}", record)
        assert bank.promoted_keys() and len(bank._admission) > 0
        names = key_gauge_names(bank.keys())
        expected: dict[str, float] = {}
        for key, value in rank_estimates(bank.estimates().items(), 5):
            answer = bank.estimate_interval(key)
            prefix = f"key.{names[key]}"
            expected[f"{prefix}.estimate"] = value
            expected[f"{prefix}.low"] = answer.low
            expected[f"{prefix}.high"] = answer.high
            expected[f"{prefix}.promoted"] = float(answer.kind == "promoted")
        state = bank.obs_state()
        detail = {name: value for name, value in state.items() if name.startswith("key.")}
        assert detail == expected
        assert len(detail) == 4 * 5
