"""Tests for the one-estimator-per-key configuration of the keyed bank.

``GatedKeyedBank(query, promote_threshold=1)`` gives every key a full
estimator on first sight; these tests pin that it behaves exactly like
one standalone estimator per key, plus the bank-level helpers (ranking,
gauge naming) every configuration shares.
"""

from __future__ import annotations

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import FOCUSED_METHODS, build_estimator
from repro.core.exact import exact_series
from repro.core.query import CorrelatedQuery
from repro.exceptions import ConfigurationError
from repro.keyed import GatedKeyedBank
from repro.keyed import gated
from repro.keyed.gated import (
    ONLINE_METHODS,
    escape_key_name,
    key_gauge_names,
    rank_estimates,
)
from repro.obs.sink import RecordingSink
from repro.streams.model import Record
from tests.conftest import make_records

QUERY = CorrelatedQuery("count", "min", epsilon=9.0)
AVG_QUERY = CorrelatedQuery("sum", "avg")
SLIDING_QUERY = CorrelatedQuery("count", "max", epsilon=0.5, window=20)

NAN = float("nan")


def _bank(query=QUERY, **kwargs) -> GatedKeyedBank:
    return GatedKeyedBank(query, promote_threshold=1, **kwargs)


class _NanEstimator:
    """Stand-in whose estimate is NaN (focused estimators reject non-finite
    records at ingestion, so a NaN answer must be injected directly — e.g.
    an extrema estimator whose focus region emptied)."""

    def estimate(self) -> float:
        return NAN


class TestValidation:
    def test_offline_methods_rejected(self):
        for method in ("equidepth", "exact"):
            with pytest.raises(ConfigurationError):
                _bank(method=method)

    def test_equiwidth_needs_domain(self):
        with pytest.raises(ConfigurationError):
            _bank(method="equiwidth")
        bank = _bank(method="equiwidth", domain=(0.0, 100.0))
        bank.update("a", Record(5.0))
        assert "a" in bank

    def test_online_methods_all_buildable(self):
        for method in ONLINE_METHODS:
            query = QUERY if "running" not in method else CorrelatedQuery("count", "avg")
            bank = _bank(query, method=method)
            bank.update("k", Record(5.0))
            assert bank.is_promoted("k")


class TestRouting:
    def test_keys_are_independent(self, rng):
        bank = _bank()
        a_records = make_records(rng.uniform(1.0, 10.0, size=200))
        b_records = make_records(rng.uniform(100.0, 1000.0, size=200))
        for ra, rb in zip(a_records, b_records):
            bank.update("a", ra)
            bank.update("b", rb)
        exact_a = exact_series(a_records, QUERY)[-1]
        exact_b = exact_series(b_records, QUERY)[-1]
        assert bank.estimate("a") == pytest.approx(exact_a, rel=0.1)
        assert bank.estimate("b") == pytest.approx(exact_b, rel=0.1)

    def test_lazy_creation_and_len(self):
        bank = _bank()
        assert len(bank) == 0
        bank.update("x", Record(1.0))
        bank.update("y", Record(2.0))
        bank.update("x", Record(3.0))
        assert len(bank) == 2
        assert list(bank.keys()) == ["x", "y"]
        assert bank.promoted_keys() == ["x", "y"]

    def test_unknown_key_estimate_is_tail_answer(self):
        bank = _bank()
        bank.update("x", Record(1.0))
        answer = bank.estimate_interval("nope")
        assert answer.kind == "tail"
        assert bank.estimate("nope") == answer.value == 0.0

    def test_estimates_snapshot(self):
        bank = _bank()
        bank.update("x", Record(1.0))
        bank.update("y", Record(2.0))
        snapshot = bank.estimates()
        assert set(snapshot) == {"x", "y"}
        assert all(v >= 0.0 for v in snapshot.values())


class TestEviction:
    def test_evict_forgets_key_and_raises_ceiling(self):
        bank = _bank()
        for _ in range(3):
            bank.update("a", Record(1.0))
        assert bank.evict("a")
        assert not bank.evict("a")  # already gone
        bank.update("b", Record(1.0))
        assert "b" in bank and "a" not in bank
        # The forgotten history bounds every untracked key from now on.
        assert bank.estimate_interval("a").high == 3.0


class TestTop:
    def test_top_ranks_by_estimate(self):
        bank = _bank(CorrelatedQuery("count", "avg"), method="heuristic-running")
        # Key "hot" gets many above-average values, "cold" few.
        for i in range(300):
            bank.update("hot", Record(float(i % 7 + 1)))
        for i in range(30):
            bank.update("cold", Record(float(i % 7 + 1)))
        ranked = bank.top(2)
        assert ranked[0][0] == "hot"
        assert ranked[0][1] >= ranked[1][1]

    def test_top_n_validation(self):
        with pytest.raises(ConfigurationError):
            _bank().top(0)

    def test_top_beyond_live_keys_returns_them_all(self):
        bank = _bank()
        bank.update("a", Record(1.0))
        bank.update("b", Record(2.0))
        ranked = bank.top(10)
        assert len(ranked) == 2
        assert {key for key, _ in ranked} == {"a", "b"}

    def test_nan_estimates_rank_last_deterministically(self):
        # Regression: sorted(..., reverse=True) over raw floats lets a NaN
        # land anywhere (all comparisons are False), poisoning the whole
        # ranking.  NaNs must sort last, in first-seen order, every time.
        bank = _bank()
        for key, x in (("a", 5.0), ("b", 50.0), ("c", 2.0)):
            for _ in range(5):
                bank.update(key, Record(x))
        for key in ("poison", "poison2"):
            # Promote through update() so the key's bookkeeping exists,
            # then swap its estimator for the NaN stand-in.
            bank.update(key, Record(1.0))
            bank._promoted[key] = _NanEstimator()
        for _ in range(5):
            ranked = bank.top(10)
            assert [key for key, _ in ranked[-2:]] == ["poison", "poison2"]
            finite = [value for _, value in ranked[:-2]]
            assert finite == sorted(finite, reverse=True)
            assert all(math.isnan(value) for _, value in ranked[-2:])


class TestRankEstimates:
    def test_nans_last_in_first_seen_order(self):
        items = [("a", NAN), ("b", 3.0), ("c", NAN), ("d", 7.0)]
        assert [key for key, _ in rank_estimates(items)] == ["d", "b", "a", "c"]

    def test_ties_keep_first_seen_order(self):
        items = [("x", 1.0), ("y", 1.0), ("z", 2.0)]
        assert [key for key, _ in rank_estimates(items)] == ["z", "x", "y"]

    def test_n_truncates(self):
        items = [("a", 1.0), ("b", 2.0), ("c", 3.0)]
        assert rank_estimates(items, 2) == [("c", 3.0), ("b", 2.0)]


class TestGaugeNaming:
    def test_dots_and_backslashes_escaped(self):
        assert escape_key_name("a.b") == "a\\.b"
        assert escape_key_name("a\\.b") == "a\\\\\\.b"
        # Distinct keys never alias after escaping.
        assert escape_key_name("a.b") != escape_key_name("a\\b")

    def test_colliding_renderings_disambiguated(self):
        names = key_gauge_names([1, "1", 2])
        assert names[1] == "1"
        assert names["1"] == "1#2"
        assert names[2] == "2"
        assert len(set(names.values())) == 3


class TestEvictEvent:
    def test_evict_emits_event_with_lifetime_updates(self):
        sink = RecordingSink()
        bank = _bank(sink=sink)
        for _ in range(7):
            bank.update("gone", Record(1.0))
        assert bank.evict("gone")
        events = sink.events_named("keyed.evict")
        assert len(events) == 1
        assert events[0].fields == {"key": "gone", "updates": 7.0}

    def test_unknown_evict_emits_nothing(self):
        sink = RecordingSink()
        bank = _bank(sink=sink)
        assert not bank.evict("never")
        assert sink.count("keyed.evict") == 0.0


class TestObsState:
    def test_default_cardinality_is_key_count_independent(self):
        # Regression: obs_state() used to mint gauges per live key, so a
        # scrape's size scaled with the key population.
        small = _bank()
        big = _bank()
        small.update("k0", Record(1.0))
        for i in range(60):
            big.update(f"k{i}", Record(float(i + 1)))
        assert len(big.obs_state()) == len(small.obs_state())
        assert not any(name.startswith("key.") for name in big.obs_state())

    def test_aggregates_report_bank_gauges(self):
        bank = _bank()
        for i in range(10):
            bank.update(f"k{i % 3}", Record(float(i + 1)))
        state = bank.obs_state()
        assert state["keys"] == state["promoted"] == 3.0
        assert state["updates"] == 10.0
        assert state["promotions"] == 3.0
        assert state["promoted_bytes"] > 0.0

    def test_key_detail_opt_in_capped_and_escaped(self):
        bank = _bank(obs_key_detail=2)
        for key in ("dotted.key", "plain", "third"):
            for _ in range(3):
                bank.update(key, Record(5.0))
        state = bank.obs_state()
        detailed = {name for name in state if name.startswith("key.")}
        prefixes = {name.rsplit(".", 1)[0] for name in detailed}
        assert len(prefixes) == 2  # capped at top-K, not all live keys
        assert any("dotted\\.key" in name for name in detailed) or not any(
            "dotted" in name for name in detailed
        )

    def test_colliding_keys_get_distinct_gauges(self):
        bank = _bank(obs_key_detail=5)
        bank.update(1, Record(5.0))
        bank.update("1", Record(50.0))
        state = bank.obs_state()
        estimates = [name for name in state if name.endswith(".estimate")]
        assert len(estimates) == 2  # "1" and "1#2", never one overwriting


class TestByteAccounting:
    def test_update_path_measures_nothing_without_a_budget(self, monkeypatch):
        calls = []
        real_dumps = pickle.dumps

        def counting_dumps(*args, **kwargs):
            calls.append(args[0])
            return real_dumps(*args, **kwargs)

        bank = _bank()
        monkeypatch.setattr(gated.pickle, "dumps", counting_dumps)
        for i in range(5000):  # crosses the refresh cadence
            bank.update(f"k{i % 50}", Record(float(i % 17 + 1)))
        assert calls == []

    def test_promoted_bytes_is_a_sampled_extrapolation(self):
        bank = _bank()
        for i in range(40):
            bank.update(f"k{i}", Record(float(i + 1)))
        sample = [
            len(pickle.dumps(bank._promoted[f"k{i}"], pickle.HIGHEST_PROTOCOL))
            for i in range(gated._MEMORY_SAMPLE)
        ]
        assert bank.promoted_bytes == round(sum(sample) / len(sample) * 40)
        assert bank.obs_state()["promoted_bytes"] == float(bank.promoted_bytes)
        assert _bank().promoted_bytes == 0


# ---------------------------------------------------------- differential

#: (method, query, extra options) for every online method, plus the
#: focused methods over a sliding window.
_DIFFERENTIAL_CASES = [
    (method, AVG_QUERY if method == "heuristic-running" else QUERY, {})
    for method in ONLINE_METHODS
] + [
    ("equiwidth", QUERY, {"domain": (0.0, 10.0)}),
] + [(method, SLIDING_QUERY, {}) for method in FOCUSED_METHODS]


def _keyed_stream(distinct: int):
    """Duplicate-heavy keyed records: few distinct x and y values."""
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=distinct - 1),
            st.sampled_from([1.0, 2.0, 2.0, 3.0, 5.0, 8.0]),
            st.sampled_from([1.0, 0.5, 2.0]),
        ),
        min_size=40,
        max_size=200,
    )


def _assert_matches_standalone(stream, method, query, options, n):
    bank = GatedKeyedBank(
        query, method=method, num_buckets=4, promote_threshold=1, **options
    )
    solo: dict[int, object] = {}
    bank_values, solo_values = [], []
    for key, x, y in stream:
        record = Record(x, y)
        bank_values.append(bank.update(key, record))
        if key not in solo:
            solo[key] = build_estimator(query, method, num_buckets=4, **options)
        solo_values.append(solo[key].update(record))
    assert repr(bank_values) == repr(solo_values), method
    solo_estimates = {key: est.estimate() for key, est in solo.items()}
    assert repr(bank.estimates()) == repr(solo_estimates), method
    assert repr(bank.top(n)) == repr(rank_estimates(solo_estimates.items(), n)), method


class TestStandaloneDifferential:
    """The preset answers exactly what one standalone estimator per key
    answers, fed that key's records in arrival order."""

    @settings(max_examples=15, deadline=None)
    @given(stream=_keyed_stream(distinct=3), n=st.integers(min_value=1, max_value=4))
    def test_few_keys(self, stream, n):
        for method, query, options in _DIFFERENTIAL_CASES:
            _assert_matches_standalone(stream, method, query, options, n)

    @settings(max_examples=15, deadline=None)
    @given(stream=_keyed_stream(distinct=60), n=st.integers(min_value=1, max_value=12))
    def test_many_keys(self, stream, n):
        for method, query, options in _DIFFERENTIAL_CASES:
            _assert_matches_standalone(stream, method, query, options, n)
