"""Tests for the heavy-hitter-gated keyed bank."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import CheckpointManager
from repro.core.engine import build_estimator
from repro.core.query import CorrelatedQuery
from repro.exceptions import ConfigurationError, StreamError
from repro.keyed import GatedKeyedBank
from repro.keyed.gated import ONLINE_METHODS
from repro.obs.sink import RecordingSink
from repro.streams.model import Record

QUERY = CorrelatedQuery("count", "min", epsilon=9.0)
AVG_QUERY = CorrelatedQuery("count", "avg")


def _records(rng, n, low=1.0, high=100.0):
    xs = rng.uniform(low, high, size=n)
    ys = rng.uniform(0.5, 2.0, size=n)
    return [Record(float(x), float(y)) for x, y in zip(xs, ys)]


class TestValidation:
    def test_offline_method_rejected(self):
        with pytest.raises(ConfigurationError):
            GatedKeyedBank(QUERY, method="equidepth")

    def test_unknown_option_fails_at_construction(self):
        # Eager probe build: the engine's did-you-mean fires here, not at
        # first promotion thousands of tuples into the stream.
        with pytest.raises(ConfigurationError, match="k_std"):
            GatedKeyedBank(QUERY, kstd=2.0)

    def test_promote_threshold_positive(self):
        with pytest.raises(ConfigurationError):
            GatedKeyedBank(QUERY, promote_threshold=0)

    def test_memory_budget_positive(self):
        with pytest.raises(ConfigurationError):
            GatedKeyedBank(QUERY, memory_budget=0)

    def test_obs_key_detail_non_negative(self):
        with pytest.raises(ConfigurationError):
            GatedKeyedBank(QUERY, obs_key_detail=-1)

    def test_top_n_positive(self):
        with pytest.raises(ConfigurationError):
            GatedKeyedBank(QUERY).top(0)


class TestPromotion:
    def test_hot_key_promoted_cold_keys_stay_in_sketch(self, rng):
        bank = GatedKeyedBank(QUERY, promote_threshold=16, sketch_capacity=64)
        for record in _records(rng, 100):
            bank.update("hot", record)
        for i, record in enumerate(_records(rng, 30)):
            bank.update(f"cold-{i % 10}", record)
        assert bank.is_promoted("hot")
        assert not any(bank.is_promoted(f"cold-{i}") for i in range(10))
        assert bank.estimate_interval("hot").kind == "promoted"
        assert bank.estimate_interval("cold-0").kind == "sketch"

    def test_exact_promotion_matches_standalone_bit_for_bit(self, rng):
        # Error-free promotion replays the full history: the promoted
        # estimator must be float-for-float the standalone one.
        bank = GatedKeyedBank(
            QUERY, promote_threshold=16, sketch_capacity=64, num_buckets=10
        )
        solo = build_estimator(QUERY, "piecemeal-uniform", num_buckets=10)
        records = _records(rng, 120)
        for record in records:
            bank.update("k", record)
            solo.update(record)
        answer = bank.estimate_interval("k")
        assert answer.exact_history
        assert answer.value == solo.estimate()
        assert answer.low == answer.high == answer.value

    @settings(max_examples=25, deadline=None)
    @given(
        xs=st.lists(
            st.floats(min_value=0.5, max_value=500.0, allow_nan=False),
            min_size=40,
            max_size=120,
        ),
        threshold=st.integers(min_value=4, max_value=32),
    )
    def test_bit_parity_property(self, xs, threshold):
        bank = GatedKeyedBank(QUERY, promote_threshold=threshold)
        solo = build_estimator(QUERY, "piecemeal-uniform", num_buckets=10)
        for i, x in enumerate(xs):
            record = Record(x, float(i % 3 + 1))
            bank.update("only", record)
            solo.update(record)
        answer = bank.estimate_interval("only")
        assert answer.exact_history  # single key: never displaced
        assert answer.value == solo.estimate()

    def test_promote_event_emitted(self, rng):
        sink = RecordingSink()
        bank = GatedKeyedBank(QUERY, promote_threshold=8, sink=sink)
        for record in _records(rng, 20):
            bank.update("k", record)
        events = sink.events_named("keyed.promote")
        assert len(events) == 1
        assert events[0].fields["key"] == "k"
        assert events[0].fields["exact"] == 1.0
        assert events[0].fields["missed"] == 0.0

    @pytest.mark.parametrize("threshold", [1, 3])
    def test_promotion_without_replay_buffer(self, threshold):
        # No buffered record to replay: the triggering record is fed to the
        # new estimator (a sliding-extrema estimator has no answer while
        # empty) and counted as its one consumed record.
        query = CorrelatedQuery("count", "min", epsilon=1.5, window=12)
        bank = GatedKeyedBank(
            query,
            method="wholesale-uniform",
            promote_threshold=threshold,
            replay_buffer=0,
        )
        solo = build_estimator(query, "wholesale-uniform", num_buckets=10)
        records = [Record(float(x), -float(x)) for x in (7, 3, 9, 4, 8, 2, 6)]
        for i, record in enumerate(records):
            value = bank.update("k", record)
            if i + 1 >= threshold:
                assert value == solo.update(record)
        assert bank.is_promoted("k")
        assert bank._missed["k"] == threshold - 1
        assert bank._hits["k"] == len(records) - threshold + 1
        assert bank._mass["k"] == sum(abs(r.y) for r in records[threshold - 1 :])
        assert bank.estimate_interval("k").exact_history == (threshold == 1)

    def test_update_accepts_tuples(self):
        bank = GatedKeyedBank(QUERY)
        value = bank.update("k", (5.0, 2.0))
        assert value >= 0.0


class TestTailAnswers:
    def test_tail_interval_contains_truth(self, rng):
        bank = GatedKeyedBank(QUERY, promote_threshold=64, sketch_capacity=8)
        truth: dict[str, int] = {}
        for i, record in enumerate(_records(rng, 400)):
            key = f"k{i % 40}"
            truth[key] = truth.get(key, 0) + 1
            bank.update(key, record)
        for key, hits in truth.items():
            answer = bank.estimate_interval(key)
            # COUNT-dependent: the aggregate counts a subset of the key's
            # records, so it lies within [0, upper bound on records].
            assert answer.low == 0.0
            assert answer.high >= 0.0
            assert answer.value == answer.high
            if answer.kind == "sketch":
                low, high = bank._admission.hit_bounds(key)
                assert low <= hits <= high

    def test_untracked_key_answers_ceiling_box(self):
        bank = GatedKeyedBank(QUERY)
        answer = bank.estimate_interval("never-seen")
        assert answer.kind == "tail"
        assert answer.low == answer.high == answer.value == 0.0

    def test_sum_tail_bounds_nonnegative_y(self, rng):
        query = CorrelatedQuery("sum", "min", epsilon=9.0)
        bank = GatedKeyedBank(query, promote_threshold=64, sketch_capacity=4)
        for i, record in enumerate(_records(rng, 200)):
            bank.update(f"k{i % 20}", record)
        answer = bank.estimate_interval("k3")
        assert answer.low == 0.0  # all y >= 0 so the sum cannot be negative
        assert answer.high >= 0.0

    def test_avg_tail_bounds_are_y_range(self, rng):
        query = CorrelatedQuery("avg", "avg")
        bank = GatedKeyedBank(
            query, method="heuristic-running", promote_threshold=64,
            sketch_capacity=4,
        )
        for i, record in enumerate(_records(rng, 200)):
            bank.update(f"k{i % 20}", record)
        answer = bank.estimate_interval("k3")
        assert answer.low <= 2.0 and answer.high <= 2.0  # y drawn in [0.5, 2]

    def test_top_merges_promoted_and_tail(self, rng):
        bank = GatedKeyedBank(QUERY, promote_threshold=16, sketch_capacity=32)
        for record in _records(rng, 100):
            bank.update("hot", record)
        for i, record in enumerate(_records(rng, 30)):
            bank.update(f"cold-{i % 10}", record)
        ranked = bank.top(5)
        assert ranked[0][0] == "hot"
        assert len(ranked) == 5
        # n beyond the tracked population returns them all, no padding.
        assert len(bank.top(500)) == len(bank)


class TestMemoryBudget:
    def test_budget_enforced_by_demotion(self, rng):
        probe = GatedKeyedBank(QUERY)
        budget = probe._estimator_bytes_hint * 3
        sink = RecordingSink()
        bank = GatedKeyedBank(
            QUERY,
            promote_threshold=8,
            sketch_capacity=64,
            memory_budget=budget,
            sink=sink,
        )
        for record in _records(rng, 600):
            key = f"k{int(record.x) % 12}"
            bank.update(key, record)
        assert bank.promoted_bytes <= budget
        assert len(bank.promoted_keys()) >= 1
        assert sink.count("keyed.demote") >= 1.0
        demote = sink.events_named("keyed.demote")[0]
        assert {"key", "updates", "bytes"} <= set(demote.fields)

    def test_demoted_key_can_repromote(self, rng):
        bank = GatedKeyedBank(QUERY, promote_threshold=8, sketch_capacity=16)
        for record in _records(rng, 40):
            bank.update("k", record)
        assert bank.is_promoted("k")
        assert bank.demote("k")
        assert not bank.is_promoted("k")
        slot = bank._admission.slot("k")
        assert slot.observed == 40  # lifetime hits survive the demotion
        # Re-promotion needs another threshold's worth of guaranteed hits.
        for record in _records(rng, 8):
            bank.update("k", record)
        assert bank.is_promoted("k")

    def test_demote_unknown_key_is_false(self):
        bank = GatedKeyedBank(QUERY)
        assert not bank.demote("nope")

    def test_impossible_budget_defers_promotion(self, rng):
        bank = GatedKeyedBank(QUERY, promote_threshold=8, memory_budget=1)
        for record in _records(rng, 50):
            bank.update("k", record)
        assert not bank.is_promoted("k")
        assert bank.obs_state()["deferred_promotions"] >= 1.0
        assert bank.promoted_bytes == 0


class TestEviction:
    def test_evict_promoted_key_raises_ceiling(self, rng):
        sink = RecordingSink()
        bank = GatedKeyedBank(QUERY, promote_threshold=8, sink=sink)
        for record in _records(rng, 30):
            bank.update("k", record)
        assert bank.is_promoted("k")
        assert bank.evict("k")
        assert "k" not in bank
        # The forgotten history is folded into the tail bound.
        assert bank.estimate_interval("k").high >= 30.0
        events = sink.events_named("keyed.evict")
        assert len(events) == 1
        assert events[0].fields == {"key": "k", "updates": 30.0}

    def test_evict_sketch_key_and_unknown(self, rng):
        sink = RecordingSink()
        bank = GatedKeyedBank(QUERY, promote_threshold=100, sink=sink)
        for record in _records(rng, 5):
            bank.update("k", record)
        assert bank.evict("k")
        assert not bank.evict("k")
        assert sink.count("keyed.evict") == 1.0


class TestCheckpointRoundTrip:
    def test_pickle_preserves_answers_and_accepts_updates(self, rng, tmp_path):
        bank = GatedKeyedBank(QUERY, promote_threshold=8, sketch_capacity=32)
        records = _records(rng, 300)
        for i, record in enumerate(records[:200]):
            bank.update(f"k{i % 15}", record)
        manager = CheckpointManager(tmp_path, source="keyed-test")
        manager.save(bank, offset=200)
        restored = CheckpointManager(tmp_path, source="keyed-test").restore()
        assert restored is not None and restored.offset == 200
        twin = restored.target
        assert twin.estimates() == bank.estimates()
        assert twin.obs_state() == bank.obs_state()
        # Both copies evolve identically from the checkpoint.
        for i, record in enumerate(records[200:]):
            assert bank.update(f"k{i % 15}", record) == twin.update(
                f"k{i % 15}", record
            )
        assert twin.estimates() == bank.estimates()


class TestObsState:
    def test_aggregates_only_by_default(self, rng):
        bank = GatedKeyedBank(QUERY, promote_threshold=8, sketch_capacity=32)
        for i, record in enumerate(_records(rng, 200)):
            bank.update(f"k{i % 25}", record)
        state = bank.obs_state()
        assert not any(name.startswith("key.") for name in state)
        assert state["keys"] == float(len(bank))
        assert state["updates"] == 200.0
        assert state["promoted"] >= 1.0
        assert state["sketch.capacity"] == 32.0
        assert all(isinstance(v, float) for v in state.values())

    def test_key_detail_capped_at_top_k(self, rng):
        bank = GatedKeyedBank(
            QUERY, promote_threshold=8, sketch_capacity=32, obs_key_detail=3
        )
        for i, record in enumerate(_records(rng, 200)):
            bank.update(f"k{i % 25}", record)
        state = bank.obs_state()
        detailed = {
            name.split(".")[1] for name in state if name.startswith("key.")
        }
        assert len(detailed) == 3
        for name in detailed:
            assert f"key.{name}.estimate" in state
            assert f"key.{name}.low" in state
            assert f"key.{name}.high" in state


class TestNonFiniteRecords:
    """A NaN/inf record is refused at the call, before any state changes."""

    FINITE = [Record(float(x), float(x % 3 + 1)) for x in (1, 2, 3, 4, 5, 6, 7, 8)]
    BAD = [
        Record(float("nan"), 1.0),
        Record(float("inf"), 1.0),
        Record(float("-inf"), 1.0),
        Record(1.0, float("nan")),
        Record(1.0, float("inf")),
        Record(1.0, float("-inf")),
    ]

    @pytest.mark.parametrize("method", ONLINE_METHODS)
    @pytest.mark.parametrize("bad", BAD, ids=repr)
    @pytest.mark.parametrize(
        "position", [0, 2, 5], ids=["new-key", "monitored-key", "promoted-key"]
    )
    def test_refused_without_a_trace(self, method, bad, position):
        # A promoted key relies on its estimator's own check, so every
        # online method must refuse before touching any state.
        query = AVG_QUERY if method == "heuristic-running" else QUERY
        bank = GatedKeyedBank(query, method=method, promote_threshold=4)
        twin = GatedKeyedBank(query, method=method, promote_threshold=4)
        solo = build_estimator(query, method, num_buckets=10)
        for record in self.FINITE[:position]:
            bank.update("k", record)
            twin.update("k", record)
            solo.update(record)
        assert bank.is_promoted("k") == (position >= 4)
        before = pickle.dumps(bank, pickle.HIGHEST_PROTOCOL)
        with pytest.raises(StreamError):
            bank.update("k", bad)
        assert pickle.dumps(bank, pickle.HIGHEST_PROTOCOL) == before
        for record in self.FINITE[position:]:
            got = bank.update("k", record)
            assert got == twin.update("k", record)
            # Every answer matches the standalone estimator, except the
            # tail point heuristic-running's AVG query answers before
            # the key is promoted.
            assert got == solo.update(record) or (
                method == "heuristic-running" and not bank.is_promoted("k")
            )
        answer = bank.estimate_interval("k")
        assert answer.exact_history
        assert answer.value == solo.estimate()

    def test_tuple_input_is_checked_too(self):
        bank = GatedKeyedBank(QUERY)
        with pytest.raises(StreamError):
            bank.update("k", (float("nan"), 1.0))
        assert "k" not in bank


class TestAdmissionHeapBound:
    """Departed slots' heap entries are dropped before they pile up."""

    def test_heap_bounded_under_promote_demote_cycling(self, rng):
        capacity = 64
        probe = GatedKeyedBank(QUERY)
        bank = GatedKeyedBank(
            QUERY,
            promote_threshold=8,
            sketch_capacity=capacity,
            memory_budget=probe._estimator_bytes_hint * 4,
        )
        heap = bank._admission._heap
        for i, record in enumerate(_records(rng, 20_000)):
            bank.update(f"k{i % 40}", record)
            assert len(heap) <= 2 * capacity + 1
        assert bank.obs_state()["demotions"] > 0.0

    def test_heap_bounded_when_every_key_is_promoted(self):
        capacity = 16
        bank = GatedKeyedBank(QUERY, promote_threshold=1, sketch_capacity=capacity)
        for i in range(1000):
            bank.update(i, Record(float(i % 50 + 1)))
            assert len(bank._admission._heap) <= 2 * capacity + 1
        assert len(bank.promoted_keys()) == 1000
