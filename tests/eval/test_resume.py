"""Checkpointed evaluation: chunk ends, generations and resume.

``evaluate_methods`` cuts the stream at absolute offsets (multiples of
``batch_size`` and of the checkpoint period) and saves every method's
estimator plus its outputs so far at those ends.  A run resumed from any
generation must reproduce a plain run's outputs and error series exactly,
whatever the chunking; ``repr`` is the comparison, so ``-0.0``/``0.0`` and
NaN would show.
"""

from __future__ import annotations

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkpoint import CheckpointManager
from repro.core.query import CorrelatedQuery
from repro.eval.tracker import evaluate_methods
from repro.exceptions import ConfigurationError, StreamError
from tests.conftest import make_records

QUERIES = (
    CorrelatedQuery("count", "min", epsilon=9.0),
    CorrelatedQuery("sum", "avg"),
    CorrelatedQuery("count", "avg", window=20),
)
# Focused methods of both strategies and policies, plus the offline ones
# whose shared domain/universe rides in the checkpoint.
METHODS = ["piecemeal-uniform", "wholesale-quantile", "equiwidth", "exact"]


def _reprs(results):
    return {
        method: ([repr(v) for v in r.outputs], [repr(v) for v in r.rmse_series])
        for method, r in results.items()
    }


@settings(max_examples=30, deadline=None)
@given(
    values=st.lists(
        st.sampled_from([1.0, 2.0, 2.0, 3.0, 3.0, 3.0, 50.0]), min_size=30, max_size=150
    ),
    query=st.sampled_from(QUERIES),
    batch_size=st.none() | st.integers(1, 40),
    every=st.integers(1, 29),
    pick=st.integers(0, 10_000),
)
def test_resume_from_any_generation_matches_plain_run(values, query, batch_size, every, pick):
    records = make_records(values, [float(i % 5) for i in range(len(values))])
    plain = _reprs(evaluate_methods(records, query, methods=METHODS))
    with tempfile.TemporaryDirectory() as directory:
        first = CheckpointManager(directory, every=every, retain=10_000)
        checkpointed = evaluate_methods(
            records, query, methods=METHODS, batch_size=batch_size, checkpoint=first
        )
        assert _reprs(checkpointed) == plain

        generations = first.generations()
        assert [offset for offset, _ in generations] == sorted(
            {*range(every, len(records), every), len(records)}
        )
        # Crash simulation: drop every generation newer than a mid-stream one.
        mid = [g for g in generations if g[0] < len(records)]
        keep = pick % len(mid)
        for _, path in generations[keep + 1 :]:
            path.unlink()

        second = CheckpointManager(directory, every=every, retain=10_000)
        resumed = evaluate_methods(
            records,
            query,
            methods=METHODS,
            batch_size=batch_size,
            checkpoint=second,
            resume=True,
        )
        assert _reprs(resumed) == plain
        assert second.generations()[-1][0] == len(records)


class TestResumeErrors:
    QUERY = QUERIES[0]

    def _records(self, rng):
        return make_records(rng.integers(1, 6, size=40))

    def test_empty_directory_rejected(self, rng, tmp_path):
        manager = CheckpointManager(tmp_path, every=10)
        with pytest.raises(StreamError, match="no checkpoint"):
            evaluate_methods(self._records(rng), self.QUERY, checkpoint=manager, resume=True)

    def test_wrong_payload_type_rejected(self, rng, tmp_path):
        CheckpointManager(tmp_path).save(["not", "an", "evaluation"], 10)
        manager = CheckpointManager(tmp_path, every=10)
        with pytest.raises(StreamError, match="does not hold a resumable evaluation"):
            evaluate_methods(self._records(rng), self.QUERY, checkpoint=manager, resume=True)

    def test_method_mismatch_rejected(self, rng, tmp_path):
        records = self._records(rng)
        manager = CheckpointManager(tmp_path, every=10)
        evaluate_methods(records, self.QUERY, methods=["exact"], checkpoint=manager)
        with pytest.raises(StreamError, match="evaluates methods"):
            evaluate_methods(
                records,
                self.QUERY,
                methods=["equiwidth"],
                checkpoint=CheckpointManager(tmp_path, every=10),
                resume=True,
            )

    def test_resume_needs_a_manager(self, rng):
        with pytest.raises(ConfigurationError, match="checkpoint manager"):
            evaluate_methods(self._records(rng), self.QUERY, resume=True)

    @pytest.mark.parametrize(
        "instrument", [{"obs": True}, {"trace": True}, {"audit_every": 5}]
    )
    def test_instrumentation_and_checkpointing_are_exclusive(self, rng, tmp_path, instrument):
        manager = CheckpointManager(tmp_path, every=10)
        with pytest.raises(ConfigurationError, match="mutually exclusive"):
            evaluate_methods(self._records(rng), self.QUERY, checkpoint=manager, **instrument)
        assert manager.generations() == []
