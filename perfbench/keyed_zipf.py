"""``keyed-zipf``: per-tuple updates of a heavy-hitter-gated keyed bank.

zipf(1.1) keys over ``distinct`` ids go into a ``GatedKeyedBank``
(landmark COUNT/MIN, ``piecemeal-uniform``) one ``update(key, record)``
at a time, under a byte budget tight enough that promoted keys get
demoted again.  Every ``query_every`` chunks the benchmark reads
``top(10)`` and the ``estimate_interval`` of each key it returns; every
``checkpoint_every`` chunks a ``CheckpointManager`` saves the whole
bank.  Each pass starts from a fresh bank, so every pass must read the
same answers.
"""

from __future__ import annotations

import pickle
import shutil
from time import perf_counter

import numpy as np

from harness import Verification, Workload
from repro.checkpoint import CheckpointManager
from repro.core.engine import build_estimator
from repro.core.query import CorrelatedQuery
from repro.datasets.zipf import zipf_keys, zipf_stream
from repro.keyed import GatedKeyedBank

QUERY = CorrelatedQuery("count", "min", epsilon=9.0)
METHOD = "piecemeal-uniform"
NUM_BUCKETS = 10
KEY_SKEW = 1.1
TOP = 10
#: Distinct keys whose exact record counts are checked against the bank.
BOUND_SAMPLE = 2000
#: Exactly promoted keys replayed through standalone estimators.
PARITY_SAMPLE = 5


class KeyedZipf(Workload):
    name = "keyed-zipf"

    def __init__(
        self,
        tuples: int = 131_072,
        distinct: int = 100_000,
        chunk: int = 128,
        query_every: int = 8,
        checkpoint_every: int = 32,
        sketch_capacity: int = 1024,
        promote_threshold: int = 32,
        memory_budget: int = 96 * 1024,
    ) -> None:
        self.tuples = tuples
        self.distinct = distinct
        self.chunk = chunk
        self.query_every = query_every
        self.checkpoint_every = checkpoint_every
        self.sketch_capacity = sketch_capacity
        self.promote_threshold = promote_threshold
        self.memory_budget = memory_budget
        self.provenance = {
            "why": (
                "the per-tuple scalar path through the admission sketch, promotion "
                "replay and the demotion accountant; an O(tracked keys) ranking query; "
                "large-state checkpoints"
            ),
            "loads": [
                "datasets.zipf", "keyed.gated", "keyed.admission",
                "core.landmark_extrema (scalar update)", "checkpoint",
            ],
            "bypasses": ["streams.columns", "core.sliding_*", "core.exact", "eval", "parallel"],
            "loop": "closed: one process, each call waits for the previous one",
            "cadence": {
                "tuples_per_pass": tuples,
                "distinct_keys": distinct,
                "key_skew": KEY_SKEW,
                "chunk_tuples": chunk,
                "query_every_chunks": query_every,
                "checkpoint_every_chunks": checkpoint_every,
                "memory_budget_bytes": memory_budget,
            },
        }
        self.records: list = []
        self.keys: list[int] = []
        self.seed = 0
        self.bank: GatedKeyedBank | None = None

    def setup(self, seed: int, spans) -> None:
        with spans.span("datasets.gen"):
            self.records = zipf_stream(n=self.tuples, seed=seed, exponent=2.0, num_ranks=2000)
            self.keys = zipf_keys(self.tuples, self.distinct, exponent=KEY_SKEW, seed=seed).tolist()
        self.seed = seed

    def run_pass(self, rec) -> list:
        spans = rec.spans
        with spans.span("keyed.build"):
            bank = GatedKeyedBank(
                QUERY,
                METHOD,
                num_buckets=NUM_BUCKETS,
                sketch_capacity=self.sketch_capacity,
                promote_threshold=self.promote_threshold,
                memory_budget=self.memory_budget,
            )
        # Every pass writes the same offsets; start each from an empty
        # directory so rotation never drops a generation just written.
        shutil.rmtree(self.work_dir / "ckpt", ignore_errors=True)
        manager = CheckpointManager(self.work_dir / "ckpt", retain=2)
        update = bank.update
        records, keys, size = self.records, self.keys, self.chunk
        answers = []
        for index, lo in enumerate(range(0, len(records), size)):
            hi = min(lo + size, len(records))
            started = perf_counter()
            with spans.span("bench.chunk"):
                with spans.span("keyed.update"):
                    for key, record in zip(keys[lo:hi], records[lo:hi]):
                        update(key, record)
                if (index + 1) % self.query_every == 0:
                    asked = perf_counter()
                    with spans.span("keyed.query"):
                        top = bank.top(TOP)
                        answers.append([(key, bank.estimate_interval(key)) for key, _ in top])
                    rec.query_s.append(perf_counter() - asked)
                if (index + 1) % self.checkpoint_every == 0:
                    with spans.span("checkpoint.save"):
                        path = manager.save(bank, hi)
                    rec.saves += 1
                    rec.save_bytes += path.stat().st_size
            rec.chunk_done(started)
        rec.tuples += len(records)
        self.bank = bank
        return answers

    def counters(self, rec, passes: int) -> dict[str, float]:
        state = self.bank.obs_state()
        promotions = state["promotions"]
        return {
            "keyed.promotions": promotions,
            "keyed.demotions": state["demotions"],
            "keyed.deferred_promotions": state["deferred_promotions"],
            "keyed.sketch_replacements": state["sketch.replacements"],
            "keyed.promoted_bytes": state["promoted_bytes"],
            "keyed.demote_ratio": state["demotions"] / promotions if promotions else 0.0,
        }

    def verify(self, rec) -> Verification:
        v = Verification()
        bank = self.bank
        keys = np.asarray(self.keys)
        xs = np.fromiter((r.x for r in self.records), dtype=np.float64, count=len(self.records))
        counts = np.bincount(keys, minlength=self.distinct)
        seen = np.flatnonzero(counts)
        rng = np.random.default_rng(self.seed)
        sample = set(rng.choice(seen, size=min(BOUND_SAMPLE, len(seen)), replace=False).tolist())
        sample.update(bank.promoted_keys())
        for key in sorted(sample):
            answer = bank.estimate_interval(key)
            if answer.exact_history:
                continue  # covered by the standalone parity check below
            hits = int(counts[key])
            low = answer.high - answer.missed
            v.check(
                low <= hits <= answer.high,
                f"key {key}: {hits} records outside the bank's [{low}, {answer.high}]",
            )
        exact_keys = [
            key for key, _ in bank.top(50) if bank.estimate_interval(key).exact_history
        ][:PARITY_SAMPLE]
        for key in exact_keys:
            solo = build_estimator(QUERY, METHOD, num_buckets=NUM_BUCKETS)
            solo.update_many([self.records[i] for i in np.flatnonzero(keys == key)], collect="none")
            v.check(
                solo.estimate() == bank.estimate(key),
                f"key {key}: bank {bank.estimate(key)!r} != standalone {solo.estimate()!r}",
            )
        errors, rel = [], []
        for key, value in bank.top(TOP):
            member = xs[keys == key]
            exact = float(np.count_nonzero(member <= QUERY.threshold(float(member.min()))))
            errors.append(value - exact)
            rel.append(abs(value - exact) / max(exact, 1.0))
        v.final_rel_err = float(np.mean(rel))
        v.rmse_n = float(np.sqrt(np.mean(np.square(errors))))
        v.state_bytes = float(len(pickle.dumps(bank, pickle.HIGHEST_PROTOCOL)))
        return v
