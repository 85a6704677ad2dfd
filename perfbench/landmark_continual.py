"""``landmark-continual``: chunked columnar ingestion into eight landmark estimators.

A USAGE-shaped stream arrives in fixed-size chunks.  Each chunk is
staged by ``records_to_columns`` and fed through
``update_columns(collect="none")`` into eight landmark estimators —
COUNT/MIN with eps=99 and COUNT/AVG, each under the four focused
methods.  After every chunk each estimator answers ``estimate()`` and
``estimate_bounds()``; every ``checkpoint_every`` chunks a
``CheckpointManager`` saves all eight.  Each pass starts from fresh
estimators, so every pass must read the same answers, and those must be
bit-identical to a scalar ``update()`` replay.
"""

from __future__ import annotations

import pickle
import shutil
from time import perf_counter

import numpy as np

from harness import Verification, Workload
from repro.checkpoint import CheckpointManager
from repro.core.engine import FOCUSED_METHODS, build_estimator
from repro.core.query import CorrelatedQuery
from repro.datasets.usage import usage_stream
from repro.streams.columns import records_to_columns

#: (family, query): every query runs under all four focused methods.
QUERIES = (
    ("landmark_extrema", CorrelatedQuery("count", "min", epsilon=99.0)),
    ("landmark_avg", CorrelatedQuery("count", "avg")),
)


def _exact_counts(xs: np.ndarray, ends: list[int]) -> dict[str, list[float]]:
    """Exact COUNT answers of both queries after each chunk, with numpy."""
    prefix_min = np.minimum.accumulate(xs)
    exact: dict[str, list[float]] = {family: [] for family, _ in QUERIES}
    for end in ends:
        seen = xs[:end]
        for family, query in QUERIES:
            if query.independent == "min":
                qualifying = seen <= query.threshold(float(prefix_min[end - 1]))
            else:
                qualifying = seen > seen.mean()
            exact[family].append(float(np.count_nonzero(qualifying)))
    return exact


class LandmarkContinual(Workload):
    name = "landmark-continual"

    def __init__(self, tuples: int = 65_536, chunk: int = 32, checkpoint_every: int = 32) -> None:
        self.tuples = tuples
        self.chunk = chunk
        self.checkpoint_every = checkpoint_every
        self.provenance = {
            "why": (
                "columnar landmark kernels, the quantile policy's scalar fallback, "
                "the answer path and small-state checkpoints"
            ),
            "loads": [
                "datasets.usage", "streams.columns", "core.landmark_extrema",
                "core.landmark_avg", "histograms", "structures", "checkpoint",
            ],
            "bypasses": ["core.sliding_*", "core.exact", "eval", "parallel", "keyed"],
            "loop": "closed: one process, each call waits for the previous one",
            "cadence": {
                "tuples_per_pass": tuples,
                "chunk_tuples": chunk,
                "query_every_chunks": 1,
                "checkpoint_every_chunks": checkpoint_every,
            },
        }
        self.records: list = []
        self.estimators: list = []

    def setup(self, seed: int, spans) -> None:
        with spans.span("datasets.gen"):
            self.records = usage_stream(n=self.tuples, seed=seed)

    def _build(self) -> list[tuple[str, str, object]]:
        return [
            (family, method, build_estimator(query, method))
            for family, query in QUERIES
            for method in FOCUSED_METHODS
        ]

    def _ends(self) -> list[int]:
        n = len(self.records)
        return [min(lo + self.chunk, n) for lo in range(0, n, self.chunk)]

    def run_pass(self, rec) -> list[tuple[float, ...]]:
        spans = rec.spans
        with spans.span("core.build"):
            built = self._build()
        estimators = [estimator for _, _, estimator in built]
        ingest = [(f"core.{family}.{method}.ingest", est.update_columns) for family, method, est in built]
        answer = [(f"core.{family}.answer", est) for family, _, est in built]
        # Every pass writes the same offsets; start each from an empty
        # directory so rotation never drops a generation just written.
        shutil.rmtree(self.work_dir / "ckpt", ignore_errors=True)
        manager = CheckpointManager(self.work_dir / "ckpt", retain=2)
        records = self.records
        answers = []
        start = 0
        for index, end in enumerate(self._ends()):
            started = perf_counter()
            with spans.span("bench.chunk"):
                with spans.span("streams.to_columns"):
                    xs, ys = records_to_columns(records[start:end])
                for label, update_columns in ingest:
                    with spans.span(label):
                        update_columns(xs, ys, collect="none")
                asked = perf_counter()
                row: list[float] = []
                for label, estimator in answer:
                    with spans.span(label):
                        row.append(estimator.estimate())
                        row.extend(estimator.estimate_bounds())
                rec.query_s.append(perf_counter() - asked)
                if (index + 1) % self.checkpoint_every == 0:
                    with spans.span("checkpoint.save"):
                        path = manager.save(estimators, end)
                    rec.saves += 1
                    rec.save_bytes += path.stat().st_size
            rec.chunk_done(started)
            answers.append(tuple(row))
            start = end
        rec.tuples += len(records)
        self.estimators = estimators
        return answers

    def verify(self, rec) -> Verification:
        v = Verification()
        ends = self._ends()
        # The reference: every estimator replayed tuple by tuple via update().
        series_by_estimator = []
        for _, _, estimator in self._build():
            update = estimator.update
            series = []
            start = 0
            for end in ends:
                for record in self.records[start:end]:
                    update(record)
                series.append((estimator.estimate(), *estimator.estimate_bounds()))
                start = end
            series_by_estimator.append(series)
        v.reference = [
            tuple(value for series in series_by_estimator for value in series[i])
            for i in range(len(ends))
        ]
        restored = CheckpointManager(self.work_dir / "ckpt").restore()
        v.check(restored is not None, "no checkpoint generation to restore")
        if restored is not None:
            row = tuple(
                value
                for estimator in restored.target
                for value in (estimator.estimate(), *estimator.estimate_bounds())
            )
            v.check(
                row == v.reference[ends.index(restored.offset)],
                f"checkpoint at offset {restored.offset} restores other answers",
            )
        xs = np.fromiter((r.x for r in self.records), dtype=np.float64, count=len(self.records))
        exact = _exact_counts(xs, ends)
        families = [family for family, _ in QUERIES for _ in FOCUSED_METHODS]
        rel, rmse = [], []
        for family, series in zip(families, series_by_estimator):
            estimates = np.array([answers[0] for answers in series])
            truth = np.asarray(exact[family])
            rel.append(abs(estimates[-1] - truth[-1]) / max(truth[-1], 1.0))
            rmse.append(float(np.sqrt(np.mean((estimates - truth) ** 2))))
        v.final_rel_err = float(np.mean(rel))
        v.rmse_n = float(np.mean(rmse))
        v.state_bytes = float(len(pickle.dumps(self.estimators, pickle.HIGHEST_PROTOCOL)))
        return v
