"""``figure-replay``: the paper's figures F4, F8, F12 and F13, replayed as ``repro run`` does.

For every panel of each figure the benchmark computes ``exact_series``
once; then, for each of the four focused methods, it builds the
estimator with ``build_estimator`` and feeds the panel stream through
``update_many(collect="all")`` in fixed-size chunks (every chunk returns
a fresh answer per tuple).  After every chunk it reads the replay's
running error with ``prefix_rmse_series`` or ``sliding_rmse_series``
over the answers so far (the query); the last read is the figure's
RMSE_n.  Panel
streams come from the data-set generators at the benchmark's seed; the
verification pass replays the canonical streams and compares against
``run_experiment``.
"""

from __future__ import annotations

import pickle
from time import perf_counter

import numpy as np

from harness import Recorder, Verification, Workload
from repro.core.engine import FOCUSED_METHODS, build_estimator
from repro.core.exact import exact_series
from repro.datasets.registry import DATASETS
from repro.eval.experiments import EXPERIMENTS, run_experiment
from repro.eval.metrics import prefix_rmse_series, sliding_rmse_series

#: Figure -> the estimator family its queries run on.
FIGURES = {
    "F4": "landmark_extrema",
    "F8": "landmark_avg",
    "F12": "sliding_extrema",
    "F13": "sliding_avg",
}


class FigureReplay(Workload):
    name = "figure-replay"

    def __init__(self, tuples: int = 1000, chunk: int = 25) -> None:
        self.tuples = tuples
        self.chunk = chunk
        self.provenance = {
            "why": (
                "sliding-window kernels, per-record answer extraction and the exact "
                "oracle, driven the way `repro run` drives them"
            ),
            "loads": [
                "datasets", "core.landmark_extrema", "core.landmark_avg",
                "core.sliding_extrema", "core.sliding_avg", "core.exact", "eval.metrics",
                "histograms", "structures",
            ],
            "bypasses": [
                "vectorised collect='none' landmark kernels", "checkpoint", "parallel", "keyed",
            ],
            "loop": "closed: one process, each call waits for the previous one",
            "cadence": {
                "figures": list(FIGURES),
                "tuples_per_panel": tuples,
                "chunk_tuples": chunk,
                "query_every_chunks": 1,
                "checkpoint": None,
            },
        }
        self.streams: dict[str, list] = {}
        self.estimators: list = []

    def setup(self, seed: int, spans) -> None:
        with spans.span("datasets.gen"):
            generated: dict[str, list] = {}
            streams = {}
            for figure in FIGURES:
                panels = EXPERIMENTS[figure].panels
                for panel in panels:
                    if panel.dataset not in generated:
                        generated[panel.dataset] = DATASETS[panel.dataset](
                            n=self.tuples, seed=seed
                        )
                streams[figure] = [generated[panel.dataset] for panel in panels]
        self.streams = streams

    def run_pass(self, rec) -> dict:
        return self._replay(rec, self.streams)

    def _replay(self, rec, streams: dict[str, list]) -> dict:
        spans = rec.spans
        chunk = self.chunk
        results = {}
        estimators = []
        for figure, family in FIGURES.items():
            spec = EXPERIMENTS[figure]
            for index, (panel, records) in enumerate(zip(spec.panels, streams[figure])):
                query = panel.query
                with spans.span("core.exact"):
                    exact = np.asarray(exact_series(records, query), dtype=np.float64)
                for method in FOCUSED_METHODS:
                    label = f"core.{family}.{method}.ingest"
                    with spans.span("core.build"):
                        estimator = build_estimator(query, method, num_buckets=spec.num_buckets)
                    update_many = estimator.update_many
                    out = np.empty(len(records), dtype=np.float64)
                    for lo in range(0, len(records), chunk):
                        started = perf_counter()
                        with spans.span(label):
                            answers = update_many(records[lo : lo + chunk])
                        rec.chunk_done(started)
                        hi = lo + len(answers)
                        asked = perf_counter()
                        with spans.span("eval.rmse"):
                            out[lo:hi] = answers
                            if query.is_sliding:
                                series = sliding_rmse_series(out[:hi], exact[:hi], query.window)
                            else:
                                series = prefix_rmse_series(out[:hi], exact[:hi])
                            running = float(series[-1])
                        rec.query_s.append(perf_counter() - asked)
                    results[(figure, index, method)] = (running, float(out[-1]), float(exact[-1]))
                    estimators.append(estimator)
                rec.tuples += len(records) * len(FOCUSED_METHODS)
        self.estimators = estimators
        return results

    def verify(self, rec) -> Verification:
        v = Verification()
        v.state_bytes = float(
            sum(len(pickle.dumps(e, pickle.HIGHEST_PROTOCOL)) for e in self.estimators)
        )
        seeded = list(rec.answers[0].values())
        v.rmse_n = float(np.mean([final for final, _, _ in seeded]))
        v.final_rel_err = float(
            np.mean([abs(out - exact) / max(abs(exact), 1.0) for _, out, exact in seeded])
        )
        canonical = {
            figure: [panel.load(size=self.tuples) for panel in EXPERIMENTS[figure].panels]
            for figure in FIGURES
        }
        mine = self._replay(Recorder(), canonical)
        for figure in FIGURES:
            panels = run_experiment(figure, size=self.tuples, methods=FOCUSED_METHODS)
            for index, panel in enumerate(panels):
                for method, result in panel.results.items():
                    got = mine[(figure, index, method)][0]
                    v.check(
                        got == result.final_rmse,
                        f"{figure} panel {index} {method}: RMSE_n {got!r} "
                        f"!= run_experiment {result.final_rmse!r}",
                    )
        return v
