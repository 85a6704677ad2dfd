"""Checks of the benchmark itself, at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_library(ROOT)

import harness  # noqa: E402
from figure_replay import FigureReplay  # noqa: E402
from keyed_zipf import KeyedZipf  # noqa: E402
from landmark_continual import LandmarkContinual  # noqa: E402
from sharded_ingest import ShardedIngest  # noqa: E402
from spans import NullSpans, SpanRecorder  # noqa: E402

TINY = {
    "landmark-continual": lambda: LandmarkContinual(tuples=2048, chunk=256, checkpoint_every=2),
    "figure-replay": lambda: FigureReplay(tuples=600, chunk=200),
    "sharded-ingest": lambda: ShardedIngest(tuples=8192, chunk=1024, slot=512, query_every=2),
    "keyed-zipf": lambda: KeyedZipf(
        tuples=4096,
        distinct=500,
        chunk=256,
        query_every=2,
        checkpoint_every=4,
        sketch_capacity=64,
        promote_threshold=8,
        memory_budget=16_384,
    ),
}
SEED = 5


def _run(name: str, trace: bool, out_dir: Path) -> dict:
    declared = run.declared_metrics(ROOT)[int(trace)]
    return harness.run_workload(
        TINY[name](), SEED, 0.0, trace, out_dir, declared, min_passes=2
    )


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_named_metric_is_reported_with_its_unit(name, trace, tmp_path):
    result = _run(name, trace, tmp_path)
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    reported = {metric: value["unit"] for metric, value in result["metrics"].items()}
    assert reported == {metric["name"]: metric["unit"] for metric in declared}
    assert all(math.isfinite(value["value"]) for value in result["metrics"].values())


def test_a_planted_wrong_answer_counts_as_a_failed_operation(tmp_path, monkeypatch):
    from repro.core.landmark_avg import LandmarkAvgEstimator

    honest = LandmarkAvgEstimator.update_columns

    def drops_last_tuple(self, xs, ys=None, collect="all"):
        return honest(self, xs[:-1], ys[:-1], collect=collect)

    monkeypatch.setattr(LandmarkAvgEstimator, "update_columns", drops_last_tuple)
    result = _run("landmark-continual", False, tmp_path)
    assert not result["correct"]
    assert result["failed"] >= 1


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_and_untraced_passes_read_bit_identical_answers(name, tmp_path):
    def answers(*recorders):
        workload = TINY[name]()
        workload.work_dir = tmp_path / name
        try:
            workload.setup(SEED, NullSpans())
            return [
                harness.timed_phase(workload, harness.Recorder(spans=spans), passes=1).answers
                for spans in recorders
            ]
        finally:
            workload.close()

    assert answers(NullSpans(), SpanRecorder("t")) == answers(NullSpans(), NullSpans())


def test_self_time_excludes_child_spans():
    spans = SpanRecorder("t")
    spans.rows = [
        ["bench.chunk", 0, 1000, -1, "t"],
        ["core.x", 100, 600, 0, "t"],
        ["checkpoint.save", 200, 300, 1, "t"],
    ]
    assert spans.self_times() == pytest.approx(
        {"bench.chunk": 500e-9, "core.x": 400e-9, "checkpoint.save": 100e-9}
    )
    assert spans.layer_seconds() == pytest.approx(500e-9)


def test_latencies_are_each_positions_best_over_passes():
    best = harness.best_of_passes([3.0, 1.0, 2.0, 2.0, 5.0, 1.0], [3, 6])
    assert best.tolist() == [2.0, 1.0, 1.0]
    with pytest.raises(RuntimeError, match="different numbers"):
        harness.best_of_passes([1.0, 2.0, 3.0], [2, 3])


def test_wall_time_sums_each_stretchs_best_over_passes():
    rec = harness.Recorder(
        pass_at=[(0.0, 10.0), (20.0, 29.0)], chunk_done_at=[4.0, 7.0, 23.0, 27.0], chunk_ends=[2, 4]
    )
    # stretches: pass 1 [4, 3, 3], pass 2 [3, 4, 2] -> best [3, 3, 2]
    assert harness.best_pass_s(rec) == pytest.approx(8.0)


def test_exits_non_zero_without_the_library_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "keyed-zipf", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
