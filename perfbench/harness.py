"""Timing loop, statistics and result assembly shared by every workload.

A run sets the workload up ``SETUPS`` times (``setup_s`` is their
median), then times complete passes over the workload's inputs until
``seconds`` have passed and at least ``MIN_PASSES`` passes were made,
and finally runs the workload's untimed verification.  Every workload is
closed-loop: one process makes each library call only after the
previous one returned.

Every pass hands in the same chunks and asks the same queries in the
same order, so a position in the pass names the same work in every
pass.  Latencies are taken per position as the best over the passes,
then summarised across positions: a neighbour that slows a shared host
for a while lengthens some passes but rarely the same position in all
of them, while a position that is slow by nature (a checkpoint, a
growing state) is slow in every pass and stays in the tail.  ``wall_s``
is likewise one pass rebuilt from its best stretches (:func:`best_pass_s`).

A traced run times half the budget untraced, then the same number of
passes again with benchmark-side spans (:mod:`spans`) around every
library call, and reports per-layer metrics per pass instead of the
end-to-end ones; end-to-end metrics only ever come from untraced runs.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import platform
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import BENCH_PREFIX, NullSpans, SpanRecorder

#: A run makes at least this many passes, so every position has several
#: samples to take the best of.
MIN_PASSES = 4
#: Set-ups per run; setup_s is their median.
SETUPS = 9
#: No pass starts later than this many times the budget plus a grace.
HARD_STOP_FACTOR = 4.0
HARD_STOP_GRACE_S = 30.0


@dataclass
class Recorder:
    """What one timed phase observed."""

    spans: NullSpans | SpanRecorder = field(default_factory=NullSpans)
    chunk_s: list[float] = field(default_factory=list)
    #: perf_counter() when each chunk's answer had been read.
    chunk_done_at: list[float] = field(default_factory=list)
    query_s: list[float] = field(default_factory=list)
    pass_s: list[float] = field(default_factory=list)
    #: perf_counter() when each complete pass started and ended.
    pass_at: list[tuple[float, float]] = field(default_factory=list)
    #: len(chunk_s) and len(query_s) after each complete pass.
    chunk_ends: list[int] = field(default_factory=list)
    query_ends: list[int] = field(default_factory=list)
    answers: list = field(default_factory=list)
    tuples: int = 0
    saves: int = 0
    save_bytes: int = 0
    #: Workload-side snapshots, e.g. counters when the phase started.
    marks: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    wall_s: float = 0.0

    def chunk_done(self, started: float) -> None:
        """Record a chunk handed in at ``started`` whose answer was just read."""
        now = perf_counter()
        self.chunk_s.append(now - started)
        self.chunk_done_at.append(now)


@dataclass
class Verification:
    """Outcome of a workload's untimed correctness pass."""

    checks: int = 0
    mismatches: list[str] = field(default_factory=list)
    #: Answers every timed pass must read; None means the first pass's.
    reference: object = None
    state_bytes: float = 0.0
    final_rel_err: float = 0.0
    rmse_n: float = 0.0

    def check(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.mismatches.append(what)


class Workload:
    """The interface every workload implements.

    ``setup(seed, spans)`` generates the inputs (inside a ``datasets.gen``
    span) and builds what lives across passes; ``run_pass(rec)`` runs one
    pass, appending its chunk and query latencies to ``rec``, and returns
    the answers it read; ``verify(rec)`` runs the untimed checks after the
    last timed phase.
    """

    name = ""
    provenance: dict = {}
    #: Whether each pass starts from fresh state, so every pass must read
    #: the same answers.
    fresh_passes = True
    #: Directory for the workload's files (set by run_workload).
    work_dir = Path(".perfbench_out")

    def setup(self, seed: int, spans) -> None:
        raise NotImplementedError

    def run_pass(self, rec: Recorder) -> object:
        raise NotImplementedError

    def verify(self, rec: Recorder) -> Verification:
        raise NotImplementedError

    def counters(self, rec: Recorder, passes: int) -> dict[str, float]:
        """Per-layer counts over a traced phase, per pass."""
        return {}

    def baseline(self, untraced: Recorder, seconds: float) -> dict[str, float]:
        """Extra per-layer measurements a traced run makes after its phases."""
        return {}

    def close(self) -> None:
        """Release processes and files; safe to call more than once."""
        return None


def timed_phase(
    workload: Workload,
    rec: Recorder,
    seconds: float = 0.0,
    passes: int | None = None,
    min_passes: int = MIN_PASSES,
) -> Recorder:
    """Run complete passes until the budget is spent and ``min_passes``
    were made (or exactly ``passes`` passes)."""
    gc.collect()
    gc.freeze()  # set-up garbage stays out of the timed collections
    started = perf_counter()
    hard_stop = started + HARD_STOP_FACTOR * seconds + HARD_STOP_GRACE_S
    try:
        while True:
            pass_started = perf_counter()
            try:
                answers = workload.run_pass(rec)
            except Exception:
                rec.errors.append(traceback.format_exc())
                break
            now = perf_counter()
            rec.pass_s.append(now - pass_started)
            rec.pass_at.append((pass_started, now))
            rec.chunk_ends.append(len(rec.chunk_s))
            rec.query_ends.append(len(rec.query_s))
            rec.answers.append(answers)
            if passes is not None:
                if len(rec.pass_s) >= passes:
                    break
            elif now - started >= seconds and len(rec.pass_s) >= min_passes:
                break
            if now >= hard_stop:
                break
    finally:
        rec.wall_s = perf_counter() - started
        gc.unfreeze()
    if not rec.pass_s:
        raise RuntimeError("no pass completed:\n" + "\n".join(rec.errors))
    return rec


def calibration_ms(rounds: int = 5) -> float:
    """Median time of a fixed pure-Python loop, so a noisy neighbour shows."""
    samples = []
    for _ in range(rounds):
        started = perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        samples.append(perf_counter() - started)
    return statistics.median(samples) * 1e3


def machine_facts() -> dict[str, object]:
    """The machine facts every run records beside its numbers."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "start_method": multiprocessing.get_start_method(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "calibration_ms": calibration_ms(),
    }


def best_of_passes(samples: list[float], ends: list[int]) -> np.ndarray:
    """Each position's fastest sample over the complete passes."""
    passes = [samples[lo:hi] for lo, hi in zip([0, *ends[:-1]], ends)]
    if len({len(times) for times in passes}) != 1:
        raise RuntimeError("passes timed different numbers of chunks or queries")
    return np.min(np.asarray(passes), axis=0)


def best_pass_s(rec: Recorder) -> float:
    """One pass rebuilt from its best stretches.

    The stretches between consecutive chunk answers (and from the pass's
    start and to its end) partition a pass; each is taken at its fastest
    over the passes, and the stretches are summed.
    """
    starts = [0, *rec.chunk_ends[:-1]]
    stretches = [
        np.diff([began, *rec.chunk_done_at[lo:hi], ended])
        for (began, ended), lo, hi in zip(rec.pass_at, starts, rec.chunk_ends)
    ]
    return float(np.min(np.asarray(stretches), axis=0).sum())


def _percentile_ms(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) * 1e3


def _write_spans(path: Path, run_id: str, setup: SpanRecorder, timed: SpanRecorder) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "run_id": run_id,
        "columns": ["name", "start_ns", "end_ns", "parent", "run_id"],
        "setup": setup.rows,
        "timed": timed.rows,
    }
    path.write_text(json.dumps(payload, separators=(",", ":")))


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Path,
    declared: dict[str, str],
    min_passes: int = MIN_PASSES,
) -> dict:
    """Set up, time, verify and report one workload; returns the result.

    ``declared`` maps the metric names BENCHMARK.json lists for this mode
    to their units; the result reports exactly those.
    """
    out_dir = Path(out_dir)
    run_id = f"{workload.name}-seed{seed}-{os.getpid()}-{time.time_ns()}"
    machine = machine_facts()
    provenance = {"run_id": run_id, "workload": workload.name, "seed": seed, "trace": trace}
    provenance.update(workload.provenance)
    provenance["statistics"] = (
        f"setup_s: median of {SETUPS} set-ups; latencies and the stretches between chunk "
        f"answers: best of >= {min_passes} passes per position; wall_s: the best stretches "
        "summed; latency percentiles across positions"
    )
    provenance["machine"] = machine
    print("provenance: " + json.dumps(provenance), flush=True)
    workload.work_dir = out_dir / workload.name
    setup_spans = SpanRecorder(run_id) if trace else NullSpans()
    setup_s: list[float] = []
    phases: list[Recorder] = []
    layer: dict[str, float] = {}
    try:
        for _ in range(SETUPS):
            workload.close()
            started = perf_counter()
            workload.setup(seed, setup_spans)
            setup_s.append(perf_counter() - started)
        if trace:
            untraced = timed_phase(workload, Recorder(), seconds / 2, min_passes=min_passes)
            traced = timed_phase(
                workload, Recorder(spans=SpanRecorder(run_id)), passes=len(untraced.pass_s)
            )
            phases = [untraced, traced]
            layer.update(workload.counters(traced, len(traced.pass_s)))
            layer.update(workload.baseline(untraced, seconds / 4))
        else:
            phases = [timed_phase(workload, Recorder(), seconds, min_passes=min_passes)]
        verification = workload.verify(phases[-1])
    finally:
        workload.close()

    failures = [error for phase in phases for error in phase.errors]
    failures += verification.mismatches
    checks = verification.checks
    if workload.fresh_passes:
        answers = [answer for phase in phases for answer in phase.answers]
        reference = answers[0] if verification.reference is None else verification.reference
        for index, answer in enumerate(answers):
            checks += 1
            if answer != reference:
                failures.append(f"pass {index} read other answers than the reference")
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    attempted = checks + sum(
        len(phase.chunk_s) + len(phase.query_s) + phase.saves + len(phase.errors)
        for phase in phases
    )

    if trace:
        untraced, traced = phases
        passes = len(traced.pass_s)
        metrics = {
            f"{name}_s": spent / passes
            for name, spent in traced.spans.self_times().items()
            if not name.startswith(BENCH_PREFIX)
        }
        metrics.update(
            {f"{name}_s": spent / SETUPS for name, spent in setup_spans.self_times().items()}
        )
        metrics["checkpoint.saves"] = traced.saves / passes
        metrics["checkpoint.bytes"] = traced.save_bytes / traced.saves if traced.saves else 0.0
        metrics.update(layer)
        metrics["trace.coverage"] = traced.spans.layer_seconds() / traced.wall_s
        metrics["trace.overhead_frac"] = min(traced.pass_s) / min(untraced.pass_s) - 1.0
        metrics["bench.calibration_ms"] = machine["calibration_ms"]
        # Accuracy depends on the seed's stream far more than run-to-run
        # noise allows an end-to-end bound, so it is reported per layer.
        metrics["final_rel_err"] = verification.final_rel_err
        metrics["rmse_n"] = verification.rmse_n
        _write_spans(
            out_dir / f"trace-{workload.name}-seed{seed}.json", run_id, setup_spans, traced.spans
        )
    else:
        rec = phases[0]
        chunks = best_of_passes(rec.chunk_s, rec.chunk_ends)
        queries = best_of_passes(rec.query_s, rec.query_ends)
        wall_s = best_pass_s(rec)
        metrics = {
            "setup_s": statistics.median(setup_s),
            "wall_s": wall_s,
            "ingest_tps": rec.tuples / len(rec.pass_s) / wall_s,
            "chunk_p50_ms": _percentile_ms(chunks, 50),
            "chunk_p99_ms": _percentile_ms(chunks, 99),
            "query_p50_ms": _percentile_ms(queries, 50),
            "query_p90_ms": _percentile_ms(queries, 90),
            "state_bytes": verification.state_bytes,
        }
        missing = sorted(set(declared) - set(metrics))
        if missing:
            raise ValueError(f"declared metrics this run does not measure: {missing}")
    undeclared = sorted(set(metrics) - set(declared))
    if undeclared:
        raise ValueError(f"measured metrics missing from BENCHMARK.json: {undeclared}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in declared.items()
        },
    }
