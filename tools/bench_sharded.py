#!/usr/bin/env python
"""Scaling benchmark for sharded multi-process ingestion.

Replays the landmark-AVG COUNT workload over the ZIPF stream through
:class:`repro.parallel.ShardedIngestor` at 1, 2, 4 and 8 workers and
compares wall-clock throughput (ingest + merge + query) against the
strongest single-process baseline: the columnar
``update_columns(*records_to_columns(records), collect="none")`` path,
the same one perfbench's ``parallel.speedup_vs_single`` divides by.
Accuracy is reported alongside speed: the merged estimate, the exact
answer and the coordinator's merge bound for every point on the curve.

The baseline and every worker count are timed with
``benchlib.time_variants``, alternating round by round, so a host that
drifts during the run slows all of them alike.  The report gives each
variant's median time with its quartiles, and ``speedup_vs_baseline`` is
a ratio of medians taken over the same rounds.

Speedup is a property of the machine as much as the code — the report
records ``cpu_count`` and the start method, and the acceptance criterion
(>= 3x at 4 workers) is only expected to hold when at least 4 physical
cores are available.  On smaller machines the curve documents the
honest (flat or negative) scaling instead.

Writes ``benchmarks/BENCH_sharded_ingestion.json``.

Usage::

    PYTHONPATH=src python tools/bench_sharded.py [--size N] [--rounds N]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import benchlib  # noqa: E402
from repro.core.engine import build_estimator  # noqa: E402
from repro.core.exact import exact_series  # noqa: E402
from repro.core.query import CorrelatedQuery  # noqa: E402
from repro.datasets.registry import load_dataset  # noqa: E402
from repro.parallel import ShardedIngestor  # noqa: E402
from repro.streams.columns import records_to_columns  # noqa: E402

REPO = Path(__file__).resolve().parents[1]
OUTPUT = REPO / "benchmarks" / "BENCH_sharded_ingestion.json"

WORKER_COUNTS = (1, 2, 4, 8)
METHOD = "piecemeal-uniform"
NUM_BUCKETS = 10


def run(size: int, rounds: int, partition: str) -> dict:
    query = CorrelatedQuery(dependent="count", independent="avg")
    records = load_dataset("ZIPF", size=size)
    exact = exact_series(records, query)[-1]
    #: Each variant's answer, and each worker count's merge bound, from
    #: its latest round.
    answers: dict[object, float] = {}
    bounds: dict[int, float] = {}

    def baseline() -> None:
        estimator = build_estimator(query, METHOD, num_buckets=NUM_BUCKETS)
        estimator.update_columns(*records_to_columns(records), collect="none")
        answers["baseline"] = estimator.estimate()

    def sharded(workers: int):
        def once() -> None:
            with ShardedIngestor(
                query,
                METHOD,
                num_buckets=NUM_BUCKETS,
                shards=workers,
                partition=partition,
                chunk_size=2048,
            ) as ingestor:
                ingestor.ingest(records)
                answers[workers] = ingestor.query()
                bounds[workers] = ingestor.merge_error_bound()

        return once

    variants = {"baseline": benchlib.call_block(baseline)}
    for workers in WORKER_COUNTS:
        variants[workers] = benchlib.call_block(sharded(workers))
    # One round per block: the baseline and every worker count alternate
    # round by round, so host drift lands on all of them alike.
    samples = benchlib.time_variants(variants, rounds, block=1)

    def point(name: object) -> dict[str, object]:
        spread = benchlib.quartiles(samples[name])
        answer = answers[name]
        return {
            "seconds": spread["median"],
            "seconds_q1": spread["q1"],
            "seconds_q3": spread["q3"],
            "tuples_per_second": len(records) / spread["median"],
            "estimate": answer,
            "relative_error": abs(answer - exact) / max(abs(exact), 1e-12),
        }

    base = point("baseline")
    curve = []
    for workers in WORKER_COUNTS:
        entry = {"workers": workers, **point(workers)}
        entry["speedup_vs_baseline"] = base["seconds"] / entry["seconds"]
        entry["merge_bound"] = bounds[workers]
        curve.append(entry)

    at4 = next(p for p in curve if p["workers"] == 4)
    machine = benchlib.machine_info()
    cpu_count = machine["cpu_count"]
    return {
        "benchmark": "tools/bench_sharded.py",
        "description": (
            "ShardedIngestor scaling curve on the landmark-AVG COUNT query "
            f"over {size} ZIPF tuples ({METHOD}, m={NUM_BUCKETS}, "
            f"{partition} partitioning): 1/2/4/8 worker processes vs the "
            "single-process columnar baseline (update_columns(*records_to_columns("
            "records), collect='none')).  Every variant runs "
            f"{rounds} timed rounds, alternating round by round; times are "
            "medians with quartiles, and speedup_vs_baseline is the ratio of "
            "the medians."
        ),
        "command": (
            f"PYTHONPATH=src python tools/bench_sharded.py --size {size} "
            f"--rounds {rounds} --partition {partition}"
        ),
        "acceptance_criterion": (
            ">= 3x baseline throughput at 4 workers on a machine with >= 4 "
            "physical cores; on smaller machines the honest measured curve "
            "is recorded instead"
        ),
        "machine": machine,
        "workload": {
            "query": "COUNT{y: x > AVG(x)} [landmark]",
            "dataset": "ZIPF",
            "tuples": len(records),
            "method": METHOD,
            "num_buckets": NUM_BUCKETS,
            "partition": partition,
            "exact_answer": exact,
        },
        "baseline": base,
        "curve": curve,
        "speedup_at_4": at4["speedup_vs_baseline"],
        "meets_criterion": (
            at4["speedup_vs_baseline"] >= 3.0 if cpu_count >= 4 else None
        ),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--size", type=int, default=50_000)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--partition", default="round-robin")
    parser.add_argument("--output", type=Path, default=OUTPUT)
    args = parser.parse_args(argv)

    report = run(args.size, args.rounds, args.partition)
    args.output.write_text(json.dumps(report, indent=2) + "\n")

    print(f"baseline: {report['baseline']['tuples_per_second']:,.0f} tuples/s")
    for point in report["curve"]:
        print(
            f"{point['workers']} workers: {point['tuples_per_second']:,.0f} tuples/s "
            f"({point['speedup_vs_baseline']:.2f}x), rel err "
            f"{point['relative_error']:.4f}"
        )
    print(f"wrote {args.output}")
    if report["meets_criterion"] is False:
        print("FAIL: < 3x at 4 workers despite >= 4 cores", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
