#!/usr/bin/env python
"""Columnar-kernel throughput: one report per estimator family.

For each of the five estimator families, the same stream is replayed
three ways and timed with the shared interleaved-block harness
(:mod:`benchlib`), under ``piecemeal-uniform`` and — for the three
families with a vectorised kernel, which takes the quantile policy too —
again under ``piecemeal-quantile``:

* ``scalar``    — the per-tuple ``update`` loop, one estimate per tuple;
* ``batch_all`` — ``update_many(..., collect="all")``: the batched entry
                  with per-record outputs (what the tracker replays);
* ``columnar``  — ``update_columns(..., collect="none")``: flat float64
                  columns through the vectorised family kernel, no
                  per-record estimates (the sharded-worker hot path);
* ``chunked_32`` — the count-window families only: the same
                  ``update_columns`` call in 32-tuple chunks, which
                  records what each chunk costs the window (a chunk
                  must cost O(chunk), not O(window)).

All three produce bit-identical estimator state (pinned by
``tests/core/test_columnar_parity.py``); this benchmark records what
that equivalence costs or saves.  The headline ``speedup`` is
scalar-median over columnar-median.  Two families are honest
exceptions, recorded as such: ``sliding_avg``'s reallocation test fires
nearly every record, so its columnar path is the hoisted scalar loop
(expected ~1x), and ``time_sliding``'s variable-length expiry drain
rules out vectorisation, so ``update_columns(..., times=)`` is columnar
in transport only.

The ``landmark_extrema`` report also gates the removal of the old
hand-inlined batch loop: the shared kernel path must meet or beat the
4.77x that loop measured before it was deleted.

Each family states its own acceptance checks (``ACCEPTANCE``), and every
report records each check's measured value and whether it held.

Writes ``benchmarks/BENCH_columnar_<family>.json`` per family: the
headline fields describe ``piecemeal-uniform``, and ``other_methods``
holds one row (timings and speedups) per extra method.

Usage::

    PYTHONPATH=src python tools/bench_columnar.py [--rounds N] [--size N]
        [--families a,b,...]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import benchlib  # noqa: E402
from repro.core.engine import build_estimator  # noqa: E402
from repro.core.query import CorrelatedQuery  # noqa: E402
from repro.core.time_sliding import TimeSlidingEstimator  # noqa: E402
from repro.datasets.registry import load_dataset  # noqa: E402
from repro.streams.columns import records_to_columns  # noqa: E402

REPO = Path(__file__).resolve().parents[1]
BENCH_DIR = REPO / "benchmarks"

METHOD = "piecemeal-uniform"
NUM_BUCKETS = 10
WINDOW = 2_000

#: The speedup of the deleted hand-inlined landmark-extrema batch loop over
#: the scalar ``update`` loop: mean time of 2,000-tuple USAGE landmark-MIN
#: rounds, piecemeal-uniform, m=10, recorded when the loop was added.  That
#: report has since been retired (``speedup_batch_all`` here carries its
#: claim); the shared columnar kernel must not regress past the number.
INLINED_BATCH_SPEEDUP = 4.77

#: Records per ``update_columns`` call in the ``chunked_32`` variant.
SMALL_CHUNK = 32

#: Per-family acceptance: ``(report field, "min" or "max", bound)``.
#: ``speedup`` and ``speedup_chunked_32`` are scalar-median over the
#: variant's median; ``chunked_32_over_columnar`` is the 32-tuple-chunk
#: median over the one-call median.  The vectorised kernels must beat
#: the scalar loop by a margin; the families without one must not fall
#: behind it; and a window's chunks must cost O(chunk), so small chunks
#: stay within a constant factor of one call and ahead of the scalar loop.
ACCEPTANCE = {
    "landmark_extrema": (("speedup", "min", 10.0),),
    "landmark_avg": (("speedup", "min", 3.0),),
    "sliding_extrema": (
        ("speedup", "min", 3.0),
        ("speedup_chunked_32", "min", 1.0),
        ("chunked_32_over_columnar", "max", 4.0),
    ),
    "sliding_avg": (("speedup", "min", 0.9), ("speedup_chunked_32", "min", 0.9)),
    "time_sliding": (("speedup", "min", 0.9),),
}

FAMILIES = {
    "landmark_extrema": {
        "query": CorrelatedQuery("count", "min", epsilon=99.0),
        "vectorized": True,
        "note": "fully vectorised steady-state kernel",
        "other_methods": ("piecemeal-quantile",),
    },
    "landmark_avg": {
        "query": CorrelatedQuery("count", "avg"),
        "vectorized": True,
        "note": "vectorised CLT target over a python Welford trace",
        "other_methods": ("piecemeal-quantile",),
    },
    "sliding_extrema": {
        "query": CorrelatedQuery("count", "min", epsilon=99.0, window=WINDOW),
        "vectorized": True,
        "note": "vectorised segments between data-driven boundary steps",
        "other_methods": ("piecemeal-quantile",),
    },
    "sliding_avg": {
        "query": CorrelatedQuery("count", "avg", window=WINDOW),
        "vectorized": False,
        "note": (
            "reallocation test fires nearly every record; columnar path is "
            "the hoisted scalar loop (expected ~1x, recorded honestly)"
        ),
    },
    "time_sliding": {
        "query": CorrelatedQuery("count", "min", epsilon=99.0),
        "vectorized": False,
        "note": (
            "variable-length expiry drain; update_columns(times=) is columnar "
            "transport over the scalar step (expected ~1x, recorded honestly)"
        ),
    },
}


def _timed_workloads(query, records, method=METHOD):
    """The variants for a landmark or count-window family."""
    xs, ys = records_to_columns(records)

    def scalar():
        estimator = build_estimator(query, method, num_buckets=NUM_BUCKETS)
        update = estimator.update

        def run():
            for record in records:
                update(record)

        return run

    def batch_all():
        estimator = build_estimator(query, method, num_buckets=NUM_BUCKETS)
        return lambda: estimator.update_many(records, collect="all")

    def columnar():
        estimator = build_estimator(query, method, num_buckets=NUM_BUCKETS)
        return lambda: estimator.update_columns(xs, ys, collect="none")

    def chunked_32():
        estimator = build_estimator(query, method, num_buckets=NUM_BUCKETS)
        starts = range(0, len(xs), SMALL_CHUNK)

        def run():
            for lo in starts:
                estimator.update_columns(
                    xs[lo : lo + SMALL_CHUNK], ys[lo : lo + SMALL_CHUNK], collect="none"
                )

        return run

    workloads = {"scalar": scalar, "batch_all": batch_all, "columnar": columnar}
    if query.is_sliding:
        workloads["chunked_32"] = chunked_32
    return workloads


def _timed_workloads_timed(query, records):
    """The three variants for the time-window family (unit spacing)."""
    xs, ys = records_to_columns(records)
    times = [float(i) for i in range(1, len(records) + 1)]
    timed = list(zip(times, records))
    duration = float(WINDOW)

    def scalar():
        estimator = TimeSlidingEstimator(query, duration, num_buckets=NUM_BUCKETS)
        update = estimator.update

        def run():
            for time_value, record in timed:
                update(time_value, record)

        return run

    def batch_all():
        estimator = TimeSlidingEstimator(query, duration, num_buckets=NUM_BUCKETS)
        return lambda: estimator.update_columns(xs, ys, collect="all", times=times)

    def columnar():
        estimator = TimeSlidingEstimator(query, duration, num_buckets=NUM_BUCKETS)
        return lambda: estimator.update_columns(xs, ys, collect="none", times=times)

    return {"scalar": scalar, "batch_all": batch_all, "columnar": columnar}


def _time_workloads(workloads, tuples: int, rounds: int) -> dict:
    """Interleaved timings of the variants, plus their speedups."""
    blocks = {
        name: (lambda k, w=workload: [benchlib.one_round(w) for _ in range(k)])
        for name, workload in workloads.items()
    }
    samples = benchlib.time_variants(blocks, rounds)
    results = {
        name: benchlib.summarize(times, tuples) for name, times in samples.items()
    }
    scalar = results["scalar"]["median"]
    row = {
        "results_seconds": results,
        "speedup": round(scalar / results["columnar"]["median"], 2),
        "speedup_batch_all": round(scalar / results["batch_all"]["median"], 2),
        "tuples_per_second": results["columnar"]["tuples_per_second"],
    }
    if "chunked_32" in results:
        chunked = results["chunked_32"]["median"]
        row["speedup_chunked_32"] = round(scalar / chunked, 2)
        row["chunked_32_over_columnar"] = round(chunked / results["columnar"]["median"], 2)
    return row


def _acceptance(family: str, row: dict) -> dict:
    """Each of the family's checks against the measured ``row``."""
    checks = []
    for field, sense, bound in ACCEPTANCE[family]:
        value = row[field]
        checks.append(
            {
                "check": f"{field} {'>=' if sense == 'min' else '<='} {bound}",
                "value": value,
                "ok": value >= bound if sense == "min" else value <= bound,
            }
        )
    return {"checks": checks, "ok": all(check["ok"] for check in checks)}


def bench_family(family: str, size: int, rounds: int) -> dict:
    spec = FAMILIES[family]
    query = spec["query"]
    records = load_dataset("USAGE", size=size)
    if family == "time_sliding":
        workloads = _timed_workloads_timed(query, records)
    else:
        workloads = _timed_workloads(query, records)
    row = _time_workloads(workloads, len(records), rounds)
    speedup = row["speedup"]
    acceptance = _acceptance(family, row)
    report = {
        "benchmark": "tools/bench_columnar.py",
        "family": family,
        "description": (
            f"Columnar ingestion throughput for the {family} family on "
            f"{len(records)} USAGE tuples ({query.describe()}, {METHOD}, "
            f"m={NUM_BUCKETS}): scalar update loop vs update_many(collect="
            f"'all') vs update_columns(collect='none')"
            + (
                f" in one call and in {SMALL_CHUNK}-tuple chunks"
                if "chunked_32" in row["results_seconds"]
                else ""
            )
            + f".  {spec['note']}."
            + (
                f"  other_methods repeats it under {', '.join(spec['other_methods'])}."
                if "other_methods" in spec
                else ""
            )
        ),
        "command": (
            f"PYTHONPATH=src python tools/bench_columnar.py --families {family} "
            f"--size {size} --rounds {rounds}"
        ),
        "acceptance_criterion": "; ".join(check["check"] for check in acceptance["checks"])
        + " (piecemeal-uniform; each check's value and outcome are in acceptance)",
        "machine": benchlib.machine_info(),
        "workload": {
            "query": query.describe(),
            "dataset": "USAGE",
            "tuples": len(records),
            "method": METHOD,
            "num_buckets": NUM_BUCKETS,
            "vectorized_kernel": spec["vectorized"],
        },
        **row,
        "acceptance": acceptance,
    }
    others = spec.get("other_methods", ())
    if others:
        report["other_methods"] = {
            method: _time_workloads(
                _timed_workloads(query, records, method), len(records), rounds
            )
            for method in others
        }
    if family == "landmark_extrema":
        report["replaces_inlined_batch_loop"] = {
            "old_speedup": INLINED_BATCH_SPEEDUP,
            "new_speedup": speedup,
            "ok": speedup >= INLINED_BATCH_SPEEDUP,
        }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--size", type=int, default=20_000)
    parser.add_argument(
        "--families",
        default=",".join(FAMILIES),
        help="comma-separated subset of: " + ", ".join(FAMILIES),
    )
    parser.add_argument("--output-dir", type=Path, default=BENCH_DIR)
    args = parser.parse_args(argv)

    chosen = [f.strip() for f in args.families.split(",") if f.strip()]
    unknown = [f for f in chosen if f not in FAMILIES]
    if unknown:
        parser.error(f"unknown families: {unknown}; choose from {list(FAMILIES)}")

    failed_gate = False
    for family in chosen:
        report = bench_family(family, args.size, args.rounds)
        path = args.output_dir / f"BENCH_columnar_{family}.json"
        path.write_text(json.dumps(report, indent=2) + "\n")
        gate = report.get("replaces_inlined_batch_loop")
        if gate is not None and not gate["ok"]:
            failed_gate = True
        print(
            f"{family:>17}: columnar {report['speedup']:.1f}x scalar "
            f"({report['tuples_per_second']:,.0f} tuples/s), "
            f"batch_all {report['speedup_batch_all']:.1f}x"
            + (
                f", chunked_32 {report['speedup_chunked_32']:.1f}x "
                f"({report['chunked_32_over_columnar']:.1f}x one call)"
                if "speedup_chunked_32" in report
                else ""
            )
            + f" [acceptance: {'ok' if report['acceptance']['ok'] else 'FAILED'}]"
        )
        for method, row in report.get("other_methods", {}).items():
            print(
                f"{method:>17}: columnar {row['speedup']:.1f}x scalar "
                f"({row['tuples_per_second']:,.0f} tuples/s), "
                f"batch_all {row['speedup_batch_all']:.1f}x"
            )
        print(f"wrote {path}")
    if failed_gate:
        print(
            "FAIL: columnar landmark_extrema slower than the deleted "
            f"hand-inlined batch loop ({INLINED_BATCH_SPEEDUP}x)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
