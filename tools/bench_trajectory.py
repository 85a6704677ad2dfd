#!/usr/bin/env python
"""Fold every ``benchmarks/BENCH_*.json`` into one trajectory file.

Each committed ``BENCH_*`` file is a point-in-time performance claim
(batched-ingestion speedup, observability overhead, ...).  This tool
collects them into ``benchmarks/TRAJECTORY.json`` — one entry per
benchmark with its headline numbers — so a reviewer (or a CI artifact
diff) can read the repo's performance story in one place instead of
opening each report.

Usage::

    PYTHONPATH=src python tools/bench_trajectory.py [--output PATH]
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
BENCH_DIR = REPO / "benchmarks"
OUTPUT = BENCH_DIR / "TRAJECTORY.json"


def _headline(report: dict) -> dict[str, object]:
    """Pull the one-line takeaway out of a benchmark report.

    Known shapes get a tailored summary; anything else falls back to the
    report's top-level scalars so new benchmarks surface without edits here.
    """
    if "family" in report:
        headline = {
            "family": report["family"],
            "speedup": report.get("speedup"),
            "speedup_batch_all": report.get("speedup_batch_all"),
            "tuples_per_second": report.get("tuples_per_second"),
            "speedup_chunked_32": report.get("speedup_chunked_32"),
            "chunked_32_over_columnar": report.get("chunked_32_over_columnar"),
            "acceptance_ok": report.get("acceptance", {}).get("ok"),
            "cpu_count": report.get("machine", {}).get("cpu_count"),
        }
        if "other_methods" in report:
            headline["speedup_other_methods"] = {
                method: row["speedup"] for method, row in report["other_methods"].items()
            }
        return headline
    if "speedup" in report:
        return {"speedup": report["speedup"]}
    if "distinct_keys" in report:
        return {
            "distinct_keys": report["distinct_keys"],
            "tuples_per_second": report.get("tuples_per_second"),
            "promoted": report.get("bank", {}).get("promoted"),
            "bound_violations": report.get("validation", {}).get(
                "bound_violations"
            ),
            "sound": report.get("sound"),
            "cpu_count": report.get("machine", {}).get("cpu_count"),
        }
    if "curve" in report:
        return {
            "speedup_at_4": report.get("speedup_at_4"),
            "meets_criterion": report.get("meets_criterion"),
            "cpu_count": report.get("machine", {}).get("cpu_count"),
            "curve": {
                str(point["workers"]): round(point["speedup_vs_baseline"], 3)
                for point in report["curve"]
            },
        }
    if "workloads" in report:
        return {
            "within_budget": report.get("within_budget"),
            "overhead": {
                name: workload.get("overhead")
                for name, workload in report["workloads"].items()
            },
        }
    return {
        key: value
        for key, value in report.items()
        if isinstance(value, (int, float, bool))
    }


def collect(bench_dir: Path = BENCH_DIR) -> dict[str, object]:
    entries = []
    for path in sorted(bench_dir.glob("BENCH_*.json")):
        report = json.loads(path.read_text())
        entries.append(
            {
                "file": path.name,
                "benchmark": report.get("benchmark", path.stem),
                "description": report.get("description", ""),
                "acceptance_criterion": report.get("acceptance_criterion"),
                "headline": _headline(report),
            }
        )
    return {
        "description": (
            "Aggregated headline numbers from every committed BENCH_*.json; "
            "regenerate with tools/bench_trajectory.py after updating any of "
            "them."
        ),
        "benchmarks": entries,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=OUTPUT)
    args = parser.parse_args(argv)

    trajectory = collect()
    args.output.write_text(json.dumps(trajectory, indent=2) + "\n")
    names = ", ".join(e["file"] for e in trajectory["benchmarks"])
    print(f"wrote {args.output} ({len(trajectory['benchmarks'])} benchmarks: {names})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
