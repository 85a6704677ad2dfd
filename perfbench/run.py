#!/usr/bin/env python3
"""The repository benchmark: four continual-stream workloads over ``repro``.

Run from the repository root::

    python3 perfbench/run.py --workload landmark-continual --seed 1 --seconds 25 --trace 0

Workloads: ``landmark-continual``, ``figure-replay``, ``sharded-ingest``
and ``keyed-zipf`` (perfbench/README.md says why each exists and which
layers it loads).  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separately traced run; names and
units come from ``BENCHMARK.json``.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the first line is the run's provenance.  Checkpoints and
span files are written under ``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"


def import_library(root: Path) -> None:
    """Import ``repro`` from ``<root>/src``, never from an installed copy."""
    package = root / "src" / "repro"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no repro sources at {package}")
    sys.path.insert(0, str(root / "src"))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: repro was imported from {repro.__file__}, not {package}")


def declared_metrics(root: Path) -> tuple[dict[str, str], dict[str, str]]:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    end_to_end, per_layer = (
        {metric["name"]: metric["unit"] for metric in spec[key]}
        for key in ("end_to_end", "per_layer")
    )
    return end_to_end, per_layer


def workloads() -> dict[str, type]:
    from figure_replay import FigureReplay
    from keyed_zipf import KeyedZipf
    from landmark_continual import LandmarkContinual
    from sharded_ingest import ShardedIngest

    return {
        cls.name: cls for cls in (LandmarkContinual, FigureReplay, ShardedIngest, KeyedZipf)
    }


def stop_resource_tracker() -> None:
    """Reap multiprocessing's shared-memory resource tracker.

    Python starts it with the first shared-memory segment and leaves it
    running until interpreter exit; the benchmark waits for every process
    it caused to start.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_library(ROOT)
    from harness import run_workload

    registry = workloads()
    if args.workload not in registry:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(registry)}")
    declared = declared_metrics(ROOT)[args.trace]
    try:
        result = run_workload(
            registry[args.workload](), args.seed, args.seconds, bool(args.trace), OUT_DIR, declared
        )
    finally:
        stop_resource_tracker()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
