"""Shared measurement harness for the ``tools/bench_*.py`` scripts.

Every benchmark in this repo follows the same discipline:

* a round is one full pass over the workload, timed with the garbage
  collector frozen (one ``gc.collect()`` before the clock starts, so no
  round pays for another round's garbage);
* setup (building estimators, loading data) runs *outside* the timed
  region;
* variants are timed in **interleaved blocks** — a few rounds of A, a
  few of B, repeat — so clock drift and thermal throttling land evenly
  on every variant instead of biasing whichever ran last;
* the first block per variant is warmup (CPython re-specialises after
  any monkeypatching, caches fill) and is discarded;
* summaries report min/median/mean/stddev over the kept rounds, and
  machine facts (``cpu_count`` above all) ride along so a single-core
  CI runner's numbers are never mistaken for a workstation's.

The helpers here encode that discipline once; the ``bench_*`` scripts
supply only their workloads and acceptance criteria.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import statistics
import sys
import time
from collections.abc import Callable, Mapping

#: Timed rounds per contiguous block of one variant.
BLOCK = 5


def one_round(workload: Callable[[], Callable[[], None]]) -> float:
    """Time a single round: ``workload()`` builds, the returned thunk runs.

    Setup work inside ``workload`` is untimed; only the returned thunk
    is clocked, with garbage collection disabled for the duration.
    """
    run = workload()
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        run()
        return time.perf_counter() - start
    finally:
        gc.enable()


def time_variants(
    blocks: Mapping[str, Callable[[int], list[float]]],
    rounds: int,
    block: int = BLOCK,
) -> dict[str, list[float]]:
    """Collect >= ``rounds`` samples per variant in interleaved blocks.

    ``blocks[name](k)`` must run ``k`` timed rounds of that variant and
    return their durations; any per-variant patching/unpatching belongs
    inside it.  The first block of every variant (one round) is warmup
    and discarded.
    """
    samples: dict[str, list[float]] = {name: [] for name in blocks}
    for fn in blocks.values():  # first full block per variant is warmup
        fn(1)
    while min(len(s) for s in samples.values()) < rounds:
        for name, fn in blocks.items():
            samples[name].extend(fn(block))
    return samples


def summarize(times: list[float], tuples: int) -> dict[str, float]:
    """The standard per-variant stats block of a ``BENCH_*.json`` report."""
    return {
        "min": min(times),
        "median": statistics.median(times),
        "mean": statistics.fmean(times),
        "stddev": statistics.stdev(times) if len(times) > 1 else 0.0,
        "rounds": len(times),
        "tuples_per_second": tuples / statistics.median(times),
    }


def call_block(fn: Callable[[], object]) -> Callable[[int], list[float]]:
    """A :func:`time_variants` block that times ``k`` calls of ``fn``.

    Each call is clocked on its own with the collector disabled for the
    whole block and never run in it, which suits calls far cheaper than a
    full collection (a ranking query over a bank holding millions of
    live records) as well as multi-process rounds whose garbage lives in
    the workers.
    """

    def block(k: int) -> list[float]:
        times = []
        gc.disable()
        try:
            for _ in range(k):
                start = time.perf_counter()
                fn()
                times.append(time.perf_counter() - start)
        finally:
            gc.enable()
        return times

    return block


def quartiles(times: list[float]) -> dict[str, float]:
    """Median and interquartile bounds of ``times`` (>= 2 samples)."""
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def machine_info() -> dict[str, object]:
    """The machine facts every throughput claim must carry."""
    return {
        "cpu_count": os.cpu_count() or 1,
        "start_method": multiprocessing.get_start_method(),
        "platform": sys.platform,
    }
