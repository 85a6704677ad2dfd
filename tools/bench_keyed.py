#!/usr/bin/env python
"""Gated keyed bank at scale: a zipf(1.1) stream over a million keys.

Drives a :class:`repro.keyed.GatedKeyedBank` with a heavy-tailed keyed
workload — the per-customer fraud-screening shape the paper motivates —
and records three things a reviewer should be able to check in one file:

* **throughput** under a configurable promoted-estimator byte budget
  (the admission sketch plus a bounded set of full estimators, however
  many distinct keys the stream carries);
* **soundness**: for a validation sample of distinct keys (plus every
  promoted key), the exact per-key record count must fall inside the
  bank's over/under-count bounds, and ``promoted_bytes`` must respect
  the budget — ``bound_violations`` and ``budget_ok`` are part of the
  report, not a side effect;
* **parity**: promoted keys with an exact replay history must answer
  float-for-float what a standalone estimator over the same records
  answers;
* **ranking**: on the final bank, ``top(n)``'s threshold scan must equal
  the full scan ``rank_estimates(bank.estimates().items(), n)``, and both
  are timed as medians over interleaved calls.

Writes ``benchmarks/BENCH_keyed_bank.json``.

Usage::

    PYTHONPATH=src python tools/bench_keyed.py            # full: 1e6 keys
    PYTHONPATH=src python tools/bench_keyed.py --smoke    # CI: 1e4 keys
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import benchlib  # noqa: E402
from repro.core.engine import build_estimator  # noqa: E402
from repro.core.query import CorrelatedQuery  # noqa: E402
from repro.datasets.zipf import zipf_keys, zipf_stream  # noqa: E402
from repro.keyed import GatedKeyedBank  # noqa: E402
from repro.keyed.gated import rank_estimates  # noqa: E402

REPO = Path(__file__).resolve().parents[1]
OUTPUT = REPO / "benchmarks" / "BENCH_keyed_bank.json"

METHOD = "piecemeal-uniform"
NUM_BUCKETS = 10
KEY_SKEW = 1.1
#: Distinct keys whose exact counts are checked against the bank's bounds
#: (every promoted key is checked on top of this sample).
VALIDATION_SAMPLE = 50_000
#: Exactly promoted keys re-run through a standalone estimator.
PARITY_SAMPLE = 5
#: The ranking depth that is timed, as the perfbench keyed workload reads it.
TOP = 10
#: Timed calls per ranking variant.
TOP_ROUNDS = 200


def _build_bank(args: argparse.Namespace, query: CorrelatedQuery) -> GatedKeyedBank:
    return GatedKeyedBank(
        query,
        METHOD,
        num_buckets=NUM_BUCKETS,
        sketch_capacity=args.sketch_capacity,
        promote_threshold=args.promote_after,
        memory_budget=args.budget_mb * 1024 * 1024,
    )


def _validate_bounds(
    bank: GatedKeyedBank, truth: Counter, sample: list[int]
) -> dict[str, int]:
    """Check exact per-key counts against the bank's explicit bounds."""
    violations = 0
    checked = 0
    keys = set(sample)
    keys.update(bank.promoted_keys())
    for key in keys:
        hits = truth.get(key, 0)
        if bank.is_promoted(key):
            low = bank._hits[key]
            high = low + bank._missed[key]
        else:
            low, high = bank._admission.hit_bounds(key)
        checked += 1
        if not low <= hits <= high:
            violations += 1
    return {"checked_keys": checked, "bound_violations": violations}


def _validate_parity(
    bank: GatedKeyedBank, keys: np.ndarray, records: list, query: CorrelatedQuery
) -> dict[str, object]:
    """Replay the hottest exactly-promoted keys through standalone twins."""
    exact = [
        key
        for key, _ in bank.top(50)
        if bank.is_promoted(key) and bank.estimate_interval(key).exact_history
    ][:PARITY_SAMPLE]
    matches = 0
    for key in exact:
        solo = build_estimator(query, METHOD, num_buckets=NUM_BUCKETS)
        key_records = [r for k, r in zip(keys.tolist(), records) if k == key]
        solo.update_many(key_records, collect="none")
        if solo.estimate() == bank.estimate(key):
            matches += 1
    return {
        "parity_checked": len(exact),
        "parity_exact_matches": matches,
        "parity_ok": matches == len(exact),
    }


def _full_scan(bank: GatedKeyedBank, n: int) -> list:
    return rank_estimates(bank.estimates().items(), n)


def _validate_top(bank: GatedKeyedBank) -> dict[str, object]:
    """``top(n)`` against the full scan it replaces: equality, then timing."""
    matches = all(
        repr(bank.top(n)) == repr(_full_scan(bank, n))
        for n in (1, TOP, 100, len(bank) + 1)
    )
    samples = benchlib.time_variants(
        {
            "threshold_scan": benchlib.call_block(lambda: bank.top(TOP)),
            "full_scan": benchlib.call_block(lambda: _full_scan(bank, TOP)),
        },
        rounds=TOP_ROUNDS,
    )
    scan, full = (
        {name: value * 1e3 for name, value in benchlib.quartiles(times).items()}
        for times in (samples["threshold_scan"], samples["full_scan"])
    )
    return {
        "top_matches_full_scan": matches,
        "top_ms": {
            "n": TOP,
            "calls": len(samples["threshold_scan"]),
            "threshold_scan": scan,
            "full_scan": full,
            "speedup": full["median"] / scan["median"],
        },
    }


def run(args: argparse.Namespace) -> dict:
    query = CorrelatedQuery("count", "min", epsilon=9.0)
    records = zipf_stream(n=args.tuples, exponent=2.0, num_ranks=2000)
    keys = zipf_keys(args.tuples, args.keys, exponent=KEY_SKEW, seed=args.key_seed)
    key_list = keys.tolist()

    best = float("inf")
    bank = None
    for _ in range(args.rounds):
        candidate = _build_bank(args, query)
        update = candidate.update
        started = time.perf_counter()
        for key, record in zip(key_list, records):
            update(key, record)
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
            bank = candidate

    truth = Counter(key_list)
    rng = np.random.default_rng(args.key_seed)
    sample_size = min(VALIDATION_SAMPLE, len(truth))
    sample = rng.choice(list(truth), size=sample_size, replace=False).tolist()
    validation = _validate_bounds(bank, truth, sample)
    validation.update(_validate_parity(bank, keys, records, query))
    validation.update(_validate_top(bank))

    state = bank.obs_state()
    budget = args.budget_mb * 1024 * 1024
    report = {
        "benchmark": "tools/bench_keyed.py",
        "description": (
            f"GatedKeyedBank over {args.tuples:,} tuples spread across "
            f"{args.keys:,} distinct zipf({KEY_SKEW:g}) keys "
            f"({query.describe()}, {METHOD}, m={NUM_BUCKETS}): Space-Saving "
            f"admission ({args.sketch_capacity} slots, promote after "
            f"{args.promote_after} guaranteed hits) in front of a "
            f"{args.budget_mb} MiB promoted-estimator budget.  Exact per-key "
            "counts are validated against the bank's over/under-count bounds "
            "and exactly promoted keys against standalone estimators."
        ),
        "command": (
            "PYTHONPATH=src python tools/bench_keyed.py "
            f"--keys {args.keys} --tuples {args.tuples} "
            f"--sketch-capacity {args.sketch_capacity} "
            f"--promote-after {args.promote_after} --budget-mb {args.budget_mb} "
            f"--rounds {args.rounds}"
        ),
        "acceptance_criterion": (
            "zero bound violations across the validation sample, exact "
            "promoted keys float-for-float equal to standalone estimators, "
            "top(n) equal to the full-scan ranking, promoted_bytes within "
            "the configured budget"
        ),
        "machine": benchlib.machine_info(),
        "workload": {
            "query": query.describe(),
            "method": METHOD,
            "num_buckets": NUM_BUCKETS,
            "tuples": args.tuples,
            "distinct_keys": args.keys,
            "key_skew": KEY_SKEW,
            "sketch_capacity": args.sketch_capacity,
            "promote_threshold": args.promote_after,
            "memory_budget_bytes": budget,
        },
        "distinct_keys": args.keys,
        "elapsed_seconds": round(best, 4),
        "tuples_per_second": round(args.tuples / best),
        "bank": {
            "tracked_keys": state["keys"],
            "promoted": state["promoted"],
            "promoted_bytes": state["promoted_bytes"],
            "promotions": state["promotions"],
            "demotions": state["demotions"],
            "deferred_promotions": state["deferred_promotions"],
            "sketch_replacements": state["sketch.replacements"],
            "sketch_ceiling": state["sketch.ceiling"],
        },
        "validation": validation,
        "budget_ok": state["promoted_bytes"] <= budget,
        "sound": (
            validation["bound_violations"] == 0
            and validation["parity_ok"]
            and validation["top_matches_full_scan"]
            and state["promoted_bytes"] <= budget
        ),
    }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keys", type=int, default=1_000_000)
    parser.add_argument("--tuples", type=int, default=2_000_000)
    parser.add_argument("--sketch-capacity", type=int, default=4096)
    parser.add_argument("--promote-after", type=int, default=64)
    parser.add_argument("--budget-mb", type=int, default=64)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--key-seed", type=int, default=7)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run: 1e4 distinct keys over 1e5 tuples, no file write "
        "unless --output is given explicitly",
    )
    parser.add_argument("--output", type=Path, default=None)
    args = parser.parse_args(argv)

    if args.smoke:
        args.keys = 10_000
        args.tuples = 100_000
        args.sketch_capacity = 1024
        args.promote_after = 32
        args.budget_mb = 16

    report = run(args)
    output = args.output
    if output is None and not args.smoke:
        output = OUTPUT
    if output is not None:
        output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {output}")
    top = report["validation"]["top_ms"]
    print(
        f"{report['tuples_per_second']:,} tuples/s over {args.keys:,} keys; "
        f"promoted {int(report['bank']['promoted'])} "
        f"({int(report['bank']['promoted_bytes']):,} bytes / "
        f"{report['workload']['memory_budget_bytes']:,} budget); "
        f"bounds: {report['validation']['bound_violations']} violations in "
        f"{report['validation']['checked_keys']:,} keys; "
        f"parity {report['validation']['parity_exact_matches']}/"
        f"{report['validation']['parity_checked']}; "
        f"top({TOP}) {top['threshold_scan']['median']:.3f} ms vs full scan "
        f"{top['full_scan']['median']:.3f} ms, equal: "
        f"{report['validation']['top_matches_full_scan']}"
    )
    return 0 if report["sound"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
