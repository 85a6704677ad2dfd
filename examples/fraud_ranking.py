"""Per-customer fraud screening with one estimator per customer.

The paper's opening scenario: "maintain a variety of statistical summary
information about a large number of customers in an online fashion".  This
example keeps one constant-space correlated-aggregate estimator *per
customer* — a ``GatedKeyedBank`` with ``promote_threshold=1``, which gives
every key its estimator on first sight — and ranks customers by it as the
call stream flows by.

The screening signal is the paper-style query (written in its notation and
parsed by :func:`repro.parse_query`)::

    COUNT{y: x >= MAX(x)/(1+0.25)}  OVER SLIDING(200)

per customer — how many of the customer's recent calls are within 20% of
their own longest recent call.  A burst of uniformly-long calls (classic
toll-fraud dialing) pushes this count up, while normal traffic (mixed
durations) keeps it low.

Usage::

    python examples/fraud_ranking.py
"""

from __future__ import annotations

import numpy as np

from repro import GatedKeyedBank, parse_query
from repro.streams.model import Record

CUSTOMERS = 40
CALLS = 40_000
QUERY_TEXT = "COUNT{y: x >= MAX(x)/(1+0.25)} OVER SLIDING(200)"
FRAUDSTERS = {"cust-03", "cust-17"}


def synth_call(rng: np.random.Generator, customer: str) -> Record:
    """One call-duration record; fraudsters dial long, uniform calls."""
    if customer in FRAUDSTERS and rng.random() < 0.6:
        duration = rng.uniform(28.0, 30.0)  # scripted long calls
    else:
        # Normal traffic, capped at the 20-minute auto-disconnect.
        duration = min(float(rng.lognormal(mean=1.2, sigma=1.0)), 20.0)
    return Record(x=duration, y=1.0)


def main() -> None:
    rng = np.random.default_rng(42)
    query = parse_query(QUERY_TEXT)
    bank = GatedKeyedBank(
        query, method="piecemeal-uniform", num_buckets=8, promote_threshold=1
    )

    customers = [f"cust-{i:02d}" for i in range(CUSTOMERS)]
    print(f"query per customer: {query.describe()}")
    print(f"streaming {CALLS} calls across {CUSTOMERS} customers...\n")

    for _ in range(CALLS):
        customer = customers[int(rng.integers(0, CUSTOMERS))]
        bank.update(customer, synth_call(rng, customer))

    print(f"{'rank':>4}  {'customer':>9}  {'near-own-max calls':>18}  flag")
    print("-" * 46)
    for rank, (customer, score) in enumerate(bank.top(8), start=1):
        flag = "FRAUD?" if customer in FRAUDSTERS else ""
        print(f"{rank:>4}  {customer:>9}  {score:>18.1f}  {flag}")

    flagged = {customer for customer, _ in bank.top(2)}
    print(
        f"\ntop-2 by screening score: {sorted(flagged)} "
        f"(planted fraudsters: {sorted(FRAUDSTERS)})"
    )
    print(f"state: {len(bank)} estimators x 8 buckets, no per-call storage")


if __name__ == "__main__":
    main()
