"""Telecom monitoring: the paper's Section 2 examples on a CallDetail stream.

Reproduces the three stream aggregates the paper motivates with, over a
synthetic CallDetail(origin, dialed, time, duration, isIntl) stream:

* Example 1 (level 0): number of international calls in the recent window
  that took longer than 10 minutes — exactly computable as the sliding SUM
  of a 0/1 indicator with the level-0 scope aggregate.
* Example 2 (level 1, landmark, AVG): number of international calls longer
  than the average call duration — approximated with a focused histogram.
* Example 3 (level 1, sliding, MAX): number of calls within 10% of the
  longest recent call — approximated with the sliding extrema estimator.

Usage::

    python examples/telecom_fraud.py
"""

from __future__ import annotations

from repro.core.engine import build_estimator
from repro.core.exact import ExactOracle
from repro.core.query import CorrelatedQuery
from repro.datasets.calldetail import call_detail_stream
from repro.streams.model import Record
from repro.streams.operators import ScopeAggregate

WINDOW = 2_000  # "recent" = the last 2000 calls
CHECKPOINTS = (2_000, 5_000, 10_000, 15_000, 20_000)


def example_1_long_intl_calls(calls) -> None:
    """Level 0: COUNT of recent international calls longer than 10 minutes."""
    print("Example 1 - recent international calls over 10 minutes (exact, level 0)")
    # x is 1 for an international call over 10 minutes, else 0: the
    # level-0 COUNT with that predicate is the SUM of the indicator.
    window_sum = ScopeAggregate("sum", window=WINDOW)
    outputs = []
    for c in calls:
        window_sum.push(Record(x=1.0 if c.is_intl and c.duration > 10.0 else 0.0))
        outputs.append(window_sum.value())
    for step in CHECKPOINTS:
        print(f"  after {step:>6} calls: {outputs[step - 1]:>6.0f}")
    print()


def example_2_longer_than_average(calls) -> None:
    """Level 1, landmark: intl calls longer than the average duration."""
    print("Example 2 - intl calls longer than the average duration (landmark, approx)")
    # x = duration drives the threshold; y is a 0/1 international marker, so
    # a SUM-dependent aggregate counts exactly the qualifying intl calls.
    query = CorrelatedQuery(dependent="sum", independent="avg")
    estimator = build_estimator(query, "piecemeal-uniform", num_buckets=10)
    oracle = ExactOracle(query, (c.duration for c in calls))

    estimates, exact = [], []
    for call in calls:
        record = Record(x=call.duration, y=1.0 if call.is_intl else 0.0)
        estimates.append(estimator.update(record))
        exact.append(oracle.update(record))
    for step in CHECKPOINTS:
        est, ref = estimates[step - 1], exact[step - 1]
        print(f"  after {step:>6} calls: estimate {est:>8.1f}   exact {ref:>8.1f}")
    print()


def example_3_near_longest(calls) -> None:
    """Level 1, sliding: calls within 10% of the longest recent call."""
    print("Example 3 - calls within 10% of the longest recent call (sliding, approx)")
    # "within 10% of MAX" is MAX(x)/(1+eps) <= x with 1/(1+eps) = 0.9.
    epsilon = 1.0 / 0.9 - 1.0
    query = CorrelatedQuery(
        dependent="count", independent="max", epsilon=epsilon, window=WINDOW
    )
    estimator = build_estimator(query, "piecemeal-uniform", num_buckets=10)
    oracle = ExactOracle(query, (c.duration for c in calls))

    estimates, exact = [], []
    for call in calls:
        record = Record(x=call.duration, y=1.0)
        estimates.append(estimator.update(record))
        exact.append(oracle.update(record))
    for step in CHECKPOINTS:
        est, ref = estimates[step - 1], exact[step - 1]
        print(f"  after {step:>6} calls: estimate {est:>8.1f}   exact {ref:>8.1f}")
    print()


def main() -> None:
    calls = call_detail_stream(n=20_000, seed=2001)
    intl = sum(1 for c in calls if c.is_intl)
    print(f"CallDetail stream: {len(calls)} calls, {intl} international\n")
    example_1_long_intl_calls(calls)
    example_2_longer_than_average(calls)
    example_3_near_longest(calls)


if __name__ == "__main__":
    main()
