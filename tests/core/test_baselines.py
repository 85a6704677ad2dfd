"""Tests for the traditional-histogram baselines' independent aggregate."""

from __future__ import annotations

import pytest

from repro.core.engine import build_estimator
from repro.core.exact import ExactOracle
from repro.core.query import CorrelatedQuery
from repro.datasets.registry import load_dataset


@pytest.mark.parametrize("method", ["equiwidth", "equidepth"])
def test_sliding_mean_is_the_oracles(method):
    # The baselines are granted the exact independent aggregate: on a
    # sliding AVG query their window mean is the oracle's, float for float.
    records = load_dataset("ZIPF", size=3000)
    query = CorrelatedQuery("count", "avg", window=500)
    baseline = build_estimator(query, method, stream=records)
    oracle = ExactOracle(query, (r.x for r in records))
    for step, record in enumerate(records):
        baseline.update(record)
        oracle.update(record)
        assert repr(baseline._independent_value()) == repr(oracle._independent_value()), step
