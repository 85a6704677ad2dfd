"""Tests for the method tracker."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.query import CorrelatedQuery
from repro.eval.tracker import MethodResult, evaluate_methods, run_method
from repro.exceptions import ConfigurationError
from tests.conftest import make_records

LM_MIN = CorrelatedQuery("count", "min", epsilon=9.0)
SW_AVG = CorrelatedQuery("count", "avg", window=20)


class TestRunMethod:
    def test_empty_stream_rejected(self):
        with pytest.raises(ConfigurationError):
            run_method([], LM_MIN, "piecemeal-uniform")

    def test_one_output_per_record(self, rng):
        records = make_records(rng.uniform(1, 100, size=50))
        outputs = run_method(records, LM_MIN, "piecemeal-uniform")
        assert len(outputs) == 50

    def test_exact_method_matches_oracle(self, rng):
        records = make_records(rng.uniform(1, 100, size=50))
        from repro.core.exact import exact_series

        assert run_method(records, LM_MIN, "exact") == exact_series(records, LM_MIN)

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_nonpositive_batch_size_rejected(self, rng, batch_size):
        records = make_records(rng.uniform(1, 100, size=50))
        with pytest.raises(ConfigurationError, match="batch_size must be >= 1"):
            run_method(records, LM_MIN, "piecemeal-uniform", batch_size=batch_size)

    @pytest.mark.parametrize("batch_size", [1, 7, 50, 64])
    def test_batch_size_does_not_change_outputs(self, rng, batch_size):
        records = make_records(rng.uniform(1, 100, size=50))
        plain = run_method(records, LM_MIN, "piecemeal-uniform")
        batched = run_method(records, LM_MIN, "piecemeal-uniform", batch_size=batch_size)
        assert [repr(v) for v in batched] == [repr(v) for v in plain]


class TestEvaluateMethods:
    def test_default_methods_applicable(self, rng):
        records = make_records(rng.uniform(1, 100, size=80))
        results = evaluate_methods(records, LM_MIN)
        assert "piecemeal-uniform" in results
        assert "heuristic-reset" in results
        for result in results.values():
            assert isinstance(result, MethodResult)
            assert result.outputs.shape == (80,)
            assert result.rmse_series.shape == (80,)

    def test_exact_method_has_zero_error(self, rng):
        records = make_records(rng.uniform(1, 100, size=60))
        results = evaluate_methods(records, LM_MIN, methods=["exact"])
        assert results["exact"].final_rmse == 0.0
        assert results["exact"].overall_rmse == 0.0

    def test_sliding_uses_trailing_rmse(self, rng):
        records = make_records(rng.uniform(1, 100, size=60))
        results = evaluate_methods(records, SW_AVG, methods=["piecemeal-uniform"])
        result = results["piecemeal-uniform"]
        from repro.eval.metrics import sliding_rmse_series

        expected = sliding_rmse_series(result.outputs, result.exact, 20)
        assert result.rmse_series == pytest.approx(expected)

    def test_precomputed_exact_reused(self, rng):
        records = make_records(rng.uniform(1, 100, size=40))
        fake_exact = np.zeros(40)
        results = evaluate_methods(
            records, LM_MIN, methods=["heuristic-reset"], exact=fake_exact
        )
        assert results["heuristic-reset"].exact == pytest.approx(fake_exact)

    def test_final_rmse_is_last_series_entry(self, rng):
        records = make_records(rng.uniform(1, 100, size=30))
        results = evaluate_methods(records, LM_MIN, methods=["equiwidth"])
        result = results["equiwidth"]
        assert result.final_rmse == result.rmse_series[-1]

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_nonpositive_batch_size_rejected(self, rng, batch_size):
        records = make_records(rng.uniform(1, 100, size=30))
        with pytest.raises(ConfigurationError, match="batch_size must be >= 1"):
            evaluate_methods(records, LM_MIN, batch_size=batch_size)
