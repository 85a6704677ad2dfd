"""Tests for the estimator factory and baseline estimators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baselines import EquidepthEstimator, EquiwidthEstimator
from repro.core.engine import FOCUSED_METHODS, METHODS, build_estimator, methods_for_query
from repro.core.exact import ExactOracle, exact_series
from repro.core.heuristics import AverageHeuristic, ExtremaHeuristic
from repro.core.landmark_avg import LandmarkAvgEstimator
from repro.core.landmark_extrema import LandmarkExtremaEstimator
from repro.core.query import CorrelatedQuery
from repro.core.sliding_avg import SlidingAvgEstimator
from repro.core.sliding_extrema import SlidingExtremaEstimator
from repro.exceptions import ConfigurationError
from tests.conftest import make_records

LM_MIN = CorrelatedQuery("count", "min", epsilon=9.0)
SW_MIN = CorrelatedQuery("count", "min", epsilon=9.0, window=50)
LM_AVG = CorrelatedQuery("count", "avg")
SW_AVG = CorrelatedQuery("count", "avg", window=50)


class TestFactory:
    def test_unknown_method(self):
        with pytest.raises(ConfigurationError):
            build_estimator(LM_MIN, "magic")

    @pytest.mark.parametrize("method", FOCUSED_METHODS)
    def test_focused_dispatch(self, method):
        assert isinstance(build_estimator(LM_MIN, method), LandmarkExtremaEstimator)
        assert isinstance(build_estimator(SW_MIN, method), SlidingExtremaEstimator)
        assert isinstance(build_estimator(LM_AVG, method), LandmarkAvgEstimator)
        assert isinstance(build_estimator(SW_AVG, method), SlidingAvgEstimator)

    def test_equiwidth_needs_domain_or_stream(self):
        with pytest.raises(ConfigurationError):
            build_estimator(LM_MIN, "equiwidth")
        est = build_estimator(LM_MIN, "equiwidth", domain=(0.0, 10.0))
        assert isinstance(est, EquiwidthEstimator)
        est2 = build_estimator(LM_MIN, "equiwidth", stream=make_records([1.0, 5.0]))
        assert isinstance(est2, EquiwidthEstimator)

    def test_equidepth_and_exact_need_universe_or_stream(self):
        for method in ("equidepth", "exact"):
            with pytest.raises(ConfigurationError):
                build_estimator(LM_MIN, method)
        assert isinstance(
            build_estimator(LM_MIN, "equidepth", universe=[1.0, 2.0]), EquidepthEstimator
        )
        assert isinstance(
            build_estimator(LM_MIN, "exact", stream=make_records([1.0])), ExactOracle
        )

    def test_heuristics_dispatch(self):
        assert isinstance(build_estimator(LM_MIN, "heuristic-reset"), ExtremaHeuristic)
        assert isinstance(build_estimator(LM_MIN, "heuristic-continue"), ExtremaHeuristic)
        assert isinstance(build_estimator(LM_AVG, "heuristic-running"), AverageHeuristic)

    def test_kwargs_forwarded(self):
        est = build_estimator(LM_AVG, "piecemeal-uniform", k_std=2.5)
        assert est._k == 2.5  # noqa: SLF001 - white-box check

    def test_every_method_name_buildable(self):
        records = make_records([1.0, 2.0, 5.0, 9.0])
        for method in METHODS:
            query = LM_MIN if "running" not in method else LM_AVG
            est = build_estimator(query, method, stream=records)
            for r in records:
                est.update(r)


class TestOptionValidation:
    def test_unknown_option_raises_loudly(self):
        with pytest.raises(ConfigurationError, match="unknown estimator option"):
            build_estimator(LM_MIN, "piecemeal-uniform", swap_perod=1)

    def test_typo_gets_a_did_you_mean_hint(self):
        with pytest.raises(ConfigurationError, match="did you mean 'swap_period'"):
            build_estimator(LM_MIN, "piecemeal-uniform", swap_perod=1)

    def test_cross_method_sweep_kwargs_are_filtered_per_class(self):
        # One kwargs dict drives a whole sweep: each estimator picks up
        # only the knobs it has; foreign-but-known keys are dropped, not
        # rejected (k_std belongs to the AVG estimators only).
        records = make_records([1.0, 2.0, 5.0, 9.0])
        shared = {"k_std": 2.5, "drift_tolerance": 0.1}
        for method in ("piecemeal-uniform", "equiwidth", "heuristic-reset"):
            est = build_estimator(LM_MIN, method, stream=records, **shared)
            for r in records:
                est.update(r)

    def test_derive_helpers(self):
        from repro.core.engine import derive_domain, derive_universe

        records = make_records([3.0, 1.0, 2.0])
        assert derive_domain(records) == (1.0, 3.0)
        assert derive_universe(records) == [3.0, 1.0, 2.0]
        low, high = derive_domain(make_records([5.0, 5.0]))
        assert low < 5.0 < high  # constant stream gets a minimal pad
        with pytest.raises(ConfigurationError):
            derive_domain([])


class TestMethodsForQuery:
    def test_landmark_extrema_methods(self):
        methods = methods_for_query(LM_MIN)
        assert "heuristic-reset" in methods and "heuristic-continue" in methods
        assert "heuristic-running" not in methods

    def test_landmark_avg_methods(self):
        methods = methods_for_query(LM_AVG)
        assert "heuristic-running" in methods
        assert "heuristic-reset" not in methods

    def test_sliding_has_no_heuristics(self):
        methods = methods_for_query(SW_MIN)
        assert not any(m.startswith("heuristic") for m in methods)

    def test_include_exact(self):
        assert "exact" in methods_for_query(LM_MIN, include_exact=True)
        assert "exact" not in methods_for_query(LM_MIN)


class TestBaselineEstimators:
    def test_equiwidth_invalid_domain(self):
        with pytest.raises(ConfigurationError):
            EquiwidthEstimator(LM_MIN, 10, (5.0, 5.0))

    def test_empty_estimate_is_zero(self):
        est = EquidepthEstimator(LM_AVG, 4, [1.0, 2.0])
        assert est.estimate() == 0.0

    @pytest.mark.parametrize("method", ["equiwidth", "equidepth"])
    @pytest.mark.parametrize(
        "query", [LM_MIN, LM_AVG, SW_MIN, SW_AVG], ids=["lm-min", "lm-avg", "sw-min", "sw-avg"]
    )
    def test_baselines_track_exact_roughly(self, rng, method, query):
        xs = rng.uniform(1.0, 100.0, size=600)
        records = make_records(xs)
        est = build_estimator(query, method, num_buckets=10, stream=records)
        outputs = np.array([est.update(r) for r in records])
        exact = np.array(exact_series(records, query))
        rmse = float(np.sqrt(np.mean((outputs - exact) ** 2)))
        # Uniform data is the friendly case for both baselines.
        assert rmse < 0.2 * max(exact.mean(), 1.0)

    def test_exact_oracle_through_factory_is_exact(self, rng):
        xs = rng.uniform(1.0, 50.0, size=200)
        records = make_records(xs)
        est = build_estimator(SW_AVG, "exact", stream=records)
        outputs = [est.update(r) for r in records]
        assert outputs == exact_series(records, SW_AVG)


class TestTimeWindowFactory:
    def test_dispatch(self):
        from repro.core.time_sliding import TimeSlidingEstimator

        est = build_estimator(LM_MIN, "piecemeal-uniform", time_window=25.0)
        assert isinstance(est, TimeSlidingEstimator)

    def test_mutually_exclusive_with_tuple_window(self):
        with pytest.raises(ConfigurationError, match="mutually"):
            build_estimator(SW_MIN, "piecemeal-uniform", time_window=25.0)

    def test_non_focused_method_rejected(self):
        with pytest.raises(ConfigurationError, match="focused"):
            build_estimator(LM_MIN, "equidepth", time_window=25.0)

    def test_typo_still_gets_did_you_mean(self):
        # Regression: before time_window was a factory parameter, the
        # option (and its near-misses) died as an unknown-kwarg error with
        # no suggestion.
        with pytest.raises(ConfigurationError, match="time_window"):
            build_estimator(LM_MIN, "piecemeal-uniform", time_windoww=25.0)

    def test_unit_spacing_reference_matches_tuple_window(self, rng):
        # With tuples at times 1, 2, 3, ... a duration-W time window holds
        # exactly the last W tuples — so the exact time-window series must
        # agree with the exact tuple-window series over the same stream.
        from repro.core.exact import exact_time_series

        records = make_records(rng.uniform(1.0, 100.0, size=150))
        timed = [(float(i), r) for i, r in enumerate(records, start=1)]
        assert exact_time_series(timed, LM_MIN, 50.0) == exact_series(records, SW_MIN)

    @pytest.mark.parametrize("independent", ["min", "max", "avg"])
    @pytest.mark.parametrize("dependent", ["count", "sum", "avg"])
    def test_unit_spacing_reference_matches_tuple_window_bit_for_bit(
        self, dependent, independent
    ):
        # The same equality for every dependent and independent on a real
        # stream: one exact reference serves both scopes, so the two series
        # agree in every bit, SUM and AVG dependents included.
        from repro.core.exact import exact_time_series
        from repro.datasets.registry import load_dataset

        records = load_dataset("USAGE", size=3000)
        epsilon = 0.0 if independent == "avg" else 9.0
        timed = [(float(i), r) for i, r in enumerate(records, start=1)]
        landmark = CorrelatedQuery(dependent, independent, epsilon=epsilon)
        sliding = CorrelatedQuery(dependent, independent, epsilon=epsilon, window=300)
        assert exact_time_series(timed, landmark, 300.0) == exact_series(records, sliding)

    def test_estimator_tracks_window_occupancy(self, rng):
        records = make_records(rng.uniform(1.0, 100.0, size=150))
        est = build_estimator(LM_MIN, "piecemeal-uniform", time_window=50.0)
        outputs = est.update_columns(
            [r.x for r in records],
            [r.y for r in records],
            times=[float(i) for i in range(1, len(records) + 1)],
        )
        assert len(outputs) == len(records)
        assert all(np.isfinite(v) for v in outputs)
