"""The paper's contribution: single-pass correlated-aggregate estimators.

A correlated aggregate ``AGG-D{ y : P(x, AGG-I{x}) }`` pairs an independent
aggregate over ``x`` (MIN, MAX, or AVG) with a dependent aggregate over
``y`` (COUNT or SUM) through a threshold predicate.  This package provides:

* :mod:`~repro.core.query` — the :class:`CorrelatedQuery` specification.
* :mod:`~repro.core.landmark_extrema` / :mod:`~repro.core.landmark_avg` —
  the landmark-window algorithms of paper Section 3.
* :mod:`~repro.core.sliding_extrema` / :mod:`~repro.core.sliding_avg` —
  the sliding-window algorithms of paper Section 4.
* :mod:`~repro.core.heuristics` — the memoryless reference heuristics.
* :mod:`~repro.core.baselines` — correlated-aggregate estimators built on
  traditional (equiwidth / true equidepth) histograms.
* :mod:`~repro.core.exact` — the exact multi-pass-equivalent oracle.
* :mod:`~repro.core.engine` — ``build_estimator`` factory keyed by the
  paper's method names.
"""

from repro.core.baselines import (
    EquidepthEstimator,
    EquiwidthEstimator,
    StreamingEquidepthEstimator,
)
from repro.core.engine import METHODS, build_estimator
from repro.core.exact import ExactOracle, exact_series
from repro.core.heuristics import AverageHeuristic, ExtremaHeuristic
from repro.core.landmark_avg import LandmarkAvgEstimator
from repro.core.landmark_extrema import LandmarkExtremaEstimator
from repro.core.multiplex import QueryEngine
from repro.core.parser import parse_query
from repro.core.query import CorrelatedQuery
from repro.core.sliding_avg import SlidingAvgEstimator
from repro.core.sliding_extrema import SlidingExtremaEstimator
from repro.core.time_sliding import TimeSlidingEstimator

__all__ = [
    "CorrelatedQuery",
    "QueryEngine",
    "parse_query",
    "LandmarkExtremaEstimator",
    "LandmarkAvgEstimator",
    "SlidingExtremaEstimator",
    "SlidingAvgEstimator",
    "TimeSlidingEstimator",
    "ExtremaHeuristic",
    "AverageHeuristic",
    "EquiwidthEstimator",
    "EquidepthEstimator",
    "StreamingEquidepthEstimator",
    "ExactOracle",
    "exact_series",
    "build_estimator",
    "METHODS",
]
