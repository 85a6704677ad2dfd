"""The paper's evaluation, figure by figure, as executable specifications.

Each entry of :data:`EXPERIMENTS` corresponds to one figure of the paper
(the evaluation has no numbered tables — the figures *are* the results) and
records the query, data set(s), arrival order, and parameters the paper
used.  ``run_experiment`` replays the stream through every applicable
method and returns the per-method error series that regenerate the figure's
curves.

==========  =============================================================
Experiment  Paper figure
==========  =============================================================
``F4``      Fig. 4 — COUNT / MIN, landmark (USAGE eps=99; ZIPF eps=1000)
``F5``      Fig. 5 — SUM / MIN, landmark (same panels)
``F6``      Fig. 6 — COUNT / MIN, landmark, partially-sorted reverse
``F7``      Fig. 7 — COUNT / MIN, landmark, 5 buckets instead of 10
``F8``      Fig. 8 — COUNT / AVG, landmark (USAGE; MULTIFRAC)
``F9``      Fig. 9 — SUM / AVG, landmark (USAGE; MULTIFRAC)
``F10``     Fig. 10 — COUNT / AVG, landmark, partially-sorted reverse
``F12``     Fig. 12 — COUNT / MIN, sliding w=500 (USAGE; MULTIFRAC)
``F13``     Fig. 13 — COUNT / AVG, sliding w=500 (ZIPF; MGCTY)
==========  =============================================================
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.checkpoint import CheckpointManager
from repro.core.engine import methods_for_query
from repro.core.query import CorrelatedQuery
from repro.datasets.registry import load_dataset
from repro.eval.tracker import InstrumentHook, MethodResult, evaluate_methods
from repro.exceptions import ConfigurationError
from repro.streams.model import Record
from repro.streams.ordering import as_is, partially_sorted_reverse, random_permutation

ORDERINGS = ("as-is", "random", "reverse-sorted")


@dataclass(frozen=True)
class PanelSpec:
    """One panel (one data set / ordering) of a figure."""

    dataset: str
    query: CorrelatedQuery
    ordering: str = "as-is"

    def __post_init__(self) -> None:
        if self.ordering not in ORDERINGS:
            raise ConfigurationError(
                f"ordering must be one of {ORDERINGS}, got {self.ordering!r}"
            )

    def load(self, size: int | None = None, seed: int = 0) -> list[Record]:
        """The panel's stream, in the specified arrival order."""
        records = load_dataset(self.dataset, size=size)
        if self.ordering == "random":
            return random_permutation(records, seed=seed)
        if self.ordering == "reverse-sorted":
            return partially_sorted_reverse(records, seed=seed)
        return as_is(records)


@dataclass(frozen=True)
class ExperimentSpec:
    """One paper figure: panels plus shared parameters."""

    experiment_id: str
    figure: str
    description: str
    panels: tuple[PanelSpec, ...]
    num_buckets: int = 10

    def methods(self) -> list[str]:
        """All methods applicable to this experiment's queries."""
        return methods_for_query(self.panels[0].query)


@dataclass
class PanelResult:
    """Evaluated panel: per-method results plus the panel's metadata."""

    panel: PanelSpec
    results: dict[str, MethodResult]

    def final_rmse(self) -> dict[str, float]:
        """Headline ``RMSE_n`` per method."""
        return {name: r.final_rmse for name, r in self.results.items()}


def _min_query(epsilon: float, window: int | None = None) -> CorrelatedQuery:
    return CorrelatedQuery("count", "min", epsilon=epsilon, window=window)


def _panels_min(dependent: str, ordering: str = "as-is") -> tuple[PanelSpec, ...]:
    return (
        PanelSpec("USAGE", CorrelatedQuery(dependent, "min", epsilon=99.0), ordering),
        PanelSpec("ZIPF", CorrelatedQuery(dependent, "min", epsilon=1000.0), ordering),
    )


def _panels_avg(dependent: str, ordering: str = "as-is") -> tuple[PanelSpec, ...]:
    return (
        PanelSpec("USAGE", CorrelatedQuery(dependent, "avg"), ordering),
        PanelSpec("MULTIFRAC", CorrelatedQuery(dependent, "avg"), ordering),
    )


EXPERIMENTS: dict[str, ExperimentSpec] = {
    "F4": ExperimentSpec(
        "F4",
        "Figure 4",
        "Correlated COUNT with independent MIN over a landmark window",
        _panels_min("count"),
    ),
    "F5": ExperimentSpec(
        "F5",
        "Figure 5",
        "Correlated SUM with independent MIN over a landmark window",
        _panels_min("sum"),
    ),
    "F6": ExperimentSpec(
        "F6",
        "Figure 6",
        "COUNT/MIN landmark with partially-sorted reverse arrival order",
        (PanelSpec("USAGE", CorrelatedQuery("count", "min", epsilon=99.0), "reverse-sorted"),),
    ),
    "F7": ExperimentSpec(
        "F7",
        "Figure 7",
        "COUNT/MIN landmark with a 5-bucket budget",
        (PanelSpec("USAGE", CorrelatedQuery("count", "min", epsilon=99.0)),),
        num_buckets=5,
    ),
    "F8": ExperimentSpec(
        "F8",
        "Figure 8",
        "Correlated COUNT with independent AVG over a landmark window",
        _panels_avg("count"),
    ),
    "F9": ExperimentSpec(
        "F9",
        "Figure 9",
        "Correlated SUM with independent AVG over a landmark window",
        _panels_avg("sum"),
    ),
    "F10": ExperimentSpec(
        "F10",
        "Figure 10",
        "COUNT/AVG landmark with partially-sorted reverse arrival order",
        (PanelSpec("USAGE", CorrelatedQuery("count", "avg"), "reverse-sorted"),),
    ),
    "F12": ExperimentSpec(
        "F12",
        "Figure 12",
        "Correlated COUNT with independent MIN over a sliding window (w=500)",
        (
            PanelSpec("USAGE", _min_query(99.0, window=500)),
            PanelSpec("MULTIFRAC", _min_query(99.0, window=500)),
        ),
    ),
    "F13": ExperimentSpec(
        "F13",
        "Figure 13",
        "Correlated COUNT with independent AVG over a sliding window (w=500)",
        (
            PanelSpec("ZIPF", CorrelatedQuery("count", "avg", window=500)),
            PanelSpec("MGCTY", CorrelatedQuery("count", "avg", window=500)),
        ),
    ),
}


def run_experiment(
    spec: ExperimentSpec | str,
    size: int | None = None,
    methods: Sequence[str] | None = None,
    num_buckets: int | None = None,
    obs: bool = False,
    trace: bool = False,
    audit_every: int | None = None,
    audit_budget: float | None = None,
    on_instrument: InstrumentHook | None = None,
    checkpoint_dir: str | Path | None = None,
    checkpoint_every: int | None = None,
    resume: bool = False,
    **kwargs: object,
) -> list[PanelResult]:
    """Execute one experiment; returns one :class:`PanelResult` per panel.

    Parameters
    ----------
    spec:
        An :class:`ExperimentSpec` or an id from :data:`EXPERIMENTS`.
    size:
        Optional truncated stream length (for quick runs / tests).
    methods:
        Restrict to a subset of methods (default: all applicable).
    num_buckets:
        Override the spec's bucket budget.
    obs:
        Attach a recording sink per method (lifecycle events, per-update
        latency); each result carries it in ``.obs``.
    trace:
        Give each method a span tracer (``kernel.*`` / ``eval.replay``
        spans aggregate into its registry).  Implies ``obs``.
    audit_every:
        Wrap each method in a live accuracy auditor with this period.
        Implies ``obs``.
    audit_budget:
        Relative-error budget for the auditor's breach accounting.
    on_instrument:
        Per-method ``(method, sink, tracer)`` callback — the CLI's seam
        for exposing live registries on ``/metrics``.  The panel index is
        visible to the caller via closure state if needed.
    checkpoint_dir:
        Enable the crash-safe path: each panel's evaluation runs through
        a :class:`~repro.checkpoint.CheckpointManager` rooted at
        ``<checkpoint_dir>/panel<i>``.  Mutually exclusive with ``obs``
        (resumed latency profiles would splice two processes' clocks).
    checkpoint_every:
        Checkpoint period in tuples (requires ``checkpoint_dir``).
    resume:
        Restore each panel from its newest intact generation and replay
        only the gap (requires ``checkpoint_dir``).
    kwargs:
        Extra configuration for focused estimators.
    """
    if isinstance(spec, str):
        if spec not in EXPERIMENTS:
            raise ConfigurationError(
                f"unknown experiment {spec!r}; choose from {sorted(EXPERIMENTS)}"
            )
        spec = EXPERIMENTS[spec]
    if (checkpoint_every is not None or resume) and checkpoint_dir is None:
        raise ConfigurationError("checkpoint_every/resume need a checkpoint_dir")
    buckets = spec.num_buckets if num_buckets is None else num_buckets
    panel_results = []
    for index, panel in enumerate(spec.panels):
        records = panel.load(size=size)
        wanted = list(methods) if methods is not None else methods_for_query(panel.query)
        manager = None
        if checkpoint_dir is not None:
            manager = CheckpointManager(
                Path(checkpoint_dir) / f"panel{index}",
                every=checkpoint_every,
                source=(
                    f"{spec.experiment_id}:{panel.dataset}:{panel.ordering}"
                    f":{len(records)}"
                ),
            )
        results = evaluate_methods(
            records,
            panel.query,
            methods=wanted,
            num_buckets=buckets,
            obs=obs,
            trace=trace,
            audit_every=audit_every,
            audit_budget=audit_budget,
            on_instrument=on_instrument,
            checkpoint=manager,
            resume=resume,
            **kwargs,
        )
        panel_results.append(PanelResult(panel=panel, results=results))
    return panel_results
