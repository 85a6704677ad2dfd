"""Run estimators over recorded streams and collect error series.

The tracker is the glue between the estimator factory and the metrics: it
replays one recorded stream through one or many methods, computes the exact
series once, and packages the output/error series the figures and tests
consume.

With ``obs=True`` each method additionally gets a
:class:`~repro.obs.sink.RecordingSink` attached: lifecycle events aggregate
into a per-method :class:`~repro.obs.registry.MetricsRegistry`, every
``estimator.update`` call is clocked with :func:`time.perf_counter_ns` into
the ``update.latency_ns`` timer, and the estimator's final ``obs_state()``
gauges are copied in under ``state.<key>``.  The whole apparatus is skipped
when ``obs`` is False, so the default path pays nothing.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from time import perf_counter_ns

import numpy as np

from repro.checkpoint import CheckpointManager
from repro.core.engine import build_estimator, derive_domain, derive_universe, methods_for_query
from repro.core.exact import exact_series
from repro.core.query import CorrelatedQuery
from repro.eval.metrics import prefix_rmse_series, rmse, sliding_rmse_series
from repro.exceptions import ConfigurationError, StreamError
from repro.obs.audit import AccuracyAuditor
from repro.obs.registry import MetricsRegistry
from repro.obs.sink import ObsSink, RecordingSink
from repro.obs.trace import Tracer
from repro.streams.model import Record, StreamAlgorithm

#: Callback invoked once per instrumented method with its live sink and
#: tracer (the CLI hangs the ``/metrics`` hub off this seam).
InstrumentHook = Callable[[str, RecordingSink | None, Tracer | None], None]

#: Methods whose construction scans the stream for offline knowledge
#: (equiwidth's domain, equidepth's and exact's universe).  The tracker
#: derives that knowledge once per evaluation and shares it.
_OFFLINE_METHODS = ("equiwidth", "equidepth", "exact")

#: Timer name under which per-update latencies are recorded.
UPDATE_TIMER = "update.latency_ns"


@dataclass
class MethodResult:
    """One method's run over one stream."""

    method: str
    outputs: np.ndarray
    exact: np.ndarray
    rmse_series: np.ndarray = field(repr=False)
    obs: RecordingSink | None = field(default=None, repr=False)

    @property
    def final_rmse(self) -> float:
        """The figure's headline number: ``RMSE_n`` at the last step."""
        return float(self.rmse_series[-1])

    @property
    def overall_rmse(self) -> float:
        """Plain RMSE over the whole series."""
        return rmse(self.outputs, self.exact)

    @property
    def metrics(self) -> MetricsRegistry | None:
        """The method's metrics registry (None when run without obs)."""
        return self.obs.registry if self.obs is not None else None


def _chunk_ends(stop: int, batch_size: int | None, every: int | None = None) -> list[int]:
    """Absolute chunk ends in ``(0, stop]``: multiples of each period, then ``stop``.

    Offsets are stream positions, not per-run counters, so a run resumed
    from a generation cuts the same chunks an uninterrupted one would.
    """
    if batch_size is not None and batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    ends = {stop}
    for period in (batch_size, every):
        if period is not None:
            ends.update(range(period, stop, period))
    return sorted(ends)


def _replay(
    estimator: StreamAlgorithm,
    records: Sequence[Record],
    registry: MetricsRegistry | None = None,
) -> list[float]:
    """Drive one chunk through ``estimator``; optionally clock each update.

    Without a registry the chunk goes through one ``update_many`` call — the batched
    path is parity-tested to transcribe the scalar loop exactly.  The
    tracker always wants ``collect="all"`` (the default): its whole
    output is the per-record estimate series the error metrics consume,
    so the lean ``"none"`` mode the sharded workers and benchmarks use
    would defeat it here.  With a registry the scalar
    loop is kept: per-update latency profiling *is* the point there, and
    wrapping the clock around a batch would hide it.
    """
    if registry is None:
        update_many = getattr(estimator, "update_many", None)
        if update_many is None:  # third-party algorithm: scalar contract only
            update = estimator.update
            return [update(r) for r in records]
        return update_many(records)
    update = estimator.update
    observe = registry.timer(UPDATE_TIMER).observe_ns
    outputs = []
    append = outputs.append
    for r in records:
        start = perf_counter_ns()
        value = update(r)
        observe(perf_counter_ns() - start)
        append(value)
    return outputs


#: An evaluation in flight, and what one checkpoint generation holds: per
#: method, its estimator and the outputs it produced so far (the prefix a
#: resumed run's error series still needs).
EvaluationState = dict[str, tuple[StreamAlgorithm, list[float]]]


def _feed(
    state: EvaluationState,
    records: Sequence[Record],
    ends: Sequence[int],
    start: int = 0,
    registry: MetricsRegistry | None = None,
    checkpoint: CheckpointManager | None = None,
) -> None:
    """The chunk loop: ``records[start:]`` into every method, chunk by chunk.

    At each chunk end every method has consumed the same prefix; that is
    where ``checkpoint`` applies its every-N schedule.
    """
    lo = start
    for hi in ends:
        if hi <= start:
            continue
        chunk = records[lo:hi]
        for estimator, outputs in state.values():
            outputs.extend(_replay(estimator, chunk, registry))
        if checkpoint is not None:
            checkpoint.maybe_save(state, hi)
        lo = hi


def _snapshot_state(estimator: object, registry: MetricsRegistry) -> None:
    """Copy the estimator's live-size gauges into ``state.<key>``."""
    state_fn = getattr(estimator, "obs_state", None)
    if state_fn is None:
        return
    for key, value in state_fn().items():
        registry.gauge(f"state.{key}").set(value)


def _run_one(
    records: Sequence[Record],
    ends: Sequence[int],
    query: CorrelatedQuery,
    method: str,
    num_buckets: int,
    kwargs: dict[str, object],
    sink: ObsSink | None = None,
    tracer: Tracer | None = None,
    audit_every: int | None = None,
    audit_budget: float | None = None,
    on_instrument: InstrumentHook | None = None,
) -> list[float]:
    """One method over the whole stream; returns its output series.

    Builds the estimator (traced, and wrapped in an auditor when asked),
    announces it to ``on_instrument``, replays every chunk inside one
    ``eval.replay`` span when traced, and copies its final gauges into a
    recording sink's registry.
    """
    if audit_every is not None and kwargs.get("time_window") is not None:
        raise ConfigurationError(
            "auditing drives update(record) and cannot wrap a time-window "
            "estimator's (time, record) contract"
        )
    if tracer is not None:
        kwargs = {**kwargs, "tracer": tracer}
    estimator = build_estimator(
        query, method, num_buckets=num_buckets, stream=records, sink=sink, **kwargs
    )
    if audit_every is not None:
        estimator = AccuracyAuditor(
            estimator, query, every=audit_every, budget=audit_budget, sink=sink, tracer=tracer
        )
    if on_instrument is not None:
        on_instrument(method, sink, tracer)  # type: ignore[arg-type]
    registry = sink.registry if isinstance(sink, RecordingSink) else None
    outputs: list[float] = []
    if tracer is not None:
        with tracer.span("eval.replay", method=method, records=float(len(records))):
            _feed({method: (estimator, outputs)}, records, ends, registry=registry)
    else:
        _feed({method: (estimator, outputs)}, records, ends, registry=registry)
    if registry is not None:
        _snapshot_state(estimator, registry)
    return outputs


def run_method(
    records: Sequence[Record],
    query: CorrelatedQuery,
    method: str,
    num_buckets: int = 10,
    sink: ObsSink | None = None,
    batch_size: int | None = None,
    tracer: Tracer | None = None,
    audit_every: int | None = None,
    audit_budget: float | None = None,
    **kwargs: object,
) -> list[float]:
    """Replay ``records`` through one method; return its output series.

    With ``batch_size`` the records go through ``update_many`` in chunks
    of that many (it must be at least 1).  With ``tracer`` the estimator's
    lifecycle edges record spans and the whole replay runs inside an
    ``eval.replay`` span; with ``audit_every`` the estimator is wrapped in
    an :class:`~repro.obs.audit.AccuracyAuditor` auditing every that many
    tuples against ``audit_budget``.
    """
    if not records:
        raise ConfigurationError("run_method needs a non-empty stream")
    ends = _chunk_ends(len(records), batch_size)
    return _run_one(
        records, ends, query, method, num_buckets, kwargs,
        sink, tracer, audit_every, audit_budget,
    )


def check_checkpoint_exclusions(
    checkpointing: bool, *, obs: bool, trace: bool, audit_every: int | None
) -> None:
    """Refuse checkpointing combined with per-update instrumentation.

    The one copy of the rule, so a front end can apply it before it
    starts anything (a metrics server, say) that the refusal would leave
    running.
    """
    if checkpointing and (obs or trace or audit_every is not None):
        raise ConfigurationError(
            "obs instrumentation and checkpointing are mutually exclusive "
            "(a resumed run cannot splice per-update latency across processes)"
        )


def evaluate_methods(
    records: Sequence[Record],
    query: CorrelatedQuery,
    methods: Sequence[str] | None = None,
    num_buckets: int = 10,
    exact: Sequence[float] | None = None,
    obs: bool = False,
    batch_size: int | None = None,
    trace: bool = False,
    audit_every: int | None = None,
    audit_budget: float | None = None,
    on_instrument: InstrumentHook | None = None,
    checkpoint: CheckpointManager | None = None,
    resume: bool = False,
    **kwargs: object,
) -> dict[str, MethodResult]:
    """Replay ``records`` through several methods against the exact oracle.

    The stream is fed in chunks that end at absolute stream offsets: every
    multiple of ``batch_size`` and of the checkpoint period, and the end
    of the stream.  At each chunk end every method has consumed the same
    prefix, and ``checkpoint`` saves the methods' estimators plus their
    outputs so far on its every-N schedule, then once more at end of
    stream.  Outputs and error series do not depend on where the chunks
    are cut, so a batched, checkpointed or resumed run gives exactly the
    answers of a plain one.

    Parameters
    ----------
    records:
        The recorded stream.
    query:
        The correlated aggregate.
    methods:
        Method names (defaults to every method applicable to the query).
    num_buckets:
        Bucket budget for histogram methods.
    exact:
        Precomputed exact series (recomputed once here when omitted).
    obs:
        Attach a :class:`~repro.obs.sink.RecordingSink` per method and
        profile per-update latency; results carry the sink in ``.obs``.
        Instrumented methods run one after another, each over the whole
        stream.
    batch_size:
        Feed each method through ``update_many`` in chunks of this many
        records (at least 1; None = no batch cuts).  Under ``obs`` every
        update is still clocked one by one.
    trace:
        Give each method a :class:`~repro.obs.trace.Tracer` exporting into
        its recording sink: lifecycle spans (``kernel.*``, ``eval.replay``)
        aggregate as ``span.*.duration_ns`` histograms.  Implies ``obs``.
    audit_every:
        Wrap each method in an :class:`~repro.obs.audit.AccuracyAuditor`
        auditing every that many tuples (``audit.*`` metrics land in the
        method's registry).  Implies ``obs``.
    audit_budget:
        Relative-error budget for the auditor's breach accounting.
    on_instrument:
        Called once per method with ``(method, sink, tracer)`` right after
        construction — the seam the CLI uses to expose live registries on
        ``/metrics`` while the replay is still running.
    checkpoint:
        A :class:`~repro.checkpoint.CheckpointManager` that snapshots the
        evaluation at chunk ends.  Mutually exclusive with ``obs``,
        ``trace`` and ``audit_every``: a resumed run cannot splice
        per-update latency across processes.
    resume:
        Restore the newest intact generation of ``checkpoint`` first and
        replay only the gap ``records[offset:]``.  An empty checkpoint
        directory raises :class:`~repro.exceptions.StreamError`.
    kwargs:
        Extra configuration for focused estimators.
    """
    if not records:
        raise ConfigurationError("evaluate_methods needs a non-empty stream")
    instrumented = obs or trace or audit_every is not None
    check_checkpoint_exclusions(
        checkpoint is not None, obs=obs, trace=trace, audit_every=audit_every
    )
    if resume and checkpoint is None:
        raise ConfigurationError("resume needs a checkpoint manager")
    wanted = list(methods) if methods is not None else methods_for_query(query)
    ends = _chunk_ends(
        len(records), batch_size, checkpoint.every if checkpoint is not None else None
    )
    reference = np.asarray(
        exact if exact is not None else exact_series(records, query), dtype=np.float64
    )

    # Offline knowledge (domain/universe) is derived in ONE scan here and
    # shared, instead of once per baseline inside build_estimator.
    shared = dict(kwargs)
    offline = [m for m in wanted if m in _OFFLINE_METHODS]
    if offline:
        shared["universe"] = derive_universe(records)
        shared["domain"] = derive_domain(records)

    sinks: dict[str, RecordingSink] = {}
    outputs: dict[str, list[float]] = {}
    if instrumented:
        for method in wanted:
            sink = sinks[method] = RecordingSink()
            tracer = Tracer(sink) if trace else None
            outputs[method] = _run_one(
                records, ends, query, method, num_buckets, shared,
                sink, tracer, audit_every, audit_budget, on_instrument,
            )
            sink.registry.counter("eval.domain_scans_saved").inc(
                float(max(len(offline) - 1, 0))
            )
    else:
        if checkpoint is not None and resume:
            # No fresh fallback: an explicit resume of an empty directory is a
            # user error (wrong path), not a licence to start over silently.
            state, start = checkpoint.resume(records)
            if not isinstance(state, dict):
                raise StreamError(
                    f"checkpoint in {checkpoint.directory} does not hold a "
                    f"resumable evaluation (got {type(state).__name__})"
                )
            if list(state) != wanted:
                raise StreamError(
                    f"checkpoint in {checkpoint.directory} evaluates methods "
                    f"{list(state)}, but this run asked for {wanted}"
                )
        else:
            state = {
                method: (
                    build_estimator(
                        query, method, num_buckets=num_buckets, stream=records, **shared
                    ),
                    [],
                )
                for method in wanted
            }
            start = 0
        _feed(state, records, ends, start, checkpoint=checkpoint)
        if checkpoint is not None:
            checkpoint.save_final(state, len(records), start)
        outputs = {method: series for method, (_, series) in state.items()}

    window = query.window
    results: dict[str, MethodResult] = {}
    for method, raw in outputs.items():
        series_out = np.asarray(raw, dtype=np.float64)
        if query.is_sliding:
            assert window is not None
            series = sliding_rmse_series(series_out, reference, window)
        else:
            series = prefix_rmse_series(series_out, reference)
        results[method] = MethodResult(
            method=method,
            outputs=series_out,
            exact=reference,
            rmse_series=series,
            obs=sinks.get(method),
        )
    return results
