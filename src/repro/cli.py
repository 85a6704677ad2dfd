"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``methods``
    List every estimation method with a one-line description.
``datasets``
    List the built-in data sets.
``experiments``
    List the paper-figure experiment registry.
``run <ID>``
    Replay one paper figure (e.g. ``run F4 --size 2000``) and print its
    accuracy tables; add ``--metrics`` for a per-method instrumentation
    table (reallocation counts, per-update latency percentiles).
``stats <ID>``
    Replay one paper figure with full instrumentation and print every
    metric per method — as a table, JSON, or Prometheus text exposition
    (``--format``).
``estimate``
    Run one ad hoc correlated aggregate over a built-in data set and
    compare a method against the exact oracle, e.g.::

        python -m repro estimate --dataset USAGE --independent min \\
            --epsilon 99 --method piecemeal-uniform --size 5000

    or directly in the paper's notation::

        python -m repro estimate --query "COUNT{y: x > AVG(x)} OVER SLIDING(500)"
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.core.engine import METHODS, build_estimator, methods_for_query
from repro.core.exact import exact_series, exact_time_series
from repro.exceptions import ConfigurationError
from repro.core.parser import parse_query
from repro.core.query import CorrelatedQuery
from repro.datasets.registry import dataset_names, load_dataset
from repro.eval.experiments import EXPERIMENTS, run_experiment
from repro.eval.metrics import prefix_rmse_series, sliding_rmse_series
from repro.eval.report import (
    format_experiment_result,
    format_obs_table,
    format_rmse_series_table,
    format_table,
    format_tracking_table,
)
from repro.eval.tracker import check_checkpoint_exclusions
from repro.exceptions import ReproError
from repro.obs.exposition import (
    format_metrics_table,
    render_json,
    render_many_prometheus,
)
from repro.obs.sink import RecordingSink

METRICS_FORMATS = ("table", "json", "prometheus")

_METHOD_BLURBS = {
    "wholesale-uniform": "focused histogram, full re-partition, equal widths",
    "wholesale-quantile": "focused histogram, full re-partition, quantile buckets",
    "piecemeal-uniform": "focused histogram, boundary-only moves (paper's choice)",
    "piecemeal-quantile": "focused histogram, boundary-only moves, quantile buckets",
    "equiwidth": "whole-domain equiwidth baseline (a-priori domain)",
    "equidepth": "offline 'true' equidepth baseline (unfair, per the paper)",
    "streaming-equidepth": "feasible GK-quantile equidepth (footnote 5 baseline)",
    "heuristic-reset": "memoryless lower bound (extrema)",
    "heuristic-continue": "memoryless upper bound (extrema)",
    "heuristic-running": "memoryless running-mean heuristic (AVG)",
    "exact": "unbounded-state oracle (ground truth)",
}


def _cmd_methods(_: argparse.Namespace) -> int:
    rows = [[name, _METHOD_BLURBS.get(name, "")] for name in METHODS]
    print(format_table(["method", "description"], rows))
    return 0


def _cmd_datasets(_: argparse.Namespace) -> int:
    rows = []
    for name in dataset_names():
        records = load_dataset(name, size=64)
        xs = [r.x for r in records]
        rows.append([name, f"{min(xs):.4g}", f"{max(xs):.4g}"])
    print(format_table(["dataset", "x min (64-sample)", "x max (64-sample)"], rows))
    return 0


def _cmd_experiments(_: argparse.Namespace) -> int:
    rows = [
        [spec.experiment_id, spec.figure, spec.description]
        for spec in EXPERIMENTS.values()
    ]
    print(format_table(["id", "figure", "description"], rows))
    return 0


def _render_panel_metrics(panel_result, fmt: str) -> str:
    """All metric registries of one panel, in the requested exposition."""
    labelled = [
        ({"dataset": panel_result.panel.dataset, "method": name}, result.obs.registry)
        for name, result in panel_result.results.items()
        if result.obs is not None
    ]
    if fmt == "prometheus":
        return render_many_prometheus(labelled)
    if fmt == "json":
        import json

        return json.dumps(
            {
                labels["method"]: registry.as_dict()
                for labels, registry in labelled
            },
            indent=2,
            sort_keys=True,
        )
    sections = []
    for labels, registry in labelled:
        sections.append(f"-- {labels['method']} --\n{format_metrics_table(registry)}")
    return "\n\n".join(sections)


def _serve_context(args: argparse.Namespace):
    """Build the live hub/server for ``--serve-metrics`` (None when off).

    Returns ``(server, attach)`` where ``attach(labels, sink, tracer)``
    registers live instrumentation on the hub.  The serve line is printed
    (and flushed) before returning so a scraper can find the bound port
    while the stream is still running.
    """
    if args.serve_metrics is None:
        return None, None
    from repro.obs.http import LiveExportHub, MetricsServer

    hub = LiveExportHub()
    server = MetricsServer(hub, port=args.serve_metrics)
    port = server.start()
    print(f"serving metrics on http://127.0.0.1:{port}/metrics", flush=True)
    return server, hub.attach


def _check_shard_exclusions(args: argparse.Namespace, checkpointing: bool = False) -> None:
    """The flag combinations sharding cannot honour, with explicit reasons."""
    if checkpointing:
        raise ConfigurationError(
            "--shards and --resume-from/--checkpoint-every are mutually "
            "exclusive (checkpointing is per-coordinator: worker state "
            "lives in other processes; see docs/PARALLEL.md)"
        )
    if args.serve_metrics is not None or args.audit_every is not None or (
        args.audit_budget is not None
    ):
        raise ConfigurationError(
            "--shards and --serve-metrics/--audit-every are mutually "
            "exclusive (per-update auditing needs the single-process "
            "update sequence)"
        )
    if getattr(args, "time_window", None) is not None:
        raise ConfigurationError(
            "--shards and --time-window are mutually exclusive (a time "
            "window is a sliding scope, which partitioning destroys)"
        )


def _cmd_run(args: argparse.Namespace) -> int:
    methods = args.methods.split(",") if args.methods else None
    checkpointing = args.checkpoint_every is not None or args.resume_from is not None
    if args.shards is not None:
        _check_shard_exclusions(args, checkpointing)
        return _run_sharded(args, methods)
    serving = args.serve_metrics is not None
    audit_every = args.audit_every
    if serving and audit_every is None:
        audit_every = 100  # live scrapes should always carry audit gauges
    check_checkpoint_exclusions(
        checkpointing, obs=args.metrics, trace=serving, audit_every=audit_every
    )
    extra: dict[str, object] = {}
    if checkpointing:
        directory = args.resume_from or args.checkpoint_dir
        if directory is None:
            raise ConfigurationError("--checkpoint-every needs --checkpoint-dir")
        if args.checkpoint_dir is not None and args.resume_from is not None and (
            args.checkpoint_dir != args.resume_from
        ):
            raise ConfigurationError(
                "--checkpoint-dir and --resume-from must name the same directory"
            )
        extra = {
            "checkpoint_dir": directory,
            "checkpoint_every": args.checkpoint_every,
            "resume": args.resume_from is not None,
        }
    server, attach = _serve_context(args)
    on_instrument = None
    if attach is not None:
        def on_instrument(method, sink, tracer):
            attach(
                {"experiment": args.experiment, "method": method},
                sink=sink,
                tracer=tracer,
            )
    try:
        panels = run_experiment(
            args.experiment,
            size=args.size,
            methods=methods,
            num_buckets=args.buckets,
            obs=args.metrics,
            trace=serving,
            audit_every=audit_every,
            audit_budget=args.audit_budget,
            on_instrument=on_instrument,
            batch_size=args.batch_size,
            **extra,
        )
    finally:
        if server is not None:
            server.stop()
    spec = EXPERIMENTS[args.experiment]
    print(f"{spec.figure}: {spec.description}\n")
    for panel_result in panels:
        panel = panel_result.panel
        title = f"[{panel.dataset}] {panel.query.describe()} (order={panel.ordering})"
        print(format_experiment_result(title, panel_result.results))
        print()
        print(format_rmse_series_table(panel_result.results, checkpoints=args.checkpoints))
        print()
        if args.metrics:
            if args.metrics_format == "table":
                print(format_obs_table(panel_result.results))
            else:
                print(_render_panel_metrics(panel_result, args.metrics_format))
            print()
    return 0


def _run_sharded(args: argparse.Namespace, methods: list[str] | None) -> int:
    """``run --shards N``: replay each landmark panel through ShardedIngestor."""
    import time

    from repro.core.engine import FOCUSED_METHODS
    from repro.parallel import ShardedIngestor

    spec = EXPERIMENTS[args.experiment]
    chosen = methods or [m for m in spec.methods() if m in FOCUSED_METHODS]
    print(f"{spec.figure}: {spec.description}")
    print(f"sharded: {args.shards} workers, {args.partition} partitioning\n")
    for panel in spec.panels:
        title = f"[{panel.dataset}] {panel.query.describe()} (order={panel.ordering})"
        if panel.query.is_sliding:
            print(f"{title}: skipped (sliding windows are not shardable)\n")
            continue
        records = panel.load(size=args.size)
        exact_final = exact_series(records, panel.query)[-1]
        rows = []
        for method in chosen:
            started = time.perf_counter()
            shard_kwargs = {}
            if args.batch_size is not None:
                shard_kwargs["chunk_size"] = args.batch_size
            with ShardedIngestor(
                panel.query,
                method,
                num_buckets=args.buckets or spec.num_buckets,
                shards=args.shards,
                partition=args.partition,
                **shard_kwargs,
            ) as ingestor:
                ingestor.ingest(records)
                estimate = ingestor.query()
            elapsed = time.perf_counter() - started
            bound = ingestor.merge_error_bound()
            relative = abs(estimate - exact_final) / max(abs(exact_final), 1e-12)
            rows.append(
                [
                    method,
                    f"{estimate:.6g}",
                    f"{exact_final:.6g}",
                    f"{relative:.4f}",
                    "n/a" if bound is None else f"{bound:.4g}",
                    f"{len(records) / max(elapsed, 1e-9):,.0f}",
                ]
            )
        print(title)
        print(
            format_table(
                ["method", "merged", "exact final", "rel err", "merge bound", "tuples/s"],
                rows,
            )
        )
        print()
    return 0


def _estimate_sharded(args: argparse.Namespace, query, records, method: str) -> int:
    """``estimate --shards N``: sharded ingest, merged answer vs the oracle."""
    import time

    from repro.parallel import ShardedIngestor

    sink = RecordingSink() if args.metrics else None
    shard_kwargs = {}
    if args.batch_size is not None:
        shard_kwargs["chunk_size"] = args.batch_size
    started = time.perf_counter()
    with ShardedIngestor(
        query,
        method,
        num_buckets=args.buckets,
        shards=args.shards,
        partition=args.partition,
        sink=sink,
        **shard_kwargs,
    ) as ingestor:
        ingestor.ingest(records)
        merged = ingestor.merged_estimator()
        state = ingestor.obs_state()
    elapsed = time.perf_counter() - started
    estimate = merged.estimate()
    exact_final = exact_series(records, query)[-1]
    bound = ingestor.merge_error_bound()

    print(f"query  : {query.describe()}")
    print(f"stream : {args.dataset}, {len(records)} tuples")
    print(f"sharded: {args.shards} workers, {args.partition} partitioning\n")
    print(f"method : {method} (m={args.buckets})")
    print(f"merged estimate : {estimate:.6g}")
    print(f"exact answer    : {exact_final:.6g}")
    relative = abs(estimate - exact_final) / max(abs(exact_final), 1e-12)
    print(f"relative error  : {relative:.4f}")
    if bound is not None:
        print(f"merge bound     : {bound:.4g} (re-poured mass, conservative)")
    per_shard = [
        int(state[key])
        for key in sorted(k for k in state if k.startswith("shard."))
    ]
    print(f"per-shard records: {per_shard}")
    print(f"throughput      : {len(records) / max(elapsed, 1e-9):,.0f} tuples/s "
          f"(ingest+merge wall {elapsed:.3f}s)")
    if sink is not None:
        print()
        print(format_metrics_table(sink.registry))
    return 0


def _cmd_keyed(args: argparse.Namespace) -> int:
    """``keyed``: drive a zipf-keyed stream through a GatedKeyedBank."""
    import time

    from repro.datasets.zipf import zipf_keys
    from repro.keyed import GatedKeyedBank

    if args.query:
        query = parse_query(args.query)
    else:
        query = CorrelatedQuery(
            dependent=args.dependent, independent=args.independent, epsilon=args.epsilon
        )
    records = load_dataset(args.dataset, size=args.size)
    keys = zipf_keys(
        len(records), args.keys, exponent=args.key_skew, seed=args.key_seed
    )
    method = args.method or "piecemeal-uniform"
    sink = RecordingSink() if args.metrics else None
    bank = GatedKeyedBank(
        query,
        method,
        num_buckets=args.buckets,
        sketch_capacity=args.sketch_capacity,
        promote_threshold=args.promote_after,
        memory_budget=args.budget_kb * 1024 if args.budget_kb else None,
        sink=sink,
    )
    update = bank.update
    started = time.perf_counter()
    for key, record in zip(keys.tolist(), records):
        update(key, record)
    elapsed = time.perf_counter() - started

    state = bank.obs_state()
    print(f"query  : {query.describe()}")
    print(
        f"stream : {args.dataset}, {len(records)} tuples over {args.keys} "
        f"zipf({args.key_skew:g}) keys"
    )
    print(f"method : {method} (m={args.buckets})")
    budget = "none" if not args.budget_kb else f"{args.budget_kb} KiB"
    print(
        f"bank   : sketch {args.sketch_capacity} slots, promote after "
        f"{args.promote_after}, budget {budget}\n"
    )
    rows = []
    for key, value in bank.top(args.top):
        answer = bank.estimate_interval(key)
        rows.append(
            [
                str(key),
                f"{value:.6g}",
                f"[{answer.low:.6g}, {answer.high:.6g}]",
                answer.kind + ("" if answer.missed == 0 else f" (missed<={answer.missed})"),
            ]
        )
    print(format_table(["key", "estimate", "interval", "kind"], rows))
    print()
    print(
        f"promoted {int(state['promoted'])} of {int(state['keys'])} tracked keys "
        f"({int(state['promotions'])} promotions, {int(state['demotions'])} "
        f"demotions, {int(state['sketch.replacements'])} sketch replacements)"
    )
    print(
        f"promoted bytes  : {int(state['promoted_bytes']):,}"
        + (
            f" / {int(state['memory_budget']):,} budget"
            if "memory_budget" in state
            else ""
        )
    )
    print(f"throughput      : {len(records) / max(elapsed, 1e-9):,.0f} tuples/s")
    if sink is not None:
        print()
        print(format_metrics_table(sink.registry))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    methods = args.methods.split(",") if args.methods else None
    panels = run_experiment(
        args.experiment,
        size=args.size,
        methods=methods,
        num_buckets=args.buckets,
        obs=True,
    )
    spec = EXPERIMENTS[args.experiment]
    if args.format == "table":
        print(f"{spec.figure}: {spec.description}\n")
    for panel_result in panels:
        if args.format == "table":
            panel = panel_result.panel
            print(f"[{panel.dataset}] {panel.query.describe()} (order={panel.ordering})")
            print(format_obs_table(panel_result.results))
            print()
        print(_render_panel_metrics(panel_result, args.format))
        print()
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    if args.query:
        query = parse_query(args.query)
    else:
        query = CorrelatedQuery(
            dependent=args.dependent,
            independent=args.independent,
            epsilon=args.epsilon,
            window=args.window,
            two_sided=args.two_sided,
        )
    records = load_dataset(args.dataset, size=args.size)
    method = args.method or methods_for_query(query)[2]  # piecemeal-uniform
    if args.shards is not None:
        _check_shard_exclusions(args)
        return _estimate_sharded(args, query, records, method)
    serving = args.serve_metrics is not None
    audit_every = args.audit_every
    if serving and audit_every is None:
        audit_every = 100  # live scrapes should always carry audit gauges
    if args.time_window is not None and (serving or audit_every is not None):
        raise ConfigurationError(
            "--serve-metrics/--audit-every audit update(record) and cannot "
            "wrap a --time-window estimator's (time, record) contract"
        )
    sink = RecordingSink() if (args.metrics or serving) else None

    from repro.eval.tracker import MethodResult, run_method

    if args.time_window is not None:
        # Time-based scope: the built-in data sets carry no timestamps, so
        # tuples arrive at unit spacing (tuple i at time i) — a duration
        # of w then behaves like, and is checked against, the exact
        # trailing-(t-w, t] window.
        estimator = build_estimator(
            query, method, num_buckets=args.buckets,
            time_window=args.time_window, sink=sink,
        )
        times = [float(i) for i in range(1, len(records) + 1)]
        xs = [r.x for r in records]
        ys = [r.y for r in records]
        step = args.batch_size or max(len(records), 1)
        outputs = []
        for lo in range(0, len(records), step):
            outputs += estimator.update_columns(
                xs[lo : lo + step], ys[lo : lo + step], times=times[lo : lo + step]
            )
        exact = exact_time_series(list(zip(times, records)), query, args.time_window)
    else:
        server, attach = _serve_context(args)
        tracer = None
        if serving:
            from repro.obs.trace import Tracer

            tracer = Tracer(sink)
            assert attach is not None
            attach(
                {"dataset": args.dataset, "method": method}, sink=sink, tracer=tracer
            )
        try:
            outputs = run_method(
                records, query, method, num_buckets=args.buckets, sink=sink,
                batch_size=args.batch_size, tracer=tracer,
                audit_every=audit_every, audit_budget=args.audit_budget,
            )
        finally:
            if server is not None:
                server.stop()
        exact = exact_series(records, query)

    import numpy as np

    out_arr = np.asarray(outputs)
    exact_arr = np.asarray(exact)
    if query.is_sliding:
        series = sliding_rmse_series(out_arr, exact_arr, query.window)  # type: ignore[arg-type]
    else:
        series = prefix_rmse_series(out_arr, exact_arr)
    result = MethodResult(method, out_arr, exact_arr, series, obs=sink)

    print(f"query  : {query.describe()}")
    print(f"stream : {args.dataset}, {len(records)} tuples")
    if args.time_window is not None:
        print(f"scope  : time window, trailing {args.time_window:g} (unit spacing)")
    print(f"method : {method} (m={args.buckets})\n")
    print(format_tracking_table({method: result}, checkpoints=args.checkpoints))
    print(f"\nfinal RMSE_n: {result.final_rmse:.3f}")
    if sink is not None:
        print()
        if args.metrics_format == "json":
            print(render_json(sink.registry, extra={"method": method}))
        elif args.metrics_format == "prometheus":
            print(
                render_many_prometheus([({"method": method}, sink.registry)]),
                end="",
            )
        else:
            print(format_obs_table({method: result}))
            print()
            print(format_metrics_table(sink.registry))
    return 0


def _add_shard_flags(sub: argparse.ArgumentParser) -> None:
    """The sharded-ingestion flags shared by ``run`` and ``estimate``."""
    sub.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="partition the stream across N worker processes and merge "
        "per-shard summaries at query time (landmark queries, focused "
        "methods only)",
    )
    # Deliberately not argparse choices: the library validates with a
    # did-you-mean ConfigurationError, same as every other option.
    sub.add_argument(
        "--partition",
        default="round-robin",
        metavar="POLICY",
        help="shard assignment policy: round-robin (default), hash, range",
    )


def _add_serve_flags(sub: argparse.ArgumentParser) -> None:
    """The flight-recorder flags shared by ``run`` and ``estimate``."""
    sub.add_argument(
        "--serve-metrics",
        type=int,
        default=None,
        dest="serve_metrics",
        metavar="PORT",
        help="serve /metrics, /healthz and /spans on this port while the "
        "stream runs (0 = OS-assigned; enables tracing and a default "
        "audit period of 100)",
    )
    sub.add_argument(
        "--audit-every",
        type=int,
        default=None,
        dest="audit_every",
        metavar="N",
        help="audit the estimator against an exact shadow every N tuples "
        "(publishes audit.* gauges)",
    )
    sub.add_argument(
        "--audit-budget",
        type=float,
        default=None,
        dest="audit_budget",
        metavar="ERR",
        help="relative-error budget; crossing it counts a breach and emits "
        "an audit.error_budget event",
    )


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Correlated aggregates over continual data streams (SIGMOD 2001).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("methods", help="list estimation methods").set_defaults(
        handler=_cmd_methods
    )
    sub.add_parser("datasets", help="list built-in data sets").set_defaults(
        handler=_cmd_datasets
    )
    sub.add_parser("experiments", help="list paper-figure experiments").set_defaults(
        handler=_cmd_experiments
    )

    run = sub.add_parser("run", help="replay one paper figure")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run.add_argument("--size", type=int, default=None, help="truncate streams to N tuples")
    run.add_argument("--methods", default=None, help="comma-separated method subset")
    run.add_argument("--buckets", type=int, default=None, help="override bucket budget")
    run.add_argument("--checkpoints", type=int, default=10)
    run.add_argument(
        "--batch-size",
        type=int,
        default=None,
        dest="batch_size",
        help="feed estimators through the columnar batch path in chunks of "
        "N records (composes with --checkpoint-every); with --shards, sets "
        "the per-shard columnar chunk size (ignored with --metrics, which "
        "clocks individual updates)",
    )
    run.add_argument(
        "--metrics",
        action="store_true",
        help="attach instrumentation and print per-method metrics",
    )
    run.add_argument(
        "--metrics-format",
        default="table",
        choices=list(METRICS_FORMATS),
        dest="metrics_format",
    )
    run.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        dest="checkpoint_every",
        help="crash-safe mode: checkpoint each panel's state every N tuples "
        "(atomic writes under --checkpoint-dir)",
    )
    run.add_argument(
        "--checkpoint-dir",
        default=None,
        dest="checkpoint_dir",
        help="directory for checkpoint generations (required with "
        "--checkpoint-every)",
    )
    run.add_argument(
        "--resume-from",
        default=None,
        dest="resume_from",
        help="resume from the newest intact checkpoint generation in this "
        "directory and replay only the gap",
    )
    _add_serve_flags(run)
    _add_shard_flags(run)
    run.set_defaults(handler=_cmd_run)

    stats = sub.add_parser(
        "stats", help="replay one paper figure with full instrumentation"
    )
    stats.add_argument("experiment", choices=sorted(EXPERIMENTS))
    stats.add_argument(
        "--size", type=int, default=None, help="truncate streams to N tuples"
    )
    stats.add_argument("--methods", default=None, help="comma-separated method subset")
    stats.add_argument("--buckets", type=int, default=None, help="override bucket budget")
    stats.add_argument("--format", default="table", choices=list(METRICS_FORMATS))
    stats.set_defaults(handler=_cmd_stats)

    keyed = sub.add_parser(
        "keyed",
        help="per-key correlated aggregates through a heavy-hitter-gated bank",
    )
    keyed.add_argument(
        "--query",
        default=None,
        help="paper notation (overrides --dependent/--independent/--epsilon)",
    )
    keyed.add_argument("--dataset", default="USAGE", help="USAGE/MGCTY/ZIPF/MULTIFRAC")
    keyed.add_argument("--dependent", default="count", choices=["count", "sum", "avg"])
    keyed.add_argument("--independent", default="min", choices=["min", "max", "avg"])
    keyed.add_argument("--epsilon", type=float, default=99.0)
    keyed.add_argument("--method", default=None, choices=list(METHODS))
    keyed.add_argument("--size", type=int, default=20000)
    keyed.add_argument("--buckets", type=int, default=10)
    keyed.add_argument(
        "--keys", type=int, default=1000, help="distinct group-by keys"
    )
    keyed.add_argument(
        "--key-skew",
        type=float,
        default=1.1,
        dest="key_skew",
        help="zipf exponent of the key popularity distribution",
    )
    keyed.add_argument("--key-seed", type=int, default=7, dest="key_seed")
    keyed.add_argument(
        "--sketch-capacity",
        type=int,
        default=1024,
        dest="sketch_capacity",
        help="monitored slots in the Space-Saving admission sketch",
    )
    keyed.add_argument(
        "--promote-after",
        type=int,
        default=32,
        dest="promote_after",
        help="guaranteed hits before a key gets a full estimator",
    )
    keyed.add_argument(
        "--budget-kb",
        type=int,
        default=None,
        dest="budget_kb",
        help="memory budget for promoted estimators in KiB (cold keys are "
        "demoted back into the sketch when crossed)",
    )
    keyed.add_argument("--top", type=int, default=10, help="keys to rank and print")
    keyed.add_argument(
        "--metrics",
        action="store_true",
        help="attach instrumentation and print promote/demote/evict metrics",
    )
    keyed.set_defaults(handler=_cmd_keyed)

    est = sub.add_parser("estimate", help="ad hoc query over a built-in data set")
    est.add_argument(
        "--query",
        default=None,
        help="paper notation, e.g. 'COUNT{y: x <= (1+99)*MIN(x)} OVER SLIDING(500)' "
        "(overrides the structured flags below)",
    )
    est.add_argument("--dataset", default="USAGE", help="USAGE/MGCTY/ZIPF/MULTIFRAC")
    est.add_argument("--dependent", default="count", choices=["count", "sum", "avg"])
    est.add_argument("--independent", default="min", choices=["min", "max", "avg"])
    est.add_argument("--epsilon", type=float, default=0.0)
    est.add_argument("--window", type=int, default=None)
    est.add_argument(
        "--time-window",
        type=float,
        default=None,
        dest="time_window",
        help="trailing time-window duration (tuples arrive at unit spacing; "
        "focused methods only, mutually exclusive with --window)",
    )
    est.add_argument("--two-sided", action="store_true", dest="two_sided")
    est.add_argument("--method", default=None, choices=list(METHODS))
    est.add_argument("--size", type=int, default=5000)
    est.add_argument("--buckets", type=int, default=10)
    est.add_argument("--checkpoints", type=int, default=10)
    est.add_argument(
        "--batch-size",
        type=int,
        default=None,
        dest="batch_size",
        help="feed the estimator through the columnar batch path in chunks "
        "of N records; with --shards, sets the per-shard columnar chunk "
        "size (ignored with --metrics, which clocks individual updates)",
    )
    est.add_argument(
        "--metrics",
        action="store_true",
        help="attach instrumentation and print the method's metrics",
    )
    est.add_argument(
        "--metrics-format",
        default="table",
        choices=list(METRICS_FORMATS),
        dest="metrics_format",
    )
    _add_serve_flags(est)
    _add_shard_flags(est)
    est.set_defaults(handler=_cmd_estimate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        batch_size = getattr(args, "batch_size", None)
        if batch_size is not None and batch_size < 1:
            raise ConfigurationError(f"--batch-size must be >= 1, got {batch_size}")
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like cat does.
        try:
            sys.stdout.close()
        except OSError:  # pragma: no cover - double-close race
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
