"""Benchmark-side span recording for the traced run.

Spans are opened by the benchmark around its own calls into each
``repro`` module's public functions; nothing is attached to the program
(no ``repro.obs`` sink or ``Tracer``), so a traced run executes exactly
the code path an untraced run does.  A span is one row
``[name, start_ns, end_ns, parent_index, run_id]`` kept in memory and
written out once the run ends.

A layer's self time is its spans' durations minus the part covered by
their child spans.  Spans named ``bench.*`` frame the benchmark's own
work (one per chunk); their self time is the share of the traced wall
time that no layer accounts for.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter_ns

#: Prefix of spans that frame benchmark work rather than time a layer.
BENCH_PREFIX = "bench."


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullSpans:
    """The untraced recorder: every span is one shared no-op."""

    enabled = False

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def self_times(self) -> dict[str, float]:
        return {}


class _Span:
    __slots__ = ("_spans", "_name", "_index")

    def __init__(self, spans: "SpanRecorder", name: str) -> None:
        self._spans = spans
        self._name = name
        self._index = -1

    def __enter__(self) -> None:
        spans = self._spans
        stack = spans.stack
        self._index = len(spans.rows)
        parent = stack[-1] if stack else -1
        spans.rows.append([self._name, perf_counter_ns(), 0, parent, spans.run_id])
        stack.append(self._index)

    def __exit__(self, *exc_info: object) -> None:
        spans = self._spans
        spans.rows[self._index][2] = perf_counter_ns()
        spans.stack.pop()


class SpanRecorder:
    """In-memory span rows for one traced phase."""

    enabled = True

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.rows: list[list] = []
        self.stack: list[int] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        covered = [0] * len(self.rows)
        for _, start, end, parent, _ in self.rows:
            if parent >= 0:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), children in zip(self.rows, covered):
            totals[name] += (end - start - children) / 1e9
        return dict(totals)

    def layer_seconds(self) -> float:
        """Self time of every span that is not ``bench.*`` framing."""
        return sum(
            seconds
            for name, seconds in self.self_times().items()
            if not name.startswith(BENCH_PREFIX)
        )
