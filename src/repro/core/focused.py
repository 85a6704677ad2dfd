"""The shared kernel behind every focused-histogram estimator.

The paper's four focused methods differ in threshold policy (extrema vs.
average), scope (landmark, count-sliding, time-sliding), reallocation
strategy, and partitioning policy — but they all run the same lifecycle:

.. code-block:: text

    update(record)
      ensure_finite
      _ingest(record)                 # moments / trackers / window push
      warming up?  ──yes──> _warmup_step(record)
         │                     └─ enough tuples? _build_histogram()
         │                           _build_interval() -> _build_edges()
         │                           emit hist.build
         │                           _seed_histogram()
         no
         └──> _step(record, carrier)
                 _target_interval()              # where should the focus be?
                 _should_reallocate(lo, hi)?     # is the drift material?
                    └─ _reallocate(lo, hi)       # the one reallocation step
                         _focus_region() -> _regime_break()?
                         emit region.shift (drift from _drift())
                         span kernel.reallocate:
                           regime break? _restart()   # rebuild, re-init, or decline
                           else wholesale (_wholesale_partition) / piecemeal
                           _spill(new buckets, spill) # tails, catch-all, or discard
                 _route_add(record)              # tails vs. fine buckets
      return estimate()

:class:`FocusedEstimatorBase` owns that skeleton — warmup buffering,
histogram build/rebuild, reallocation scheduling, quantile merge/split
maintenance, obs event emission, ``obs_state()``/``estimate_bounds()``
plumbing, the kernel hand-off inside the shared batch loop, and the one
columnar segment loop (trace → cut → scatter → boundary step,
:meth:`FocusedEstimatorBase._steady_columns`) — while
the five estimator subclasses override only the small policy hooks where
they genuinely differ (``_target_interval``, ``_route_add``/``_route_remove``,
``_should_reallocate``, partitioning sources, the regime test, restart
and spill of a reallocation, and the ``_column_*`` trace producer and
routing rules of a columnar kernel).  Adding a new scope or
threshold policy is one subclass, not a sixth parallel module.

Two mixins capture the recurring summary shapes:

* :class:`TwoTailSummaryMixin` — the three-region summary (coarse left
  tail, fine focus buckets, coarse right tail) used by the AVG estimators
  and the time-sliding estimator, including the two-tail spill hook
  and the band-mass answer path.
* :class:`RingWindowMixin` — the sliding window, counted or timed: a
  :class:`~repro.structures.column_ring.ColumnRing` of ``(x, y, side)``
  rows whose side code routes expiry to the account the mass was
  credited to, plus the expire → retarget → place step, the warmup
  answer and the from-window rebuild over the ring.

Every method here is float-for-float identical to the five pre-refactor
modules; ``tests/core/test_kernel_parity.py`` replays golden fixtures
recorded before the merge and fails on any drift, down to the last bit.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.core.query import CorrelatedQuery
from repro.exceptions import ConfigurationError, StreamError
from repro.histograms.bucket import ZERO_MASS, BucketArray, Mass
from repro.histograms.maintenance import merge_split_swap
from repro.histograms.mass import band_bounds, band_mass, pour_uniform, span_is_exact
from repro.histograms.partition import uniform_boundaries
from repro.histograms.reallocate import (
    POLICIES,
    piecemeal_reallocate,
    wholesale_reallocate,
)
from repro.obs.sink import NULL_SINK, ObsSink
from repro.obs.trace import NULL_TRACER, Tracer
from repro.streams.columns import records_to_columns
from repro.streams.model import BatchedIngest, Record, ensure_finite
from repro.structures.column_ring import ColumnRing

STRATEGIES = ("wholesale", "piecemeal")

#: Side codes: the account :meth:`FocusedEstimatorBase._route_add` credited
#: a record to, as a sliding window stores it (one byte per row) — the fine
#: buckets, the extrema catch-all, the left or the right AVG tail.
INNER, TAIL, LEFT, RIGHT = 0, 1, 2, 3
#: Event label of each side code (``window.expire`` events carry it).
SIDE_NAMES = "ITLR"

#: Columnar chunks are sliced to this many records before hitting a family
#: kernel, bounding the O(chunk) staging arrays (and the O(chunk * m)
#: per-record output matrices of ``collect="all"``) on huge batches.
COLUMN_CHUNK = 16_384

#: The columnar boundary scan tests a family's trigger mask this many
#: records at a time, so a trigger-dense stream stays O(n) overall.
SCAN_BLOCK = 1024


def bucket_index(edges, values):
    """Fine-bucket index of each value: :meth:`BucketArray.locate` for
    values inside the histogram range, clamped to the end buckets (as
    :meth:`BucketArray.remove` clamps) outside it."""
    clamped = np.minimum(np.maximum(values, edges[0]), edges[-1])
    idx = edges.searchsorted(clamped, side="right") - 1
    return np.minimum(idx, len(edges) - 2, out=idx)


def pull_share(tail: Mass, inner: BucketArray, lo: float, hi: float, span: float) -> Mass:
    """The focus grew over ``[lo, hi]`` into a tail spanning ``span``: pour
    the tail's pro-rata share uniformly into ``inner``; return the rest."""
    fraction = 1.0 if span <= 0.0 else min((hi - lo) / span, 1.0)
    share = tail.scaled(fraction)
    pour_uniform(inner, lo, hi, share)
    return tail - share


class FocusedEstimatorBase(BatchedIngest):
    """Template-method kernel for focused-histogram estimators.

    Subclasses configure the skeleton through class attributes and
    override the policy hooks; they must call :meth:`_init_kernel` from
    ``__init__`` (keeping an explicit keyword signature — the engine
    introspects it to filter cross-method option sweeps).
    """

    #: Buckets reserved outside the focus region (2 tails, 1 catch-all, 0).
    _reserved = 0
    #: Smallest legal bucket budget, and the hint shown when violated.
    _min_buckets = 2
    _min_buckets_hint = ""
    #: Quantile-policy merge/split maintenance on insert (off for time windows).
    _swap_enabled = True
    #: Whether obs_state() reports a warmup_buffer gauge.
    _warmup_gauge = True

    # ------------------------------------------------------- construction

    def _init_kernel(
        self,
        query: CorrelatedQuery,
        num_buckets: int,
        strategy: str,
        policy: str,
        swap_period: int,
        sink: ObsSink | None,
        tracer: Tracer | None = None,
    ) -> None:
        """Validate and install the state every focused estimator shares."""
        if num_buckets < self._min_buckets:
            raise ConfigurationError(
                f"num_buckets must be >= {self._min_buckets}"
                f"{self._min_buckets_hint}, got {num_buckets}"
            )
        if strategy not in STRATEGIES:
            raise ConfigurationError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
        if policy not in POLICIES:
            raise ConfigurationError(f"policy must be one of {POLICIES}, got {policy!r}")
        self._query = query
        self._m = num_buckets
        self._inner_m = num_buckets - self._reserved
        self._strategy = strategy
        self._policy = policy
        self._swap_period = swap_period
        self._obs = sink if sink is not None else NULL_SINK
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._buffer: list[Record] | None = []
        self._inner: BucketArray | None = None
        self._adds_since_swap = 0
        self._steps_since_rebuild = 0
        # Count/weight mass whose placement relied on the uniformity
        # assumption during summary merges (MergeableSummary accounting).
        self._merge_slack = ZERO_MASS

    # ----------------------------------------------------------- plumbing

    @property
    def query(self) -> CorrelatedQuery:
        return self._query

    @property
    def focus_interval(self) -> tuple[float, float]:
        """Current focus region ``[lo, hi]`` (the finely bucketed span)."""
        if self._inner is None:
            raise StreamError("focus_interval before the histogram was initialised")
        return (self._inner.low, self._inner.high)

    @property
    def histogram(self) -> BucketArray | None:
        """The fine buckets over the focus region (None while warming up)."""
        return self._inner

    # ------------------------------------------------------- policy hooks

    def _independent_value(self) -> float:
        """The current independent aggregate (exact or tracked)."""
        raise NotImplementedError

    def _target_interval(self) -> tuple[float, float]:
        """Where the focus region should sit right now."""
        raise NotImplementedError

    def _route_add(self, x: float, y: float) -> int:
        """Credit one record to the summary; return its side code."""
        raise NotImplementedError

    def _route_remove(self, x: float, y: float, side: int) -> None:
        """Debit one expiring record from the side it was credited to."""
        raise NotImplementedError

    def _should_reallocate(self, lo: float, hi: float) -> bool:
        """Deadband gate: is the focus drift material enough to move buckets?

        The default gates both boundaries on ``drift_tolerance`` focus
        bucket widths — the region drifts a little at every step, and
        reallocating each move would re-interpolate all focus mass
        thousands of times (wholesale especially diffuses under repeated
        redistribution).
        """
        assert self._inner is not None
        bucket_width = (self._inner.high - self._inner.low) / self._inner_m
        tolerance = self._drift_tolerance * bucket_width
        return (
            abs(lo - self._inner.low) > tolerance or abs(hi - self._inner.high) > tolerance
        )

    def _ingest(self, record: Record) -> object:
        """Pre-step bookkeeping (moments, trackers, window push).

        Runs during warmup too; whatever it returns is handed to
        :meth:`_step` as the carrier (e.g. the row a window push evicted).
        """
        return None

    # -------------------------------------------------------------- steps

    def update(self, record: Record) -> float:
        """Consume the next tuple; return the current estimate."""
        self._absorb(record)
        if self._tracer.enabled:  # per-tuple edge: guard before span setup
            with self._tracer.span("kernel.answer"):
                return self.estimate()
        return self.estimate()

    def _absorb(self, record: Record) -> None:
        """:meth:`update` without the answer: ingest one tuple only.

        The batched paths use it when ``collect`` says per-record
        estimates are not wanted, and the columnar kernels use it to
        run one boundary record (a reallocation trigger, a region
        shift, a rebuild, a non-finite input) through the real scalar
        machinery between vectorised segments.
        """
        ensure_finite(record)
        carrier = self._ingest(record)
        if self._buffer is not None:
            self._warmup_step(record)
        else:
            self._step(record, carrier)

    def _warmup_step(self, record: Record) -> None:
        """Buffer exactly until ``m`` tuples justify a partitioning."""
        assert self._buffer is not None
        self._buffer.append(record)
        if len(self._buffer) >= self._m:
            self._build_histogram()

    def _step(self, record: Record, carrier: object) -> None:
        """One steady-state step: retarget, maybe move buckets, place."""
        lo, hi = self._target_interval()
        if self._should_reallocate(lo, hi):
            self._reallocate(lo, hi)
        self._route_add(record.x, record.y)

    # ------------------------------------------------------ build/rebuild

    def _build_histogram(self) -> None:
        """End warmup: partition the focus region and seed it."""
        with self._tracer.span("kernel.build", buckets=float(self._inner_m)):
            lo, hi = self._build_interval()
            self._inner = BucketArray(self._build_edges(lo, hi))
            if self._obs.enabled:
                self._obs.emit(
                    "hist.build", buckets=float(self._inner_m), low=lo, high=hi
                )
            self._seed_histogram()
            self._buffer = None

    def _build_interval(self) -> tuple[float, float]:
        return self._target_interval()

    def _build_edges(self, lo: float, hi: float) -> list[float]:
        """Bucket boundaries for the first build (defaults to _partition)."""
        return self._partition(lo, hi)

    def _partition(self, lo: float, hi: float) -> list[float]:
        if self._policy == "uniform":
            return uniform_boundaries(lo, hi, self._inner_m)
        return self._quantile_edges(lo, hi)

    def _quantile_edges(self, lo: float, hi: float) -> list[float]:
        """Quantile-policy boundaries (fitted normal or observed values)."""
        raise NotImplementedError

    def _seed_histogram(self) -> None:
        """Replay the warmup population into the fresh histogram."""
        assert self._buffer is not None
        for record in self._buffer:
            self._route_add(record.x, record.y)

    # -------------------------------------------------------- reallocation

    def _reallocate(self, lo: float, hi: float) -> None:
        """Move the focus buckets onto ``[lo, hi]`` (paper Figure 3).

        The one reallocation step of every family: test for a regime
        break, restart if the family can, else reallocate wholesale or
        piecemeal and hand the spilled mass to the family's accounts.
        """
        old_lo, old_hi = self._focus_region()
        regime = self._regime_break(lo, hi, old_lo, old_hi)
        if self._obs.enabled:
            self._obs.emit(
                "region.shift",
                drift=self._drift(lo, hi, old_lo, old_hi),
                low=lo,
                high=hi,
                disjoint=float(regime),
            )
        with self._tracer.span("kernel.reallocate", low=lo, high=hi):
            if regime and self._restart(lo, hi):
                return
            assert self._inner is not None
            if self._strategy == "wholesale" or regime:
                # A regime break the family cannot restart from takes the
                # wholesale path: redistribution handles non-overlapping
                # ranges (all old mass spills), piecemeal truncation cannot.
                policy, explicit = self._wholesale_partition(lo, hi)
                new_inner, spill_low, spill_high = wholesale_reallocate(
                    self._inner, lo, hi, self._inner_m, policy, edges=explicit, sink=self._obs
                )
            else:
                new_inner, spill_low, spill_high = piecemeal_reallocate(
                    self._inner, lo, hi, self._inner_m, self._policy, sink=self._obs
                )
            self._spill(new_inner, spill_low, spill_high, (lo, hi), (old_lo, old_hi))
            self._inner = new_inner

    def _focus_region(self) -> tuple[float, float]:
        """The region a reallocation moves away from."""
        assert self._inner is not None
        return (self._inner.low, self._inner.high)

    def _regime_break(self, lo: float, hi: float, old_lo: float, old_hi: float) -> bool:
        """Did the focus jump past its old position (or explode in width)?

        Default: near-disjoint — overlap at most a quarter of the union.
        """
        overlap = min(hi, old_hi) - max(lo, old_lo)
        union = max(hi, old_hi) - min(lo, old_lo)
        return overlap <= 0.25 * union

    def _drift(self, lo: float, hi: float, old_lo: float, old_hi: float) -> float:
        """``region.shift`` drift: how far the focus boundaries moved in total."""
        return abs(lo - old_lo) + abs(hi - old_hi)

    def _restart(self, lo: float, hi: float) -> bool:
        """Regime break: restart the summary over ``[lo, hi]``, or return
        False to decline and take the wholesale path."""
        raise NotImplementedError

    def _wholesale_partition(self, lo: float, hi: float) -> tuple[str, list[float] | None]:
        """(policy, explicit edges) handed to wholesale_reallocate."""
        return (self._policy, None)

    def _spill(
        self,
        new_inner: BucketArray,
        spill_low: Mass,
        spill_high: Mass,
        region: tuple[float, float],
        old_region: tuple[float, float],
    ) -> None:
        """Credit the mass reallocation moved out of the focus region.

        Default: discard it (landmark extrema — by monotonicity it can
        never qualify again).
        """

    # ------------------------------------------------- quantile maintenance

    def _after_add(self) -> None:
        """Quantile-policy merge/split swap, every ``swap_period`` inserts."""
        if not self._swap_enabled or self._policy != "quantile":
            return
        self._adds_since_swap += 1
        if self._adds_since_swap >= self._swap_period:
            self._adds_since_swap = 0
            assert self._inner is not None
            merge_split_swap(self._inner, sink=self._obs)

    def _swap_cut(self, adds) -> int:
        """Columnar twin of :meth:`_after_add`: where the next swap falls.

        ``adds`` is a steady segment's boolean mask of the records that
        reach the fine buckets (each one an ``_after_add``).  Returns the
        offset of the record whose add runs the swap countdown out — a
        boundary the kernel steps through the scalar machinery, so the
        swap happens at exactly the scalar record — or ``len(adds)`` when
        the countdown outlasts the segment (always, off the quantile
        policy).
        """
        if not self._swap_enabled or self._policy != "quantile":
            return len(adds)
        due = self._swap_period - self._adds_since_swap
        hits = np.flatnonzero(adds)
        return int(hits[due - 1]) if len(hits) >= due else len(adds)

    def _count_adds(self, adds: int) -> None:
        """Advance the swap countdown past a vectorised prefix of ``adds``
        fine-bucket inserts, none of which reaches the swap."""
        if self._swap_enabled and self._policy == "quantile":
            self._adds_since_swap += adds

    # ---------------------------------------------------- batched ingestion

    def _feed_rows(self, rows, times, outputs: list[float], collect: str) -> None:
        """The kernel's hand-off inside :class:`BatchedIngest`'s batch loop.

        Without a family kernel for this configuration (the family's own
        gates decide, and none of them change mid-stream), every row takes
        the scalar loop.  With one, warmup rows step through the scalar
        path one by one and the rest reach :meth:`_steady_columns` as x/y
        columns in ``COLUMN_CHUNK`` slices.  Columns are staged only for the slices
        of a record list, and boundary records read the caller's rows.
        ``collect="all"`` output is exactly ``[self.update(r) for r in
        rows]``; the parity suites enforce it.
        """
        if not self._columns_supported(collect):
            super()._feed_rows(rows, times, outputs, collect)
            return
        n = len(rows)
        i = 0
        while i < n and self._buffer is not None:
            if collect == "all":
                outputs.append(self.update(rows[i]))
            else:
                self._absorb(rows[i])
            i += 1
        for lo in range(i, n, COLUMN_CHUNK):
            chunk = rows[lo : lo + COLUMN_CHUNK] if lo or n > COLUMN_CHUNK else rows
            xs, ys = records_to_columns(chunk)
            self._steady_columns(xs, ys, chunk.__getitem__, outputs, collect)

    def _columns_supported(self, collect: str) -> bool:
        """Whether :meth:`_steady_columns` can take this batch's chunks.

        Families with a trace producer override this with their own
        gates (tracing constraints, supported ``collect`` modes) —
        configuration only, never stream state, so one answer holds for
        a whole batch.  The base class has no trace producer, so the
        answer is no.
        """
        return False

    def _steady_columns(
        self,
        xs,
        ys,
        record_at,
        outputs: list[float],
        collect: str,
    ) -> None:
        """Vectorised steady-state ingestion of one column chunk.

        Only reachable when :meth:`_columns_supported` returned True for
        ``collect``.  ``xs``/``ys`` are equal-length float64 arrays of
        steady-state tuples; ``record_at(j)`` lazily materialises tuple
        ``j`` as a :class:`Record` for the boundary records that step
        through the scalar machinery.  With ``collect="all"`` one estimate
        per tuple is appended to ``outputs``, bit-identical to the scalar
        loop.

        The one segment loop behind every family kernel:

        1. *trace* — the family's producer (:meth:`_column_trace`) replays
           the per-record statistics the scalar steps would compute.  The
           chunk's *limit* is its first non-finite row, or an earlier
           record the trace shows the scalar step rejecting;
        2. *cut* — a segment ends at the earliest of the limit, the
           family's static horizon (:meth:`_column_horizon`), the first
           record its trigger mask flags (:meth:`_column_triggers`,
           scanned ``SCAN_BLOCK`` records at a time) and the record that
           runs the quantile swap countdown out (:meth:`_swap_cut` over
           the fine-add mask of :meth:`_column_route`);
        3. *scatter* — the segment's evictions (:meth:`_column_evict`)
           and adds go, interleaved removal first, through one unbuffered
           ``np.add.at`` over a combined accounts array: the fine
           buckets, the family's coarse accounts (:attr:`_column_coarse`)
           and a scratch slot at index -1 for no-op removals.
           ``np.add.at`` applies its operands one by one in argument
           order, so every account sees the scalar loop's sequence of
           float additions;
        4. *boundary* — the record that ended the segment steps through
           :meth:`_column_step` (by default: sync the trace, then the
           real scalar step), so reallocations, swaps, events, spans and
           errors happen exactly where the scalar loop has them.

        A trigger stays valid until it is stepped: the records cut
        earlier (swaps, which move only interior edges) leave the focus
        region alone, so the mask is rescanned only after a trigger.
        """
        n = len(xs)
        bad = ~(np.isfinite(xs) & np.isfinite(ys))
        trace, limit = self._column_trace(xs, ys, int(np.argmax(bad)) if bad.any() else n)
        pos = 0
        trigger = -1
        while pos < n:
            if trigger < pos:
                trigger = stop = self._column_horizon(pos, limit)
                for block in range(pos, stop, SCAN_BLOCK):
                    hits = self._column_triggers(trace, block, min(block + SCAN_BLOCK, stop))
                    if hits.any():
                        trigger = block + int(np.argmax(hits))
                        break
            boundary = trigger
            if trigger > pos:
                fine, coarse = self._column_route(xs[pos:trigger])
                boundary = pos + self._swap_cut(fine)
            if boundary > pos:
                self._scatter_segment(trace, xs, ys, pos, boundary, fine, coarse, outputs, collect)
            if boundary == n:
                break
            if boundary == limit:
                # A non-finite input, or a record the trace shows the
                # scalar step rejecting: sync everything and let that
                # step raise its error with the scalar state.
                self._sync_trace(trace, limit)
                self._absorb(record_at(limit))
            else:
                self._column_step(trace, boundary, record_at, outputs, collect)
            pos = boundary + 1
        self._sync_trace(trace, n)

    def _scatter_segment(
        self, trace, xs, ys, pos, end, fine, coarse, outputs: list[float], collect: str
    ) -> None:
        """Step 3 of :meth:`_steady_columns`: apply records ``[pos, end)``.

        ``fine`` and ``coarse`` are routed from ``pos`` on and may run
        past ``end``.
        """
        inner = self._inner
        assert inner is not None
        edges = np.asarray(inner.edges)
        m = len(edges) - 1
        fine = fine[: end - pos]
        if isinstance(coarse, np.ndarray):
            coarse = coarse[: end - pos]
        sx = xs[pos:end]
        ops_w = ys[pos:end]
        if coarse is None:  # the family discards what misses the fine buckets
            sx = sx[fine]
            ops_w = ops_w[fine]
            ops = bucket_index(edges, sx)
        else:
            ops = np.where(fine, bucket_index(edges, sx), coarse)
        ops_c = 1.0
        stride = 1
        removals = self._column_evict(trace, pos, end, fine, edges)
        if removals is not None:
            stride = 2
            ops = np.column_stack((removals[0], ops)).ravel()
            ops_c = np.full((len(sx), 2), (-1.0, 1.0)).ravel()
            ops_w = np.column_stack((removals[1], ops_w)).ravel()
        counts, weights = inner.mass_columns()
        masses = self._column_coarse
        acc_c = np.array([*counts, *(mass.count for mass in masses), 0.0])
        acc_w = np.array([*weights, *(mass.weight for mass in masses), 0.0])
        if collect == "all":
            # Per-record answers re-run the scalar loop's exact float sums:
            # one cumulative series per account (a sequential cumsum down
            # the operations), read after each record's add.
            hot = (ops % len(acc_c))[:, None] == np.arange(len(acc_c))
            unit = ops_c if stride == 1 else ops_c[:, None]
            series_c = np.concatenate((acc_c[None], np.where(hot, unit, 0.0))).cumsum(0)
            series_w = np.concatenate((acc_w[None], np.where(hot, ops_w[:, None], 0.0))).cumsum(0)
            rows = fine.cumsum() if coarse is None else np.arange(1, end - pos + 1)
            outputs.extend(self._column_answers(series_c[rows * stride], series_w[rows * stride]))
            acc_c = series_c[-1]
            acc_w = series_w[-1]
        else:
            np.add.at(acc_c, ops, ops_c)
            np.add.at(acc_w, ops, ops_w)
        inner.set_mass_columns(acc_c[:m].tolist(), acc_w[:m].tolist())
        if masses:
            self._column_coarse = [
                Mass(c, w) for c, w in zip(acc_c[m:-1].tolist(), acc_w[m:-1].tolist())
            ]
        self._count_adds(int(np.count_nonzero(fine)))

    # ------------------------------------------------ columnar family hooks
    #
    # What each family's kernel really differs in.  ``trace`` is whatever
    # the family's producer returns; only its own hooks read it.

    def _column_trace(self, xs, ys, limit: int) -> tuple[object, int]:
        """Trace producer: replay the chunk's per-record statistics.

        Returns ``(trace, limit)``; the family may pull ``limit`` (the
        first non-finite row, or ``len(xs)``) earlier to the first record
        whose scalar step the trace shows raising.
        """
        raise NotImplementedError

    def _column_horizon(self, pos: int, limit: int) -> int:
        """Furthest record a segment starting at ``pos`` may reach
        whatever the data (a periodic countdown), capped at ``limit``."""
        return limit

    def _column_triggers(self, trace, lo: int, hi: int):
        """Boolean mask over chunk records ``[lo, hi)`` whose scalar step
        moves the focus region (or fails), given the current region."""
        raise NotImplementedError

    def _column_route(self, sx):
        """Routing rule for segment values ``sx`` under the current region.

        Returns ``(fine, coarse)``: the mask of values that reach the fine
        buckets, and for the others the accounts-array index they are
        credited to (``m + i`` for coarse account ``i``), or ``None`` when
        the family discards them.
        """
        raise NotImplementedError

    #: The family's coarse accounts, in accounts-array order after the
    #: fine buckets (a property where the family has any).
    _column_coarse: tuple[Mass, ...] = ()

    def _column_evict(self, trace, lo: int, hi: int, fine, edges):
        """Removals the window applies before each add of records ``[lo, hi)``.

        ``None`` for scopes that never evict; otherwise ``(index, weight)``
        arrays with one unit-count removal per record — index -1, the
        scratch slot, where the record evicts nothing.  Windowed families
        also do their per-segment bookkeeping here.
        """
        return None

    def _sync_trace(self, trace, upto: int) -> None:
        """Load the live statistics the scalar loop holds after ``upto``
        chunk records from the trace (nothing to do by default)."""

    def _column_step(self, trace, t: int, record_at, outputs: list[float], collect: str) -> None:
        """Step boundary record ``t`` through the real scalar machinery."""
        self._sync_trace(trace, t)
        record = record_at(t)
        if collect == "all":
            outputs.append(self.update(record))
        else:
            self._absorb(record)

    def _column_answers(self, series_c, series_w):
        """Per-record answers from cumulative account series (one row per
        record after its add); only families that take ``collect="all"``
        provide it."""
        raise NotImplementedError

    # ------------------------------------------------------------ merging

    def merge_from(self, other: "FocusedEstimatorBase") -> None:
        """Absorb ``other``'s summary so this estimator answers for both streams.

        The MergeableSummary entry point used by the sharded-ingestion
        coordinator: both estimators must be the same class over equal
        queries, built over *disjoint* substreams.  Dispatch:

        * ``other`` still warming up — its buffer holds its whole retained
          population, so replaying it through :meth:`update` is exact;
        * ``self`` warming, ``other`` steady — adopt a deep copy of
          ``other``'s summary state and replay our own buffered tuples
          into it (exact; the adopted copy keeps ``other``'s strategy/
          policy options);
        * both steady — the subclass :meth:`_merge_steady` hook combines
          the summaries, accumulating uniformity slack into
          :meth:`merge_error_bound`.

        Sliding-scope estimators are not mergeable (partitioning a stream
        across shards destroys the arrival order a window is defined
        over) and raise :class:`~repro.exceptions.ConfigurationError`.
        """
        if self._timestamped or getattr(other, "_timestamped", False):
            raise ConfigurationError(
                "time-sliding estimators are not mergeable: the window is "
                "defined over a single arrival order"
            )
        if type(other) is not type(self):
            raise ConfigurationError(
                f"cannot merge {type(self).__name__} with {type(other).__name__}"
            )
        if other._query != self._query:
            raise ConfigurationError(
                "cannot merge estimators over different queries: "
                f"{self._query.describe()!r} vs {other._query.describe()!r}"
            )
        with self._tracer.span("kernel.merge"):
            if other._buffer is not None:
                for record in other._buffer:
                    self.update(record)
                self._merge_slack += other._merge_slack
            elif self._buffer is not None:
                pending = list(self._buffer)
                adopted = copy.deepcopy(other)
                for name, value in adopted.__dict__.items():
                    if name not in ("_obs", "_tracer"):
                        setattr(self, name, value)
                for record in pending:
                    self.update(record)
            else:
                self._merge_steady(other)
        if self._obs.enabled:
            self._obs.emit(
                "summary.merge",
                slack_count=self._merge_slack.count,
                slack_weight=self._merge_slack.weight,
            )

    def _merge_steady(self, other: "FocusedEstimatorBase") -> None:
        """Combine two steady-state summaries (subclass hook)."""
        raise ConfigurationError(
            f"{type(self).__name__} summaries are not mergeable"
        )

    def merge_error_bound(self) -> float:
        """Mass placed under the uniformity assumption across all merges.

        In output units: qualifying count for COUNT dependents, qualifying
        weight for SUM.  Zero for an estimator that was never merged (or
        whose merges happened to land every span at tuple resolution).
        AVG dependents are rejected — a ratio of bounds does not bound a
        ratio, mirroring :meth:`estimate_bounds`.
        """
        if self._query.dependent == "avg":
            raise ConfigurationError(
                "merge_error_bound is undefined for AVG dependents "
                "(a ratio of bounds does not bound a ratio)"
            )
        if self._query.dependent == "count":
            return self._merge_slack.count
        return self._merge_slack.weight

    # ------------------------------------------------------------- answers

    def estimate(self) -> float:
        """Current value of the output sequence ``S_out[i]``."""
        raise NotImplementedError

    def _estimate_warmup(self) -> float:
        """Exact answer from the warmup buffer (the paper's early regime)."""
        assert self._buffer is not None
        independent = self._independent_value()
        qualifying = [r for r in self._buffer if self._query.qualifies(r.x, independent)]
        count = float(len(qualifying))
        weight = sum((r.y for r in qualifying), 0.0)
        return self._query.value_from(count, weight)

    def estimate_bounds(self) -> tuple[float, float]:
        """Lower/upper bounds instead of the interpolated point estimate.

        Implements the paper's bound-reporting remark (Section 3.1):
        partially-overlapped buckets are discarded (lower) or counted
        whole (upper).  Defined for COUNT and SUM dependents (a ratio of
        bounds does not bound a ratio, so AVG dependents are rejected).
        Sliding scopes additionally inherit the deletion-approximation
        error, so the bounds bracket the *summary's* mass there.
        """
        if self._query.dependent == "avg":
            raise ConfigurationError("estimate_bounds is undefined for AVG dependents")
        if self._inner is None:
            value = self.estimate()  # warm-up answers are exact
            return (value, value)
        return self._bounds_from_summary()

    def _bounds_from_summary(self) -> tuple[float, float]:
        raise NotImplementedError

    # -------------------------------------------------------- observability

    def obs_state(self) -> dict[str, float]:
        """Live state-size gauges for the instrumentation layer."""
        state = {
            "buckets": float(self._inner.num_buckets) if self._inner is not None else 0.0,
        }
        state.update(self._extra_gauges())
        if self._warmup_gauge:
            state["warmup_buffer"] = (
                float(len(self._buffer)) if self._buffer is not None else 0.0
            )
        return state

    def _extra_gauges(self) -> dict[str, float]:
        return {}


class TwoTailSummaryMixin:
    """Three-region summary: coarse left tail + fine buckets + coarse right tail.

    The paper's bucket list ``(min, lo, ..., hi, max)`` for AVG thresholds
    (and the time-sliding estimator): two of the ``m`` buckets are scalar
    tail masses with exact span endpoints, and mass crossing the focus
    boundary is exchanged with them pro-rata under the same uniformity
    assumption used everywhere else.  Provides routing, the spill hook
    that pours reallocation spill into the tails, and the band-mass
    answer path.

    Hosts must provide ``_span()`` (the tail spans' outer endpoints) and
    ``_independent_value()``.
    """

    _reserved = 2
    _min_buckets = 4
    _min_buckets_hint = " (2 tails + >= 2 focus)"

    def _init_two_tails(self) -> None:
        self._left_tail = ZERO_MASS
        self._right_tail = ZERO_MASS

    def _span(self) -> tuple[float, float]:
        """Outer endpoints ``(xmin, xmax)`` the tails stretch to."""
        raise NotImplementedError

    # -------------------------------------------------------- mass routing

    def _classify(self, x: float) -> int:
        assert self._inner is not None
        if x < self._inner.low:
            return LEFT
        if x > self._inner.high:
            return RIGHT
        return INNER

    def _route_add(self, x: float, y: float) -> int:
        assert self._inner is not None
        side = self._classify(x)
        if side == LEFT:
            self._left_tail += Mass(1.0, y)
        elif side == RIGHT:
            self._right_tail += Mass(1.0, y)
        else:
            self._inner.add(x, y)
            self._after_add()
        return side

    def _route_remove(self, x: float, y: float, side: int) -> None:
        """Expire a record from the account its mass was credited to."""
        assert self._inner is not None
        if side == LEFT:
            self._left_tail = Mass(self._left_tail.count - 1.0, self._left_tail.weight - y)
        elif side == RIGHT:
            self._right_tail = Mass(self._right_tail.count - 1.0, self._right_tail.weight - y)
        else:
            self._inner.remove(x, y)

    def _reset_tails(self) -> None:
        self._left_tail = ZERO_MASS
        self._right_tail = ZERO_MASS

    # -------------------------------------------------------- reallocation

    def _wholesale_partition(self, lo: float, hi: float) -> tuple[str, list[float] | None]:
        # The AVG estimators partition by the fitted normal (the paper's
        # strategy 2): under the quantile policy they pass explicit edges
        # and tell wholesale to treat them as given.
        explicit = self._partition(lo, hi) if self._policy == "quantile" else None
        return ("uniform", explicit)

    def _spill(self, new_inner, spill_low: Mass, spill_high: Mass, region, old_region) -> None:
        # Spill joins the tail on its side; where the focus grew into a
        # tail, the tail's pro-rata share moves inside.
        (lo, hi), (old_lo, old_hi) = region, old_region
        xmin, xmax = self._span()
        self._left_tail += spill_low
        self._right_tail += spill_high
        if lo < old_lo:  # left tail covers [xmin, old_lo]
            self._left_tail = pull_share(self._left_tail, new_inner, lo, old_lo, old_lo - xmin)
        if hi > old_hi:  # right tail covers [old_hi, xmax]
            self._right_tail = pull_share(self._right_tail, new_inner, old_hi, hi, xmax - old_hi)

    # ------------------------------------------------------------ merging

    def _merge_pour(self, lo: float, hi: float, mass: Mass, coarse: bool = False) -> Mass:
        """Split a foreign span's mass across the three regions pro-rata.

        The merge primitive for two-tail summaries: ``mass`` summarises
        tuples spread over ``[lo, hi]`` in another estimator; its overlap
        with each of our regions receives the matching share (local
        uniformity), with the inner share poured across the fine buckets.

        Returns the slack — ``ZERO_MASS`` when the placement loses no
        resolution (a point mass; a span inside a single fine bucket; or,
        for ``coarse`` sources that were already scalar tail mass, a span
        landing whole inside one of our tails), else the whole ``mass``.
        Fine-bucket mass poured into a tail *is* slack: its position
        coarsens, and a later reallocation can only pull it back out
        under the uniformity assumption.
        """
        assert self._inner is not None
        if mass.count == 0.0 and mass.weight == 0.0:
            return ZERO_MASS
        ilo, ihi = self._inner.low, self._inner.high
        span = hi - lo
        if span <= 0.0:
            side = self._classify(lo)
            if side == LEFT:
                self._left_tail += mass
            elif side == RIGHT:
                self._right_tail += mass
            else:
                self._inner.add_mass(self._inner.locate(lo), mass)
            return ZERO_MASS
        left = max(0.0, min(hi, ilo) - lo) / span
        right = max(0.0, hi - max(lo, ihi)) / span
        inner_share = max(0.0, 1.0 - left - right)
        if left > 0.0:
            self._left_tail += mass.scaled(left)
        if right > 0.0:
            self._right_tail += mass.scaled(right)
        if inner_share > 0.0:
            pour_uniform(self._inner, max(lo, ilo), min(hi, ihi), mass.scaled(inner_share))
        if coarse and (left >= 1.0 or right >= 1.0):
            return ZERO_MASS
        if inner_share >= 1.0 and span_is_exact(self._inner, lo, hi):
            return ZERO_MASS
        return mass

    # --------------------------------------------------------- CLT targeting

    def _clt_interval(self, half: float) -> tuple[float, float]:
        """Focus interval ``mu ± half`` clamped to the observed span.

        Shared by the AVG estimators; ``half`` is the CLT confidence
        half-width (``k * sigma_hat / sqrt(n or w)``).
        """
        mu = self._moments.mean
        if self._query.two_sided:
            # The region of interest is the band's *edges* mu +/- eps; the
            # fine buckets must cover the whole band plus the CLT slack so
            # both truncation points interpolate fine buckets.
            half += self._query.epsilon
        xmin, xmax = self._span()
        if half <= 0.0:  # all values equal so far
            half = max(abs(mu) * 1e-9, 1e-12)
        lo = max(mu - half, xmin)
        hi = min(mu + half, xmax)
        if hi <= lo:
            # Mean pinned at the data boundary: keep a sliver around it.
            span = max((xmax - xmin) * 1e-6, abs(mu) * 1e-9, 1e-12)
            lo = max(mu - span, xmin)
            hi = lo + 2.0 * span
        return (lo, hi)

    # ------------------------------------------------------------- answers

    def _band_is_empty(self, independent: float) -> bool:
        """One-sided AVG guard: nothing strictly exceeds the mean.

        Only possible when every observed value equals it — the strict
        predicate selects nothing, which interpolation over a point mass
        cannot see.  (Tracked maxima never understate the true max.)
        """
        if self._query.independent != "avg" or self._query.two_sided:
            return False
        return self._span()[1] <= independent

    def estimate(self) -> float:
        """Estimated dependent aggregate over the qualifying band."""
        if self._inner is None:
            return self._estimate_warmup()
        independent = self._independent_value()
        if self._band_is_empty(independent):
            return 0.0
        lo, hi = self._query.band(independent)
        xmin, xmax = self._span()
        mass = band_mass(
            self._inner, self._left_tail, self._right_tail, xmin, xmax, lo, hi
        ).clamped()
        return self._query.value_from(mass.count, mass.weight)

    def _bounds_from_summary(self) -> tuple[float, float]:
        assert self._inner is not None
        independent = self._independent_value()
        if self._band_is_empty(independent):
            return (0.0, 0.0)
        lo, hi = self._query.band(independent)
        xmin, xmax = self._span()
        lower, upper = band_bounds(
            self._inner, self._left_tail, self._right_tail, xmin, xmax, lo, hi
        )
        return (
            self._query.value_from(lower.count, lower.weight),
            self._query.value_from(upper.count, upper.weight),
        )

    def _extra_gauges(self) -> dict[str, float]:
        gauges = super()._extra_gauges()
        gauges["tail_count"] = self._left_tail.count + self._right_tail.count
        return gauges


class RingWindowMixin:
    """A sliding window over a :class:`ColumnRing`, counted or clocked.

    Each row keeps the side code its record's mass went to at insertion,
    so expiry decrements the same account it credited.  Routing deletions
    by the *current* region instead would leave misclassified mass
    stranded in a tail forever (and drive the other tail negative).  The
    scalar step and the columnar kernels share the one ring: both push
    into it and expire the rows it hands back — at most one from a count
    ring, any number from a :class:`~repro.structures.column_ring.ClockedRing`.
    Hosts provide ``_push_trackers`` and ``_reset_tails``.
    """

    #: obs_state() name of the live-row gauge.
    _ring_gauge = "ring"

    def _init_ring(
        self,
        window: int,
        num_buckets: int,
        num_intervals: int,
        rebuild_period: int | None,
    ) -> None:
        if num_buckets > window:
            raise ConfigurationError(
                f"num_buckets ({num_buckets}) cannot exceed window ({window})"
            )
        if num_intervals > window:
            raise ConfigurationError(
                f"num_intervals ({num_intervals}) cannot exceed window ({window})"
            )
        if rebuild_period is None:
            rebuild_period = max(window // 10, num_buckets)
        if rebuild_period < 0:
            raise ConfigurationError(f"rebuild_period must be >= 0, got {rebuild_period}")
        self._window = window
        self._rebuild_period = rebuild_period
        self._ring = ColumnRing(window)

    def _forget(self, rows) -> None:
        """Retire expired ``(x, y, side)`` rows from any removable statistics."""

    def _ingest(self, record: Record):
        self._push_trackers(record)
        evicted = self._ring.push(record.x, record.y)
        if evicted is None:
            return ()
        rows = evicted if self._ring.clocked else (evicted,)
        self._forget(rows)
        if self._obs.enabled:
            for _, _, side in rows:
                self._obs.emit("window.expire", count=1.0, side=SIDE_NAMES[side])
        return rows

    def _step(self, record: Record, rows) -> None:
        # Expire first (side-routed, so independent of the region), then
        # move the region, then place the new arrival.  A regime-change or
        # periodic rebuild routes the new arrival itself (it is in the
        # ring) and zeroes the step count, so it is not added twice.
        for row in rows:
            self._route_remove(*row)
        lo, hi = self._target_interval()
        self._steps_since_rebuild += 1
        if self._rebuild_period and self._steps_since_rebuild >= self._rebuild_period:
            self._rebuild_from_window(lo, hi, reason="periodic")
        elif self._should_reallocate(lo, hi):
            self._reallocate(lo, hi)
        if self._steps_since_rebuild:
            self._ring.set_newest_side(self._route_add(record.x, record.y))

    def _seed_histogram(self) -> None:
        self._reseed_from_window()  # warm-up is shorter than the window

    def _restart(self, lo: float, hi: float) -> bool:
        # The sliding analogue of the paper's InitializeHistogram: rebuild
        # from the live window, since incremental spill arithmetic would
        # strand correctly classified mass on the wrong side.
        self._rebuild_from_window(lo, hi, reason="regime")
        return True

    def _rebuild_from_window(self, lo: float, hi: float, reason: str = "regime") -> None:
        """Restart the summary over ``[lo, hi]`` from the live window.

        Runs in O(w), but only on rebuild events (regime breaks and the
        periodic re-sort); the per-tuple path stays O(m).
        """
        with self._tracer.span("kernel.rebuild", reason=reason) as span:
            edges = self._rebuild_edges(lo, hi)
            scanned = self._population()
            span.set("scanned", scanned)
            if self._obs.enabled:
                self._obs.emit(
                    "hist.rebuild", reason=reason, low=lo, high=hi, scanned=scanned
                )
            self._inner = BucketArray(edges)
            self._reset_tails()
            self._steps_since_rebuild = 0
            self._reseed_from_window()

    def _rebuild_edges(self, lo: float, hi: float) -> list[float]:
        return self._partition(lo, hi)

    def _reseed_from_window(self) -> None:
        self._ring.assign_sides(self._route_add)

    def _population(self) -> float:
        return float(len(self._ring))

    def _estimate_warmup(self) -> float:
        """Exact answer over the live window (0 while it is empty)."""
        if not self._ring:
            return 0.0
        independent = self._independent_value()
        qualifies = self._query.qualifies
        weights = [y for x, y, _ in self._ring if qualifies(x, independent)]
        return self._query.value_from(float(len(weights)), sum(weights, 0.0))

    def _extra_gauges(self) -> dict[str, float]:
        gauges = super()._extra_gauges()
        gauges[self._ring_gauge] = float(len(self._ring))
        return gauges
