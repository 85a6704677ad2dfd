"""The keyed bank: one correlated aggregate per group-by key.

The paper's motivating applications keep a summary "about a large number
of customers" (telephone fraud) or per router interface (network
monitoring) — one correlated aggregate per group-by key.
:class:`GatedKeyedBank` owns that fan-out.  Following the
correlated-heavy-hitter compositions of Lahiri/Mukherjee/Tirthapura
(arXiv:1310.1161) and Epicoco/Cafaro/Pulimeno (arXiv:1611.04942), it puts
a Space-Saving admission sketch in front of the per-key estimators:

* every record of a key without an estimator first hits the
  :class:`~repro.keyed.admission.SpaceSavingAdmission` counters
  (bounded: ``sketch_capacity`` slots);
* a key whose *guaranteed* hits (the sketch's under-count) reach
  ``promote_threshold`` is **promoted**: a full estimator is built and
  the sketch-held replay buffer is fed through it — exactly (the promoted
  estimator is float-for-float the standalone one) when the sketch never
  charged the key an inherited error, with an explicit ``missed`` bound
  otherwise;
* under an optional ``memory_budget`` (bytes, measured by pickled size)
  a promotion that would overrun it first **demotes** the coldest
  promoted keys (least-recently updated) back into the sketch with their
  exactly-known lifetime counters;
* :meth:`~GatedKeyedBank.estimate` and :meth:`~GatedKeyedBank.top`
  answer for *every* key — a point value for promoted keys, and for tail
  keys a conservative point estimate with an explicit ``[low, high]``
  interval derived from the sketch's over/under-count guarantees (see
  :meth:`~GatedKeyedBank.estimate_interval`).

``GatedKeyedBank(query, promote_threshold=1)`` with no budget is the
one-estimator-per-key configuration: every key gets its estimator on
first sight, and every answer is float-for-float that of a standalone
estimator fed the key's records — the right shape up to thousands of
keys.  The default threshold with a ``memory_budget`` is the
millions-of-keys shape.

Only *online* methods are accepted (:data:`ONLINE_METHODS`, or
``equiwidth`` with an explicit ``domain``): the offline baselines need
the full stream per key up front, which contradicts lazy keying.

Lifecycle transitions emit ``keyed.promote`` / ``keyed.demote`` /
``keyed.evict`` events through the standard obs sink, and the whole bank
pickles, so it checkpoints through :class:`repro.checkpoint.
CheckpointManager` like any estimator.
"""

from __future__ import annotations

import heapq
import math
import pickle
from collections import deque
from collections.abc import Collection, Hashable, Iterable, Iterator
from dataclasses import dataclass

from repro.core.engine import FOCUSED_METHODS, build_estimator
from repro.core.query import CorrelatedQuery
from repro.exceptions import ConfigurationError
from repro.keyed.admission import SpaceSavingAdmission, Slot
from repro.obs.sink import NULL_SINK, ObsSink
from repro.streams.model import Record, StreamAlgorithm, ensure_finite

#: Methods that need no offline knowledge and can be created lazily per key.
ONLINE_METHODS = FOCUSED_METHODS + (
    "streaming-equidepth",
    "heuristic-reset",
    "heuristic-continue",
    "heuristic-running",
)

#: Updates between byte-accounting refresh passes (budgeted banks only).
_ACCOUNTING_EVERY = 4096
#: Promoted estimators re-measured per refresh pass.
_REFRESH_BATCH = 32
#: Estimators pickled per unbudgeted ``promoted_bytes`` read.
_MEMORY_SAMPLE = 8
#: Relative allowance, per consumed record, on a promoted key's answer
#: bound.  A COUNT answer counts a subset of the records an estimator
#: consumed and a SUM answer sums a subset of their ``y``, but both pass
#: through float sums, interpolation fractions and bucket splits, each
#: rounded: a wholesale-uniform COUNT answer can read a few units in the
#: last place above its record count.  2**-40 allows 8192 of them per
#: record (the unit roundoff is 2**-53).
_ROUNDOFF_PER_RECORD = 2.0**-40


def check_online_method(method: str, kwargs: dict[str, object]) -> None:
    """Reject methods that cannot be instantiated lazily per key."""
    if method not in ONLINE_METHODS and not (
        method == "equiwidth" and "domain" in kwargs
    ):
        raise ConfigurationError(
            f"keyed banks need an online method ({ONLINE_METHODS}) or "
            "equiwidth with an explicit domain=; offline baselines cannot "
            f"be created lazily per key (got {method!r})"
        )


def rank_estimates(
    items: Iterable[tuple[Hashable, float]], n: int | None = None
) -> list[tuple[Hashable, float]]:
    """Rank ``(key, estimate)`` pairs by estimate, NaN-safe and stable.

    ``sorted(..., reverse=True)`` over raw floats lets a single NaN land
    anywhere (every comparison against NaN is False, so its final position
    depends on the sort's merge order).  Here NaN estimates always sort
    *last*, in first-seen order; finite ties also keep first-seen order
    (Python's sort is stable, including under ``reverse=True``).
    """
    finite: list[tuple[Hashable, float]] = []
    nans: list[tuple[Hashable, float]] = []
    for pair in items:
        (nans if math.isnan(pair[1]) else finite).append(pair)
    finite.sort(key=lambda pair: pair[1], reverse=True)
    ranked = finite + nans
    return ranked if n is None else ranked[:n]


def escape_key_name(key: Hashable) -> str:
    """Render ``key`` for a dotted gauge name without colliding with ``.``.

    The gauge namespace uses ``.`` as its hierarchy separator, so a key
    containing one (``"a.b"``) would silently alias another key's child
    gauge.  Backslash-escape both the escape character and the separator.
    """
    return str(key).replace("\\", "\\\\").replace(".", "\\.")


def key_gauge_names(keys: Iterable[Hashable]) -> dict[Hashable, str]:
    """Deterministic, collision-free gauge names for every key.

    Distinct keys with identical renderings (``1`` and ``"1"`` both print
    as ``1``) get ``#2``, ``#3``, ... suffixes in first-seen order, so two
    keys never write the same gauge.
    """
    names: dict[Hashable, str] = {}
    used: dict[str, int] = {}
    for key in keys:
        base = escape_key_name(key)
        seen = used.get(base, 0)
        used[base] = seen + 1
        names[key] = base if seen == 0 else f"{base}#{seen + 1}"
    return names


@dataclass(frozen=True)
class KeyEstimate:
    """One key's answer with its explicit uncertainty interval.

    ``kind`` is ``"promoted"`` (own estimator; ``low == high == value``
    when the promotion replayed the key's full history), ``"sketch"``
    (monitored tail key) or ``"tail"`` (not individually tracked at all —
    bounded by the sketch's global forgotten ceiling).  Intervals box the
    uncertainty the *admission layer* introduces; the focused estimator's
    own histogram approximation is not re-counted here (a promoted key's
    interval is exactly as tight as a standalone estimator's answer).
    """

    value: float
    low: float
    high: float
    kind: str
    #: Upper bound on records of this key the answer never saw.
    missed: int = 0

    @property
    def exact_history(self) -> bool:
        """True when every record of this key reached the estimator."""
        return self.kind == "promoted" and self.missed == 0


class GatedKeyedBank:
    """Admission-gated per-key estimators with a sketch-bounded tail.

    Parameters
    ----------
    query:
        The correlated aggregate every key computes.
    method:
        An online method name (see :data:`ONLINE_METHODS`), or
        ``'equiwidth'`` together with an explicit ``domain``.
    num_buckets:
        Bucket budget per promoted key.
    sketch_capacity:
        Monitored slots in the admission sketch; memory is
        ``O(sketch_capacity * replay_buffer)`` records plus the promoted
        estimators.
    promote_threshold:
        Guaranteed (under-count) hits a key needs before it is promoted
        to a full estimator; 1 gives every key its estimator on first
        sight (one estimator per key).
    replay_buffer:
        Records buffered per monitored key for promotion replay; defaults
        to ``promote_threshold`` (enough for an exact replay of every
        error-free promotion).
    memory_budget:
        Optional cap in bytes on the pickled size of all promoted
        estimators; crossing it demotes the least-recently-updated keys.
        Must fit at least one estimator — a promotion that cannot fit
        even after demoting everything else is deferred, not crashed.
        Without a budget the update path measures nothing.
    sink:
        Optional :class:`~repro.obs.sink.ObsSink` receiving
        ``keyed.promote`` / ``keyed.demote`` / ``keyed.evict`` events.
    obs_key_detail:
        Top-K keys whose per-key gauges appear in :meth:`obs_state`
        (0 = aggregates only).
    kwargs:
        Extra estimator configuration, validated eagerly at construction
        (a typo raises here, not mid-stream at first promotion).
    """

    def __init__(
        self,
        query: CorrelatedQuery,
        method: str = "piecemeal-uniform",
        num_buckets: int = 10,
        sketch_capacity: int = 1024,
        promote_threshold: int = 32,
        replay_buffer: int | None = None,
        memory_budget: int | None = None,
        sink: ObsSink | None = None,
        obs_key_detail: int = 0,
        **kwargs: object,
    ) -> None:
        check_online_method(method, kwargs)
        if promote_threshold <= 0:
            raise ConfigurationError(
                f"promote_threshold must be positive, got {promote_threshold}"
            )
        if memory_budget is not None and memory_budget <= 0:
            raise ConfigurationError(
                f"memory_budget must be positive, got {memory_budget}"
            )
        if obs_key_detail < 0:
            raise ConfigurationError(
                f"obs_key_detail must be >= 0, got {obs_key_detail}"
            )
        if replay_buffer is None:
            replay_buffer = promote_threshold
        self._query = query
        self._method = method
        self._num_buckets = num_buckets
        self._promote_threshold = promote_threshold
        self._memory_budget = memory_budget
        self._obs = sink if sink is not None else NULL_SINK
        self._obs_key_detail = obs_key_detail
        self._kwargs = kwargs
        # Eager validation: building one estimator surfaces unknown-option
        # ConfigurationErrors (with the engine's did-you-mean hints) at
        # construction; its size seeds the byte accounting.
        probe = self._build()
        self._estimator_bytes_hint = len(
            pickle.dumps(probe, pickle.HIGHEST_PROTOCOL)
        )
        self._admission = SpaceSavingAdmission(
            sketch_capacity, buffer_limit=replay_buffer
        )
        # Per promoted key, one dict per field rather than one record
        # object: a per-key record is one more garbage-collected object
        # per key, and with one estimator per key it costs extra full
        # collection passes over the whole bank.
        self._promoted: dict[Hashable, StreamAlgorithm] = {}
        #: Records each estimator has actually consumed (replayed + routed).
        self._hits: dict[Hashable, int] = {}
        #: Sum of ``|y|`` over those records.
        self._mass: dict[Hashable, float] = {}
        #: Upper bound on pre-promotion records the estimator never saw.
        self._missed: dict[Hashable, int] = {}
        #: Budgeted banks only: bank sequence number of the last routed
        #: record (the LRU demotion order) and pickled size at last
        #: measurement.
        self._last_seq: dict[Hashable, int] = {}
        self._nbytes: dict[Hashable, int] = {}
        self._promoted_bytes = 0
        self._refresh_queue: deque[Hashable] = deque()
        self._seq = 0
        self._y_min = math.inf
        self._y_max = -math.inf
        self._promotions = 0
        self._demotions = 0
        self._evictions = 0
        self._deferred_promotions = 0

    # ----------------------------------------------------------- inventory

    @property
    def query(self) -> CorrelatedQuery:
        return self._query

    @property
    def memory_budget(self) -> int | None:
        return self._memory_budget

    @property
    def promoted_bytes(self) -> int:
        """Pickled size of all promoted estimators.

        Under a budget this is the accountant's running total (each
        promotion measured, a rotating batch re-measured every
        :data:`_ACCOUNTING_EVERY` updates).  Without one, nothing is
        measured on the update path; the figure is computed when read, by
        pickling the first :data:`_MEMORY_SAMPLE` promoted estimators
        (constant, deterministic) and scaling their mean by the promoted
        count — O(1) per read however many keys are live.
        """
        if self._memory_budget is not None:
            return self._promoted_bytes
        if not self._promoted:
            return 0
        sample = []
        for estimator in self._promoted.values():
            sample.append(len(pickle.dumps(estimator, pickle.HIGHEST_PROTOCOL)))
            if len(sample) >= _MEMORY_SAMPLE:
                break
        return round(sum(sample) / len(sample) * len(self._promoted))

    def __len__(self) -> int:
        """Individually tracked keys (promoted + monitored)."""
        return len(self._promoted) + len(self._admission)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._promoted or key in self._admission

    def keys(self) -> Iterator[Hashable]:
        """Tracked keys: promoted first, then monitored tail."""
        yield from self._promoted
        yield from self._admission.keys()

    def promoted_keys(self) -> list[Hashable]:
        """Keys currently backed by a full estimator."""
        return list(self._promoted)

    def is_promoted(self, key: Hashable) -> bool:
        """True when ``key`` is currently backed by a full estimator."""
        return key in self._promoted

    # ------------------------------------------------------------- updates

    def _build(self) -> StreamAlgorithm:
        return build_estimator(
            self._query, self._method, num_buckets=self._num_buckets, **self._kwargs
        )

    def update(self, key: Hashable, record: Record) -> float:
        """Route one record; returns the key's new (point) estimate.

        A record with a NaN or infinite attribute raises
        :class:`~repro.exceptions.StreamError` before any state changes,
        so it can neither sit in a replay buffer nor skew a key's mass.
        A promoted key's estimator makes that check itself, ahead of its
        own state; the bank checks only what goes to the tail.
        """
        if not isinstance(record, Record):
            record = Record(*record)
        estimator = self._promoted.get(key)
        if estimator is not None:
            value = estimator.update(record)
        else:
            ensure_finite(record)
        self._seq += 1
        y = record.y
        if y < self._y_min:
            self._y_min = y
        if y > self._y_max:
            self._y_max = y
        if estimator is not None:
            self._hits[key] += 1
            self._mass[key] += abs(y)
            if self._memory_budget is not None:
                self._last_seq[key] = self._seq
            if self._seq % _ACCOUNTING_EVERY == 0:
                self._refresh_accounting()
            return value
        slot = self._admission.update(key, record)
        due = slot.promote_at if slot.promote_at else self._promote_threshold
        if slot.observed >= due:
            value = self._promote(key, slot, record)
            if value is not None:
                return value
        if self._seq % _ACCOUNTING_EVERY == 0:
            self._refresh_accounting()
        return self._tail_point(slot)

    # ------------------------------------------------- promotion/demotion

    def _promote(self, key: Hashable, slot: Slot, record: Record) -> float | None:
        """Build a full estimator for ``key``, replaying its buffer.

        ``record`` is the update that triggered the promotion; when it is
        the buffer's newest record, or the buffer is empty, it is fed
        through ``update`` last, whose return value is the key's answer.
        Returns that answer, or ``None`` (and defers) when the memory
        budget cannot fit the new estimator even after demoting every
        colder key.
        """
        estimator = self._build()
        # Without a replay buffer the triggering record is the only one
        # the new estimator can see (an empty one has no answer to give).
        buffer = slot.buffer or [record]
        replayed = len(buffer)
        if replayed and buffer[-1] is record:
            if replayed > 1:
                estimator.update_many(buffer[:-1], collect="none")
            value = estimator.update(record)
        else:
            if replayed:
                estimator.update_many(buffer, collect="none")
            value = estimator.estimate()  # type: ignore[attr-defined]
        missed = slot.count - replayed
        if self._memory_budget is not None:
            nbytes = len(pickle.dumps(estimator, pickle.HIGHEST_PROTOCOL))
            while (
                self._promoted_bytes + nbytes > self._memory_budget
                and self._promoted
            ):
                self._demote_coldest()
            if self._promoted_bytes + nbytes > self._memory_budget:
                # Even an empty bank cannot fit it: defer, try again after
                # another threshold's worth of guaranteed hits.
                slot.promote_at = slot.observed + self._promote_threshold
                self._deferred_promotions += 1
                return None
            self._promoted_bytes += nbytes
            self._nbytes[key] = nbytes
            self._last_seq[key] = self._seq
            self._refresh_queue.append(key)
        else:
            nbytes = 0  # nothing is measured without a budget
        self._admission.remove(key)
        # Missing only the inherited error, the buffer holds every observed
        # record: their |y| sum is the slot's mass, accumulated in arrival
        # order as the promoted path goes on accumulating it.
        if missed == slot.error:
            mass = slot.mass
        else:
            mass = math.fsum(abs(r.y) for r in buffer)
        self._promoted[key] = estimator
        self._hits[key] = replayed
        self._mass[key] = mass
        self._missed[key] = missed
        self._promotions += 1
        if self._obs.enabled:
            self._obs.emit(
                "keyed.promote",
                key=str(key),
                replayed=float(replayed),
                missed=float(missed),
                exact=float(missed == 0),
                bytes=float(nbytes),
            )
        return value

    def _demote_coldest(self) -> None:
        """Demote the least-recently-updated promoted key into the sketch."""
        self._demote(min(self._promoted, key=self._last_seq.__getitem__))

    def _drop(self, key: Hashable) -> tuple[int, float, int, int]:
        """Remove a promoted key's estimator and bookkeeping.

        Returns its ``(hits, mass, missed, nbytes)``; the bytes leave the
        budget's running total.
        """
        del self._promoted[key]
        self._last_seq.pop(key, None)
        nbytes = self._nbytes.pop(key, 0)
        self._promoted_bytes -= nbytes
        return self._hits.pop(key), self._mass.pop(key), self._missed.pop(key), nbytes

    def _demote(self, key: Hashable) -> None:
        hits, mass, missed, nbytes = self._drop(key)
        self._admission.reinsert(
            key,
            hits=hits,
            mass=mass,
            missed=missed,
            promote_at=hits + self._promote_threshold,
        )
        self._demotions += 1
        if self._obs.enabled:
            self._obs.emit(
                "keyed.demote",
                key=str(key),
                updates=float(hits),
                bytes=float(nbytes),
            )

    def demote(self, key: Hashable) -> bool:
        """Demote one promoted key back into the sketch (manual override)."""
        if key not in self._promoted:
            return False
        self._demote(key)
        return True

    def evict(self, key: Hashable) -> bool:
        """Forget ``key`` entirely; returns False if it was not tracked.

        The key's count upper bound is folded into the sketch's forgotten
        ceiling so tail intervals stay sound if it reappears, and a
        ``keyed.evict`` event records the dropped state.
        """
        if key in self._promoted:
            updates, _, missed, _ = self._drop(key)
            self._admission.raise_ceiling(updates + missed)
        else:
            slot = self._admission.remove(key, forget=True)
            if slot is None:
                return False
            updates = slot.observed
        self._evictions += 1
        if self._obs.enabled:
            self._obs.emit("keyed.evict", key=str(key), updates=float(updates))
        return True

    def _refresh_accounting(self) -> None:
        """Re-measure a rotating batch of promoted estimators.

        Focused estimators have (near-)bounded state, but warmup buffers
        and GK summaries do grow; the rotation keeps ``promoted_bytes``
        honest without pickling the whole bank on any single update.
        Growth discovered here re-applies the budget.  Without a budget
        there is nothing to account.
        """
        if self._memory_budget is None:
            return
        queue = self._refresh_queue
        for _ in range(min(_REFRESH_BATCH, len(queue))):
            key = queue.popleft()
            estimator = self._promoted.get(key)
            if estimator is None:  # demoted/evicted since queued
                continue
            nbytes = len(pickle.dumps(estimator, pickle.HIGHEST_PROTOCOL))
            self._promoted_bytes += nbytes - self._nbytes[key]
            self._nbytes[key] = nbytes
            queue.append(key)
        while self._promoted_bytes > self._memory_budget and len(self._promoted) > 1:
            self._demote_coldest()

    # ------------------------------------------------------------- answers

    def _y_range(self) -> tuple[float, float]:
        low = min(self._y_min, 0.0) if math.isfinite(self._y_min) else 0.0
        high = max(self._y_max, 0.0) if math.isfinite(self._y_max) else 0.0
        return low, high

    def _tail_highs(self, slots: Collection[Slot]) -> list[float]:
        """Each slot's interval ``high``, which is also its point answer.

        Space-Saving convention: a tail key answers its upper bound (the
        slot count over-estimates, never under-estimates), so a heavy key
        that has not been promoted yet still ranks high.
        """
        dependent = self._query.dependent
        if dependent == "count":
            return [float(slot.count) for slot in slots]
        if dependent == "sum":
            return [slot.mass + slot.mass_error for slot in slots]
        # avg of a qualifying subset lies within the global y range
        return [self._y_range()[1]] * len(slots)

    def _tail_point(self, slot: Slot) -> float:
        """Conservative point estimate for a monitored tail key."""
        return self._tail_highs((slot,))[0]

    def _tail_estimate(self, slot: Slot | None) -> KeyEstimate:
        if slot is None:
            # An untracked key is a slot that observed nothing and may have
            # missed up to the forgotten ceiling.
            admission = self._admission
            ceiling = admission.ceiling
            slot = Slot(ceiling, ceiling, 0.0, ceiling * admission.max_abs_y)
            kind = "tail"
        else:
            kind = "sketch"
        high = self._tail_point(slot)
        dependent = self._query.dependent
        if dependent == "count":
            low = 0.0
        elif dependent == "sum":
            low = -high if self._y_range()[0] < 0.0 else 0.0
        else:
            low = self._y_range()[0]
        return KeyEstimate(value=high, low=low, high=high, kind=kind, missed=slot.error)

    def estimate(self, key: Hashable) -> float:
        """Point estimate for *any* key (promoted, monitored, or tail)."""
        return self.estimate_interval(key).value

    def estimate_interval(self, key: Hashable) -> KeyEstimate:
        """Answer with an explicit error interval for *any* key.

        Promoted keys answer their estimator's value; with an exact
        replay history the interval collapses to a point.  A promoted key
        whose replay was bounded (``missed > 0``) widens to the same
        sketch-derived box a tail key gets — the unseen records could
        have shifted the focus region arbitrarily, so only the counting
        bounds are defensible.  Monitored tail keys answer the sketch's
        over-count with ``[low, high]`` from its guarantees; untracked
        keys are bounded by the forgotten ceiling (exactly ``[0, 0]``
        while the sketch never displaced anything).
        """
        estimator = self._promoted.get(key)
        if estimator is not None:
            value = estimator.estimate()  # type: ignore[attr-defined]
            missed = self._missed[key]
            if missed == 0:
                return KeyEstimate(value, value, value, "promoted", missed=0)
            dependent = self._query.dependent
            if dependent == "count":
                low, high = 0.0, float(self._hits[key] + missed)
            elif dependent == "sum":
                mass_high = self._mass[key] + missed * self._admission.max_abs_y
                y_low, _ = self._y_range()
                low = -mass_high if y_low < 0.0 else 0.0
                high = mass_high
            else:
                low, high = self._y_range()
            return KeyEstimate(value, low, high, "promoted", missed=missed)
        return self._tail_estimate(self._admission.slot(key))

    def estimates(self) -> dict[Hashable, float]:
        """Point estimates for every individually tracked key."""
        values = {
            key: estimator.estimate()  # type: ignore[attr-defined]
            for key, estimator in self._promoted.items()
        }
        slots = self._admission.slots()
        values.update(zip(slots, self._tail_highs(slots.values())))
        return values

    def _answer_bounds(self) -> dict[Hashable, float] | None:
        """An upper bound on each promoted key's answer, in promoted order.

        COUNT answers count, and SUM answers sum, a subset of the records
        the key's estimator consumed: at most ``_hits`` or ``_mass``
        (``sum |y|``), plus the rounding allowance.  AVG answers have no
        such bound (``None``).
        """
        dependent = self._query.dependent
        if dependent == "count":
            totals = self._hits
        elif dependent == "sum":
            totals = self._mass
        else:
            return None
        hits = self._hits
        return {
            key: totals[key] * (1.0 + hits[key] * _ROUNDOFF_PER_RECORD)
            for key in self._promoted
        }

    def top(self, n: int = 10) -> list[tuple[Hashable, float]]:
        """The ``n`` tracked keys with the largest (point) estimates.

        Promoted keys rank by their estimator's answer, tail keys by the
        sketch's conservative upper bound — so a heavy key that has not
        crossed the promotion threshold yet still surfaces.  NaN estimates
        (an extrema estimator whose focus emptied, say) rank last, in
        first-seen order; fewer than ``n`` tracked keys returns them all.
        The result equals ``rank_estimates(self.estimates().items(), n)``.

        COUNT and SUM dependents rank by a threshold scan.  Promoted keys
        are asked for their answer in descending order of
        :meth:`_answer_bounds`, stopping once the n-th largest finite
        answer so far is strictly greater than the next bound (an equal
        answer from a key seen earlier would outrank it).  One pass over
        the slot values then keeps only tail keys that still reach the
        n-th answer, and the survivors are ranked in first-seen order.
        AVG dependents have no monotone bound and rank every key.
        """
        if n <= 0:
            raise ConfigurationError(f"n must be positive, got {n}")
        bounds = self._answer_bounds()
        if bounds is None:
            return rank_estimates(self.estimates().items(), n)
        promoted = self._promoted
        best: list[float] = []  # min-heap: the n largest finite answers so far
        answers: dict[Hashable, float] = {}
        for key in sorted(bounds, key=bounds.__getitem__, reverse=True):
            if len(best) == n and best[0] > bounds[key]:
                break
            value = answers[key] = promoted[key].estimate()  # type: ignore[attr-defined]
            if math.isnan(value):
                continue
            if len(best) < n:
                heapq.heappush(best, value)
            elif value > best[0]:
                heapq.heapreplace(best, value)
        candidates = [(key, answers[key]) for key in promoted if key in answers]
        # A full heap holds n answers of keys seen before this tail key, so
        # a tail value equal to the n-th answer already ranks below n keys.
        floor = best[0] if len(best) == n else -math.inf
        slots = self._admission.slots()
        for key, value in zip(slots, self._tail_highs(slots.values())):
            if value > floor:
                candidates.append((key, value))
                if len(best) < n:
                    heapq.heappush(best, value)
                else:
                    heapq.heapreplace(best, value)
                if len(best) == n:
                    floor = best[0]
        return rank_estimates(candidates, n)

    # ------------------------------------------------------ observability

    def obs_state(self) -> dict[str, float]:
        """Aggregate gauges; per-key detail is opt-in and capped at top-K."""
        gauges: dict[str, float] = {
            "keys": float(len(self)),
            "promoted": float(len(self._promoted)),
            "promoted_bytes": float(self.promoted_bytes),
            "promotions": float(self._promotions),
            "demotions": float(self._demotions),
            "evictions": float(self._evictions),
            "deferred_promotions": float(self._deferred_promotions),
            "updates": float(self._seq),
            "estimator_bytes_hint": float(self._estimator_bytes_hint),
        }
        if self._memory_budget is not None:
            gauges["memory_budget"] = float(self._memory_budget)
        for name, value in self._admission.obs_state().items():
            gauges[f"sketch.{name}"] = value
        if self._obs_key_detail:
            names = key_gauge_names(self.keys())
            for key, value in self.top(self._obs_key_detail):
                answer = self.estimate_interval(key)
                prefix = f"key.{names[key]}"
                gauges[f"{prefix}.estimate"] = value
                gauges[f"{prefix}.low"] = answer.low
                gauges[f"{prefix}.high"] = answer.high
                gauges[f"{prefix}.promoted"] = float(answer.kind == "promoted")
        return gauges
