"""The warm placement-query plane: resident state for point queries.

The batch sweeps answer "what does every degree do to every user" by
amortising setup over thousands of evaluations; a *point* query —
"place replicas for user X at degree k", "what availability does X get
under policy P" — pays that whole setup for one answer.  A
:class:`QueryPlane` keeps the expensive context resident between
queries:

* the dataset's schedules, built once and shared by every query;
* one resident entry per user (an LRU, uncapped by default, so it
  holds at most one entry per dataset user), carrying
  - the user's :class:`IncrementalGroupEvaluator`, whose
    :class:`~repro.core.connectivity.OverlapCache` rows are exactly the
    matrices the sweeps build per user, and whose prefix memo answers a
    cold query without a walk when another policy or degree already
    evaluated the same ordered replicas;
  - per policy, a suspended selection stream
    (:meth:`~repro.core.placement.PlacementPolicy.picks` over the
    evaluator's overlap rows and a fresh ``(seed, policy, user)`` RNG)
    and the picks drawn from it so far.  Selection is incremental —
    :meth:`~repro.core.placement.PlacementPolicy.select` is the stream
    truncated to ``k`` — so the drawn picks answer every degree at or
    below their count, and a deeper degree resumes the stream where it
    stopped instead of selecting again;
* a bounded LRU of finished :class:`~repro.core.metrics.UserMetrics`,
  optionally backed by a shared :class:`~repro.cache.SweepCache` under
  the content address of :func:`~repro.cache.point_query_key` — a
  repeated query is a pure cache hit, and entries are valid across
  processes and plane instances.

Everything here changes *when* work happens, never the floats: every
query routes through :func:`~repro.core.evaluation.evaluate_single`,
which calls the same per-user kernel the batch sweeps fan out, so a
point query is bit-identical to the matching cell of a batch sweep
(property-tested in ``tests/query``).

Degraded serving (:meth:`QueryPlane.evaluate_resilient`) layers the
resilience primitives on top: per-request
:class:`~repro.resilience.Deadline` budgets checked between pipeline
stages, a fallback that recomputes a failed query from the schedules
alone without the warm state (bit-identical, so a fallback answer
differs only in latency), and stale-if-error serving of previously
stored payload blobs under the :class:`~repro.resilience.DegradationPolicy`
the plane was built with.  Every degraded answer comes back as a
:class:`~repro.resilience.DegradedResult` with an explicit flag and
reason — degraded serving is visible, never silent.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from itertools import islice
from typing import Dict, Iterator, List, Optional, Tuple

from repro.cache.keys import point_query_key
from repro.core.connectivity import OverlapCache
from repro.core.evaluation import evaluate_single
from repro.core.incremental import IncrementalGroupEvaluator
from repro.core.metrics import (
    UserMetrics,
    metrics_from_payload,
    metrics_to_payload,
)
from repro.core.placement.base import CONREP, PlacementContext, PlacementPolicy
from repro.datasets.schema import Dataset
from repro.graph.social_graph import UserId
from repro.onlinetime.base import OnlineTimeModel, compute_schedules
from repro.parallel.faults import FaultInjector
from repro.resilience import (
    Deadline,
    DeadlineExceeded,
    DegradationPolicy,
    DegradedResult,
)
from repro.seeding import derive_rng


class _LRU:
    """A tiny mapping with hit/miss/eviction counters, bounded unless
    ``max_entries`` is ``None``."""

    __slots__ = ("max_entries", "hits", "misses", "evictions", "_data")

    def __init__(self, max_entries: Optional[int]):
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = None if max_entries is None else int(max_entries)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: "OrderedDict" = OrderedDict()

    def get(self, key):
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def peek(self, key):
        """Read without touching recency or the hit/miss counters (the
        degraded stale scan must not skew serving statistics)."""
        return self._data.get(key)

    def put(self, key, value) -> List[object]:
        """Insert as most recent; returns the evicted values."""
        self._data[key] = value
        self._data.move_to_end(key)
        evicted = []
        if self.max_entries is not None:
            while len(self._data) > self.max_entries:
                evicted.append(self._data.popitem(last=False)[1])
                self.evictions += 1
        return evicted

    def values(self):
        return self._data.values()

    def __len__(self) -> int:
        return len(self._data)

    def stats(self) -> Dict[str, int]:
        return {
            "entries": len(self._data),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


#: A policy's resumable selection for one user: the suspended
#: :meth:`~repro.core.placement.PlacementPolicy.picks` generator
#: (``None`` once exhausted) and the picks drawn from it so far.
_Stream = Tuple[Optional[Iterator[UserId]], Tuple[UserId, ...]]

#: A user's resident entry: the evaluator and the policy streams, keyed
#: by :meth:`~repro.core.placement.PlacementPolicy.cache_key`.
_UserState = Tuple[IncrementalGroupEvaluator, Dict[Tuple[object, ...], _Stream]]


class QueryPlane:
    """Long-lived warm state answering point queries at low latency.

    Thread-safe: a single re-entrant lock serialises queries (the warm
    state is mutable LRU structure, and the underlying kernels are
    CPython-level compute anyway), so a plane can sit directly behind a
    multi-threaded server loop.

    ``cache`` optionally plugs a shared
    :class:`~repro.cache.SweepCache`: finished metrics persist under
    :func:`~repro.cache.point_query_key` content addresses (and to disk
    when the cache has a directory), composing with the batch plane's
    store — the key deliberately excludes every execution knob, so
    entries written by any plane or sweep serve all others.

    ``max_users`` caps the resident per-user entries (``None``, the
    default, keeps one per queried user); an evicted user's next query
    rebuilds the entry and replays the identical selection draws.
    ``overlap_max_rows`` bounds each resident evaluator's
    :class:`~repro.core.connectivity.OverlapCache` (see its
    ``max_rows``); eviction only forgets memoized overlaps, never
    changes them.
    """

    def __init__(
        self,
        dataset: Dataset,
        model: OnlineTimeModel,
        *,
        mode: str = CONREP,
        seed: int = 0,
        cache=None,
        max_users: Optional[int] = None,
        max_results: int = 4096,
        overlap_max_rows: Optional[int] = None,
        degradation: Optional[DegradationPolicy] = None,
        fault_injector: Optional[FaultInjector] = None,
    ):
        self.dataset = dataset
        self.model = model
        self.mode = mode
        self.seed = int(seed)
        self._store = cache
        self._overlap_max_rows = overlap_max_rows
        self._lock = threading.RLock()
        self._schedules = None
        self._users = _LRU(max_users)
        self._results = _LRU(max_results)
        self._sequence_hits = 0
        self._sequence_misses = 0
        self._streams_evicted = 0
        self._queries = 0
        self._result_hits = 0
        self._store_hits = 0
        self.degradation = degradation or DegradationPolicy()
        self._fault_injector = fault_injector
        self._stale_served = 0
        self._fallback_served = 0
        self._failed = 0

    # -- warm state ---------------------------------------------------------

    def warm(self) -> "QueryPlane":
        """Build the shared schedule state eagerly; returns ``self``.

        Without this, the first query pays the schedule computation
        (the memoised :func:`compute_schedules`, so a plane over an
        already-swept dataset warms for free).
        """
        with self._lock:
            if self._schedules is None:
                self._schedules = compute_schedules(
                    self.dataset, self.model, seed=self.seed
                )
        return self

    @property
    def schedules(self):
        self.warm()
        return self._schedules

    def _state_for(self, user: UserId) -> _UserState:
        """The user's resident entry, built on first use."""
        state = self._users.get(user)
        if state is None:
            evaluator = IncrementalGroupEvaluator(
                self.dataset,
                self._schedules,
                user,
                mode=self.mode,
                overlap_cache=OverlapCache(
                    self._schedules, max_rows=self._overlap_max_rows
                ),
            )
            state = (evaluator, {})
            for _, streams in self._users.put(user, state):
                self._streams_evicted += len(streams)
        return state

    def _sequence_for(
        self,
        user: UserId,
        policy: PlacementPolicy,
        k: int,
        evaluator: IncrementalGroupEvaluator,
        streams: Dict[Tuple[object, ...], _Stream],
    ) -> Tuple[UserId, ...]:
        """The user's picks under ``policy``, drawn at least ``k`` deep
        unless the stream ran out first (only the ``k``-prefix counts).
        """
        key = policy.cache_key()
        # Popped while drawing: a generator that raised is finished and
        # would read as exhausted, so the next request starts afresh.
        picks, drawn = streams.pop(key, (None, None))
        if drawn is None:
            ctx = PlacementContext(
                dataset=self.dataset,
                schedules=self._schedules,
                user=user,
                mode=self.mode,
                rng=derive_rng(self.seed, policy.name, user),
                overlap_cache=evaluator.overlap_cache,
            )
            picks, drawn = policy.picks(ctx), ()
        need = k - len(drawn)
        if need > 0 and picks is not None:
            self._sequence_misses += 1
            more = tuple(islice(picks, need))
            if len(more) < need:
                picks = None
            drawn += more
        else:
            self._sequence_hits += 1
        streams[key] = (picks, drawn)
        return drawn

    # -- lookups ------------------------------------------------------------

    def _lookup(
        self, user: UserId, policy: PlacementPolicy, k: int
    ) -> Tuple[object, Optional[UserMetrics]]:
        """Result-LRU then content-address store; ``(lru_key, hit)``."""
        key = (policy.cache_key(), user, int(k))
        metrics = self._results.get(key)
        if metrics is not None:
            self._result_hits += 1
            return key, metrics
        if self._store is not None:
            payload = self._store.get_payload(
                point_query_key(
                    self.dataset,
                    self.model,
                    policy,
                    mode=self.mode,
                    user=user,
                    k=k,
                    seed=self.seed,
                )
            )
            if payload is not None:
                metrics = metrics_from_payload(payload)
                self._store_hits += 1
                self._results.put(key, metrics)
                return key, metrics
        return key, None

    def _compute(
        self,
        user: UserId,
        policy: PlacementPolicy,
        k: int,
        lru_key,
        deadline: Optional[Deadline] = None,
    ) -> UserMetrics:
        if self._fault_injector is not None:
            self._fault_injector.apply_query(user, 0)
        if deadline is not None:
            deadline.check("warm-state lookup")
        evaluator, streams = self._state_for(user)
        sequence = self._sequence_for(user, policy, k, evaluator, streams)
        if deadline is not None:
            deadline.check("replica selection")
        metrics = evaluate_single(
            self.dataset,
            self._schedules,
            user,
            policy,
            k,
            mode=self.mode,
            seed=self.seed,
            evaluator=evaluator,
            sequence=sequence,
        )
        self._finish(user, policy, k, lru_key, metrics)
        return metrics

    def _compute_fallback(
        self, user: UserId, policy: PlacementPolicy, k: int, lru_key
    ) -> UserMetrics:
        """The degraded retry: recompute without the warm state.

        Bypasses every piece of possibly-poisoned warm state — the
        resident evaluator and the drawn picks — and recomputes from
        the schedules alone.  The plane's determinism contract makes the
        floats bit-identical to the primary path; only the latency
        differs.
        """
        if self._fault_injector is not None:
            self._fault_injector.apply_query(user, 1)
        metrics = evaluate_single(
            self.dataset,
            self._schedules,
            user,
            policy,
            k,
            mode=self.mode,
            seed=self.seed,
        )
        self._finish(user, policy, k, lru_key, metrics)
        return metrics

    def _finish(
        self,
        user: UserId,
        policy: PlacementPolicy,
        k: int,
        lru_key,
        metrics: UserMetrics,
    ) -> None:
        """Publish a computed answer to the result LRU and the store."""
        self._results.put(lru_key, metrics)
        if self._store is not None:
            self._store.put_payload(
                point_query_key(
                    self.dataset,
                    self.model,
                    policy,
                    mode=self.mode,
                    user=user,
                    k=k,
                    seed=self.seed,
                ),
                metrics_to_payload(metrics),
            )

    # -- queries ------------------------------------------------------------

    def evaluate(
        self, user: UserId, policy: PlacementPolicy, k: int
    ) -> UserMetrics:
        """Place-and-evaluate one user at degree ``k`` under ``policy``."""
        with self._lock:
            self.warm()
            self._queries += 1
            lru_key, metrics = self._lookup(user, policy, int(k))
            if metrics is not None:
                return metrics
            return self._compute(user, policy, int(k), lru_key)

    def place(
        self, user: UserId, policy: PlacementPolicy, k: int
    ) -> Tuple[UserId, ...]:
        """The degree-``k`` replica placement only (metrics discarded)."""
        return self.evaluate(user, policy, k).replicas

    # -- degraded serving ---------------------------------------------------

    def evaluate_resilient(
        self,
        user: UserId,
        policy: PlacementPolicy,
        k: int,
        *,
        deadline: Optional[Deadline] = None,
    ) -> DegradedResult:
        """Evaluate under the plane's degradation policy.

        Always returns a :class:`~repro.resilience.DegradedResult`:
        fresh answers are unflagged, fallback/stale answers carry their
        reason, and failures carry the exception (``refuse`` mode never
        serves degraded answers, so failures are all it can degrade
        to).  Any value actually *computed* here is bit-identical to
        :meth:`evaluate` — degradation changes which path runs or which
        stored answer is served, never any float.
        """
        with self._lock:
            self.warm()
            self._queries += 1
            return self._resolve(user, policy, int(k), deadline)

    def _resolve(
        self,
        user: UserId,
        policy: PlacementPolicy,
        k: int,
        deadline: Optional[Deadline],
    ) -> DegradedResult:
        lru_key, metrics = self._lookup(user, policy, k)
        if metrics is not None:
            return DegradedResult.fresh(metrics)
        return self._degrade(user, policy, k, lru_key, deadline)

    def _degrade(
        self,
        user: UserId,
        policy: PlacementPolicy,
        k: int,
        lru_key,
        deadline: Optional[Deadline],
    ) -> DegradedResult:
        """Primary compute, then fallback, then stale, per the policy."""
        try:
            metrics = self._compute(user, policy, k, lru_key, deadline)
            return DegradedResult.fresh(metrics)
        except DeadlineExceeded as exc:
            # No budget left: a fallback recompute cannot help, only an
            # already-stored answer can.
            return self._serve_stale_or_fail(user, policy, k, exc)
        except Exception as exc:
            error = exc
        if self.degradation.allow_fallback:
            try:
                if deadline is not None:
                    deadline.check("fallback without warm state")
                metrics = self._compute_fallback(user, policy, k, lru_key)
                self._fallback_served += 1
                return DegradedResult.fallback(
                    metrics,
                    f"retry without warm state after "
                    f"{type(error).__name__}: {error}",
                )
            except Exception:
                pass  # report the primary failure, not the retry's
        return self._serve_stale_or_fail(user, policy, k, error)

    def _serve_stale_or_fail(
        self,
        user: UserId,
        policy: PlacementPolicy,
        k: int,
        error: BaseException,
    ) -> DegradedResult:
        if self.degradation.allow_stale:
            found = self._stale_lookup(user, policy, k)
            if found is not None:
                served_k, metrics = found
                self._stale_served += 1
                return DegradedResult.stale(
                    metrics,
                    f"stored degree-{served_k} answer served for a "
                    f"degree-{k} query after {type(error).__name__}",
                )
        self._failed += 1
        return DegradedResult.failed(error)

    def _stale_lookup(
        self, user: UserId, policy: PlacementPolicy, k: int
    ) -> Optional[Tuple[int, UserMetrics]]:
        """The best stored answer at or below degree ``k``.

        Walks degrees downward: the incremental-selection prefix
        property makes the degree-``k'`` result (``k' < k``) the exact
        answer to the smaller-degree query — a genuinely *weaker*
        placement served in place of one we cannot compute right now,
        which is the DOSN notion of degraded service.  The scan reads
        the result LRU without touching its counters, then the
        content-addressed store.
        """
        for served_k in range(int(k), -1, -1):
            metrics = self._results.peek(
                (policy.cache_key(), user, served_k)
            )
            if metrics is None and self._store is not None:
                payload = self._store.get_payload(
                    point_query_key(
                        self.dataset,
                        self.model,
                        policy,
                        mode=self.mode,
                        user=user,
                        k=served_k,
                        seed=self.seed,
                    )
                )
                if payload is not None:
                    metrics = metrics_from_payload(payload)
            if metrics is not None:
                return served_k, metrics
        return None

    # -- stats --------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Counters for the ``[timing]`` foot and experiment JSON."""
        with self._lock:
            return {
                "queries": self._queries,
                "result_hits": self._result_hits,
                "store_hits": self._store_hits,
                "stale_served": self._stale_served,
                "fallback_served": self._fallback_served,
                "failed": self._failed,
                "degraded_mode": self.degradation.mode,
                "evaluators": self._users.stats(),
                "sequences": {
                    "entries": sum(
                        len(streams) for _, streams in self._users.values()
                    ),
                    "max_entries": None,
                    "hits": self._sequence_hits,
                    "misses": self._sequence_misses,
                    "evictions": self._streams_evicted,
                },
                "results": self._results.stats(),
            }
