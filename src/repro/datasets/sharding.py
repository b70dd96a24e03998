"""Sharded, lazily materialised synthetic datasets.

The paper's filtered cohorts are ~14k users, but the ROADMAP north star
is millions — and the eager pipeline (generate the whole trace, filter,
hold everything in one process) hits a memory wall long before that.
This module exploits the stream-per-user synthesis layout
(:mod:`repro.datasets.synthesis`, ``STREAM_VERSION >= 2``): because user
``u``'s activities are a pure function of ``(graph, params, seed, u)``,
any subset of users can be materialised on demand without replaying
anyone else's stream.

:class:`SyntheticSpec` is the declarative recipe (kind, size, seed,
params, graph layout); :class:`ShardedDataset` resolves the paper's
activity/candidate filter to fixpoint over a *streaming survey* of
per-user receiver lists — built in bounded user windows, with the
cumsum-CSR segment counts likewise chunked — and then serves shard ``k``
as a real :class:`~repro.datasets.schema.Dataset` covering a contiguous
slice of the surviving cohort plus exactly the context users (replica
candidates) the sweep kernels read.

A shard build is *cohort-scoped*: ``shard(k, users=cohort)`` materialises
only ``cohort`` (a subset of shard ``k``'s slice) and its surviving
candidates, which is all a sweep of that cohort reads — a cohort user's
metrics depend on its candidates, its received activities and the
candidates' schedules, and each schedule is a pure function of the
candidate's own created activities and ``derive_rng(seed, user)``.  So a
view gives the same per-user metrics, bit for bit, as the whole shard,
and the ``*_datasets`` sweep drivers build only their cohort's view.

Two graph layouts:

* ``"legacy"`` (default) — the sequential generators of
  :mod:`repro.graph.generators`; the whole python graph is built once
  (inherently global RNG), everything downstream is identical to the
  eager builders.
* ``"stream"`` — the shard-native layout of :mod:`repro.graph.stream`:
  per-user proposal streams (``derive_rng(seed, "graph", user)``)
  materialised as compact CSR arrays; no dict-of-sets python graph ever
  exists, so peak RSS is dominated by a few integer arrays instead of
  millions of python objects.  Spec fingerprints cover the layout (and
  its ``GRAPH_STREAM_VERSION``), and legacy fingerprints are unchanged.

Shard datasets are stamped with a content fingerprint derived from
``(spec, shard, num_shards)`` — or, for a view of part of a shard, from
``(spec, sorted users)`` — so they compose with the content-addressed
:class:`~repro.cache.SweepCache` without hashing their activities.  The
:class:`ShardedDataset` itself is stamped from the spec alone: a sweep
over it gives the same series at every shard count, so its finished
series are cached under one address whatever ``num_shards`` is.

Equivalence guarantees (property-tested):

* the surviving-user set equals :func:`repro.datasets.filters.filter_dataset`'s
  fixpoint on the eager dataset;
* a cohort user's candidate set, created activities and received
  activities in its shard — or in any view of it that covers the user —
  are bit-identical to the eager dataset's.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.datasets.filters import (
    DEFAULT_WINDOW,
    segment_counts,
    surviving_mask,
)
from repro.datasets.schema import ActivityTrace, Dataset
from repro.datasets.synthesis import (
    STREAM_VERSION,
    TraceParams,
    survey_receiver_rows,
    user_activities,
)
from repro.graph.generators import (
    configuration_graph,
    powerlaw_degree_sequence,
    powerlaw_follower_graph,
)
from repro.graph.social_graph import UserId
from repro.graph.stream import (
    GRAPH_STREAM_VERSION,
    CsrRows,
    induced_follower_subgraph,
    induced_social_subgraph,
    stream_adjacency,
    stream_follower_rows,
)
from repro.partition import partition_bounds
from repro.seeding import canonical_key_bytes

__all__ = [
    "LEGACY_GRAPH",
    "STREAM_GRAPH",
    "ShardedDataset",
    "SyntheticSpec",
]

#: Matches the module-private default in facebook.py / twitter.py.
_DEGREE_ALPHA = 1.35

#: Graph layout names accepted by :class:`SyntheticSpec`.
LEGACY_GRAPH = "legacy"
STREAM_GRAPH = "stream"
_GRAPH_LAYOUTS = (LEGACY_GRAPH, STREAM_GRAPH)


@dataclass(frozen=True)
class SyntheticSpec:
    """Declarative recipe for a synthetic dataset.

    Mirrors the arguments of :func:`~repro.datasets.facebook.synthetic_facebook`
    / :func:`~repro.datasets.twitter.synthetic_twitter`: building the
    spec eagerly (:meth:`eager`) and building it shard by shard produce
    the same users, candidates and activities.
    """

    kind: str
    num_users: int
    seed: int = 0
    params: Optional[TraceParams] = None
    min_activities: int = 10
    degree_alpha: float = _DEGREE_ALPHA
    #: Cap on the degree-sequence support (``None`` → the generator's
    #: ``num_users ** 0.75`` default).  Million-user runs want an explicit
    #: cap: the default support would make the *average* degree explode.
    max_degree: Optional[int] = None
    #: Graph generation layout: ``"legacy"`` (sequential generators,
    #: default — fingerprints unchanged from before the layout existed)
    #: or ``"stream"`` (per-user proposal streams, CSR-backed; the
    #: shard-native scale path).
    graph_layout: str = LEGACY_GRAPH

    def __post_init__(self) -> None:
        if self.kind not in ("facebook", "twitter"):
            raise ValueError(f"unknown dataset kind: {self.kind!r}")
        if self.num_users < 2:
            raise ValueError("num_users must be >= 2")
        if self.min_activities < 0:
            raise ValueError("min_activities must be >= 0")
        if self.graph_layout not in _GRAPH_LAYOUTS:
            raise ValueError(
                f"unknown graph_layout {self.graph_layout!r}; "
                f"choose from {_GRAPH_LAYOUTS}"
            )

    @property
    def require_candidates(self) -> bool:
        """Twitter runs the paper's followers-present filter too."""
        return self.kind == "twitter"

    def resolved_params(self) -> TraceParams:
        """The trace params, with the per-kind defaults applied."""
        if self.params is not None:
            return self.params
        if self.kind == "facebook":
            return TraceParams(trace_days=90, activities_mean=50.0)
        return TraceParams(trace_days=14, activities_mean=30.0)

    def build_graph(self):
        """The full social graph — identical to the eager builders'."""
        if self.graph_layout == STREAM_GRAPH:
            from repro.graph.stream import (
                stream_follower_graph,
                stream_social_graph,
            )

            builder = (
                stream_social_graph
                if self.kind == "facebook"
                else stream_follower_graph
            )
            return builder(
                self.num_users,
                self.degree_alpha,
                self.seed,
                max_degree=self.max_degree,
            )
        rng = random.Random(self.seed)
        if self.kind == "facebook":
            degrees = powerlaw_degree_sequence(
                self.num_users,
                self.degree_alpha,
                rng,
                max_degree=self.max_degree,
            )
            return configuration_graph(degrees, rng)
        return powerlaw_follower_graph(
            self.num_users,
            self.degree_alpha,
            rng,
            max_followers=self.max_degree,
        )

    def fingerprint(self) -> str:
        """Content address of the spec (covers the RNG stream layout).

        The graph layout is appended only when it differs from
        ``"legacy"``, so fingerprints of pre-existing legacy specs — and
        every sweep-cache address derived from them — are unchanged.
        """
        params = self.resolved_params()
        parts: List[object] = [
            "synthetic-spec",
            STREAM_VERSION,
            self.kind,
            self.num_users,
            self.seed,
            self.min_activities,
            self.degree_alpha,
            self.max_degree,
            params.trace_days,
            params.activities_mean,
            params.activities_sigma,
            params.diurnal_std_hours,
            params.partner_zipf_alpha,
        ]
        for component in params.mixture.components:
            parts.extend(component)
        if self.graph_layout != LEGACY_GRAPH:
            parts.extend(
                ["graph-layout", self.graph_layout, GRAPH_STREAM_VERSION]
            )
        return hashlib.sha256(canonical_key_bytes(*parts)).hexdigest()

    def eager(self) -> Dataset:
        """The full eager dataset (reference path for equivalence tests)."""
        from repro.datasets.facebook import synthetic_facebook
        from repro.datasets.twitter import synthetic_twitter

        builder = (
            synthetic_facebook if self.kind == "facebook" else synthetic_twitter
        )
        return builder(
            self.num_users,
            seed=self.seed,
            params=self.params,
            min_activities=self.min_activities,
            degree_alpha=self.degree_alpha,
            max_degree=self.max_degree,
            graph_layout=self.graph_layout,
        )


class _LegacyPlane:
    """Graph plane backed by the whole python graph (legacy layout)."""

    def __init__(self, spec: SyntheticSpec):
        self.graph = spec.build_graph()
        self.num_users = self.graph.num_users
        if sorted(self.graph.users()) != list(range(self.num_users)):
            raise ValueError(
                "sharded synthesis requires contiguous user ids 0..N-1"
            )
        self._directed = spec.kind == "twitter"

    def partners(self, user: UserId) -> List[UserId]:
        """The user's full sorted partner list (stream-layout input)."""
        if self._directed:
            return sorted(self.graph.followees(user))
        return sorted(self.graph.neighbors(user))

    def candidates(self, user: UserId) -> List[UserId]:
        return sorted(self.graph.replica_candidates(user))

    def candidate_csr(self, window: int) -> CsrRows:
        """Every user's replica-candidate list as CSR rows (windowed)."""
        return CsrRows.build(self.candidates, self.num_users, window=window)

    def subgraph(self, keep):
        return self.graph.subgraph(keep)


class _StreamPlane:
    """Graph plane backed by compact CSR rows (stream layout).

    Never materialises a dict-of-sets python graph: the adjacency (or
    follower/followee pair) lives in a handful of integer arrays, and
    python subgraphs are sliced out per shard on demand.
    """

    def __init__(self, spec: SyntheticSpec, window: int):
        self.num_users = spec.num_users
        self._directed = spec.kind == "twitter"
        if self._directed:
            self._followers, self._followees = stream_follower_rows(
                spec.num_users,
                spec.degree_alpha,
                spec.seed,
                max_degree=spec.max_degree,
                window=window,
            )
        else:
            self._adjacency = stream_adjacency(
                spec.num_users,
                spec.degree_alpha,
                spec.seed,
                max_degree=spec.max_degree,
                window=window,
            )

    def partners(self, user: UserId) -> List[UserId]:
        rows = self._followees if self._directed else self._adjacency
        return rows.row_list(user)

    def candidates(self, user: UserId) -> List[UserId]:
        rows = self._followers if self._directed else self._adjacency
        return rows.row_list(user)

    def candidate_csr(self, window: int) -> CsrRows:
        return self._followers if self._directed else self._adjacency

    def subgraph(self, keep):
        if self._directed:
            return induced_follower_subgraph(self._followers, keep)
        return induced_social_subgraph(self._adjacency, keep)


class ShardedDataset:
    """Per-shard lazy materialisation of a :class:`SyntheticSpec`.

    Construction builds the graph plane and resolves the paper's filter
    fixpoint from a streaming survey of per-user receiver lists (bounded
    user windows, chunked segment counts); activities (with timestamps)
    are only materialised when a shard is requested, and a shard covers
    just its cohort slice plus the cohort's surviving replica
    candidates.
    """

    def __init__(
        self,
        spec: SyntheticSpec,
        num_shards: int,
        *,
        survey_window: int = DEFAULT_WINDOW,
    ):
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if survey_window < 1:
            raise ValueError("survey_window must be >= 1")
        self.spec = spec
        self.num_shards = num_shards
        # The sweep cache's address for the whole source: the spec's,
        # without the shard count (every count sweeps to the same
        # series).
        self._repro_content_fingerprint = hashlib.sha256(
            canonical_key_bytes("sharded-source", spec.fingerprint())
        ).hexdigest()
        self.params = spec.resolved_params()
        self._window = survey_window
        if spec.graph_layout == STREAM_GRAPH:
            self._plane = _StreamPlane(spec, survey_window)
        else:
            self._plane = _LegacyPlane(spec)
        n = self._plane.num_users
        self._alive = self._resolve_survivors(n)
        self._survivors: Tuple[UserId, ...] = tuple(
            int(u) for u in np.flatnonzero(self._alive)
        )

    @property
    def graph(self):
        """The whole python graph — legacy layout only (the stream
        layout's point is that no such object exists)."""
        plane = self._plane
        if isinstance(plane, _LegacyPlane):
            return plane.graph
        raise AttributeError(
            "stream-layout ShardedDataset holds CSR rows, not a whole "
            "python graph; use shard(k).graph for a shard's subgraph"
        )

    # -- filter fixpoint -------------------------------------------------

    def _resolve_survivors(self, n: int) -> np.ndarray:
        """The filter fixpoint as a boolean alive mask over 0..N-1.

        Runs the §IV-A kernel :func:`~repro.datasets.filters.surviving_mask`
        (the one :func:`~repro.datasets.filters.filter_dataset` runs) over
        a streaming survey of per-user receiver lists.  The survey and the
        kernel's segment counts both stream over bounded user windows — no
        whole-graph python list-of-lists is ever held.
        """
        if self.spec.min_activities == 0 and not self.spec.require_candidates:
            # Every user passes a zero threshold on round one.
            return np.ones(n, dtype=bool)
        receivers = survey_receiver_rows(
            self._plane.partners,
            self.params,
            self.spec.seed,
            n,
            window=self._window,
        )
        candidates = None
        if self.spec.require_candidates:
            candidates = self._plane.candidate_csr(self._window)
        return surviving_mask(
            receivers,
            self.spec.min_activities,
            candidates,
            window=self._window,
        )

    # -- shard access ----------------------------------------------------

    @property
    def survivors(self) -> Tuple[UserId, ...]:
        """All users surviving the filter, sorted ascending."""
        return self._survivors

    def __len__(self) -> int:
        return self.num_shards

    def __iter__(self) -> Iterator[Dataset]:
        for shard in range(self.num_shards):
            yield self.shard(shard)

    def users_with_degree(
        self, degree: int, *, max_degree: Optional[int] = None
    ) -> List[UserId]:
        """Surviving users whose *surviving*-candidate count equals
        ``degree`` (or lies in ``[degree, max_degree]``).

        Matches ``eager().graph.users_with_degree(...)``: the eager
        pipeline's filtered graph keeps exactly the surviving users and
        their edges, so a user's filtered degree is his alive-candidate
        count.  This is the cohort-selection hook that lets the
        experiment layer pick the paper's degree cohorts without ever
        materialising the eager dataset.
        """
        counts = self._alive_candidate_counts()
        hi = degree if max_degree is None else max_degree
        keep = self._alive & (counts >= degree) & (counts <= hi)
        return [int(u) for u in np.flatnonzero(keep)]

    def _alive_candidate_counts(self) -> np.ndarray:
        """Per-user count of surviving replica candidates (memoised)."""
        cached = getattr(self, "_candidate_count_cache", None)
        if cached is not None:
            return cached
        counts = segment_counts(
            self._alive, self._plane.candidate_csr(self._window), self._window
        )
        self._candidate_count_cache = counts
        return counts

    def shard_users(self, shard: int) -> Tuple[UserId, ...]:
        """The cohort slice owned by ``shard`` (contiguous, near-equal).

        Uses the shared :func:`repro.partition.partition_bounds`
        formula, so replay shards and dataset shards mean the same
        slice of a sorted cohort.
        """
        if not 0 <= shard < self.num_shards:
            raise IndexError(
                f"shard {shard} out of range 0..{self.num_shards - 1}"
            )
        lo, hi = partition_bounds(len(self._survivors), self.num_shards)[
            shard
        ]
        return self._survivors[lo:hi]

    def shard_fingerprint(self, shard: int) -> str:
        """Content address of one shard (composes with ``SweepCache``)."""
        return hashlib.sha256(
            canonical_key_bytes(
                "shard", self.spec.fingerprint(), shard, self.num_shards
            )
        ).hexdigest()

    def shard(
        self, shard: int, users: Optional[Iterable[UserId]] = None
    ) -> Dataset:
        """Materialise shard ``shard`` (or a cohort view of it) as a
        self-contained dataset.

        ``users`` (default: the whole :meth:`shard_users` slice) must be
        a non-empty subset of ``shard_users(shard)``; anything else
        raises :class:`ValueError`.  The build covers exactly ``users``
        plus their surviving replica candidates — the closure a sweep of
        that cohort reads — so a sweep over a small cohort pays for its
        cohort, not for the whole owned slice.

        The graph is the induced subgraph on that closure, so every
        cohort user's candidate set (and the edges among its candidates)
        is exact.  The trace regenerates each covered creator's
        activities from its per-user stream (full-graph partner list)
        and keeps those whose receiver survived the filter — the same
        activities, bit for bit, that the eager generate-then-filter
        pipeline retains for those creators.  Every sender to a cohort
        user is one of its candidates, so ``received_by`` is exact too,
        and a candidate's schedule depends only on its own
        ``created_by``.  A view therefore yields the same per-user
        metrics as the whole shard, for any cohort it covers.

        The stamped fingerprint is :meth:`shard_fingerprint` when
        ``users`` covers the whole slice, and otherwise a content
        address of ``(spec, sorted users)`` — a view's content depends
        on nothing else.
        """
        owned = self.shard_users(shard)
        cohort = owned
        if users is not None:
            cohort = tuple(sorted({int(u) for u in users}))
            if not cohort:
                raise ValueError(f"empty cohort view of shard {shard}")
            outside = set(cohort).difference(owned)
            if outside:
                raise ValueError(
                    f"users {sorted(outside)[:5]} are not surviving users "
                    f"owned by shard {shard}"
                )
        closure = set(cohort)
        for user in cohort:
            for candidate in self._plane.candidates(user):
                if self._alive[candidate]:
                    closure.add(int(candidate))
        subgraph = self._plane.subgraph(closure)
        activities = []
        for creator in sorted(closure):
            for act in user_activities(
                self._plane.partners(creator), self.params, self.spec.seed, creator
            ):
                if self._alive[act.receiver]:
                    activities.append(act)
        dataset = Dataset(
            name=(
                f"synthetic-{self.spec.kind}-{self.spec.num_users}"
                f"-shard{shard}of{self.num_shards}"
            ),
            kind=self.spec.kind,
            graph=subgraph,
            trace=ActivityTrace(activities),
            notes=(
                f"shard {shard}/{self.num_shards} of sharded synthetic "
                f"dataset (seed={self.spec.seed}, "
                f"min_activities={self.spec.min_activities})"
            ),
        )
        # Pre-stamp the content fingerprint the sweep cache would
        # otherwise compute by hashing every edge and activity: shards
        # and views are pure functions of the spec and their user set.
        dataset._repro_content_fingerprint = (
            self.shard_fingerprint(shard)
            if len(cohort) == len(owned)
            else hashlib.sha256(
                canonical_key_bytes(
                    "shard-cohort", self.spec.fingerprint(), *cohort
                )
            ).hexdigest()
        )
        return dataset
