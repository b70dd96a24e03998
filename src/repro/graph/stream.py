"""Stream-per-user graph generation (shard-native layout).

The legacy generators (:mod:`repro.graph.generators`) draw every user's
edges from one sequential ``random.Random`` — inherently global: shard
``k``'s rows cannot be reproduced without replaying users ``0..lo-1``.
This module provides the shard-native alternative, mirroring the trace
synthesis layout (:mod:`repro.datasets.synthesis`): user ``u`` owns an
independent RNG stream ``derive_rng(seed, "graph", u)`` from which he
draws a power-law *proposal count* (same inverse-CDF support as the
legacy sequence, via :class:`~repro.graph.generators.PowerlawSupport`)
and that many distinct uniform target users.  Any subset of rows is a
pure function of ``(num_users, alpha, seed, subset)`` — bit-identical
whether built alone, in a window, or as part of the whole graph
(property-tested in ``tests/graph/test_stream_generators.py``).

Graph semantics per dataset kind:

* **facebook** (undirected): edge ``{u, v}`` exists iff ``u`` proposed
  ``v`` *or* ``v`` proposed ``u`` — the stream analogue of the
  configuration model's stub pairing.  Realised degrees stay heavy-
  tailed (a union of two power-law draws) with roughly twice the
  proposal mean.
* **twitter** (directed): ``u``'s proposals are his *followers*, so the
  follower count (= replica-candidate count) is power-law per user and
  pure per user, matching :func:`~repro.graph.generators.powerlaw_follower_graph`'s
  semantics; followees are the transpose.

The whole-graph views are compact CSR arrays (:class:`CsrRows`) built by
one vectorised pass over per-window proposal batches — no dict-of-sets
python graph is ever materialised, which is what cuts the sharded
pipeline's peak RSS.  Small python subgraphs for shard datasets are
sliced out of the CSR on demand.

.. note::
   This layout is selected by ``SyntheticSpec(graph_layout="stream")``
   and versioned by :data:`GRAPH_STREAM_VERSION` (covered by the spec
   fingerprint); the legacy sequential layout remains the default and
   its fingerprints are unchanged.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.generators import PowerlawSupport
from repro.graph.social_graph import FollowerGraph, SocialGraph, UserId
from repro.seeding import derive_rng

__all__ = [
    "GRAPH_STREAM_VERSION",
    "CsrRows",
    "graph_stream",
    "induced_follower_subgraph",
    "induced_social_subgraph",
    "proposal_rows",
    "stream_adjacency",
    "stream_follower_rows",
    "stream_follower_graph",
    "stream_social_graph",
    "symmetrized",
    "transposed",
    "user_proposals",
]

#: Version of the per-user graph-stream layout.  Bump whenever the draw
#: order or the edge semantics change — spec fingerprints include it for
#: stream-layout specs, so stale cache entries can never alias.
GRAPH_STREAM_VERSION = 1

#: Salt separating graph streams from the synthesis streams
#: (``derive_rng(seed, "synthesis", user)``), the schedule streams
#: (``derive_rng(seed, user)``) and the placement streams
#: (``derive_rng(seed, policy, user)``).
_STREAM_SALT = "graph"

#: Users per batch when building whole-graph CSR arrays: bounds the
#: python-object working set of the generation loop.
_DEFAULT_WINDOW = 65536


def graph_stream(seed: int, user: UserId) -> random.Random:
    """The independent graph RNG stream of one user."""
    if not isinstance(seed, int):
        raise TypeError(
            "graph seed must be an int (stream-per-user layout); "
            f"got {type(seed).__name__}"
        )
    return derive_rng(seed, _STREAM_SALT, user)


def user_proposals(
    num_users: int,
    support: PowerlawSupport,
    seed: int,
    user: UserId,
    *,
    halve_target: bool = False,
) -> List[UserId]:
    """One user's sorted edge proposals, from his own stream.

    Draws a power-law target degree (clamped to ``num_users - 1``) and
    that many distinct uniform targets ``!= user`` by rejection — a
    pure function of ``(num_users, support, seed, user)``.

    ``halve_target`` is the undirected-graph calibration: when edges are
    symmetrised (u–v exists if *either* proposed the other), every user
    receives roughly one incoming edge per outgoing proposal, so
    proposing the full drawn degree would realise about twice it.
    Proposing ``ceil(d / 2)`` instead realises degrees whose mean
    matches the drawn power-law — the same degree semantics as the
    legacy configuration model on the same support.
    """
    rng = graph_stream(seed, user)
    count = support.sample(rng)
    if halve_target:
        count = (count + 1) // 2
    count = min(count, num_users - 1)
    picked: set[UserId] = set()
    while len(picked) < count:
        target = rng.randrange(num_users)
        if target != user:
            picked.add(target)
    return sorted(picked)


@dataclass(frozen=True)
class CsrRows:
    """Compact per-user adjacency rows: ``indices[indptr[u]:indptr[u+1]]``
    is user ``u``'s sorted row."""

    indptr: np.ndarray
    indices: np.ndarray

    @property
    def num_users(self) -> int:
        return len(self.indptr) - 1

    def row(self, user: UserId) -> np.ndarray:
        return self.indices[self.indptr[user] : self.indptr[user + 1]]

    def row_list(self, user: UserId) -> List[UserId]:
        return [int(v) for v in self.row(user)]

    def degree(self, user: UserId) -> int:
        return int(self.indptr[user + 1] - self.indptr[user])

    @classmethod
    def build(
        cls,
        row_of: Callable[[UserId], Sequence[UserId]],
        num_users: int,
        *,
        window: int = _DEFAULT_WINDOW,
        users: Optional[Sequence[UserId]] = None,
        dtype: np.dtype = np.dtype(np.int64),
    ) -> "CsrRows":
        """The rows ``row_of(u)`` of ``users`` (default: ``0..num_users-1``;
        absent users get empty rows).

        Rows become arrays ``window`` users at a time, so the
        python-object working set stays bounded by one window whatever
        the total size; the result is identical for any window.
        """
        if window < 1:
            raise ValueError("window must be >= 1")
        order = range(num_users) if users is None else users
        counts = np.zeros(num_users, dtype=np.int64)
        batches = [np.empty(0, dtype=dtype)]
        for start in range(0, len(order), window):
            chunk: List[UserId] = []
            for user in order[start : start + window]:
                row = row_of(user)
                counts[user] = len(row)
                chunk.extend(row)
            batches.append(np.asarray(chunk, dtype=dtype))
        indptr = np.zeros(num_users + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(indptr=indptr, indices=np.concatenate(batches))


def _index_dtype(num_users: int) -> np.dtype:
    """The narrowest integer dtype that can hold every user id."""
    return (
        np.dtype(np.int32)
        if num_users <= np.iinfo(np.int32).max
        else np.dtype(np.int64)
    )


def proposal_rows(
    num_users: int,
    alpha: float,
    seed: int,
    *,
    min_degree: int = 1,
    max_degree: Optional[int] = None,
    window: int = _DEFAULT_WINDOW,
    users: Optional[Iterable[UserId]] = None,
    halve_target: bool = False,
) -> CsrRows:
    """The proposal CSR over ``0..num_users-1`` (or a ``users`` subset).

    Built in windows of at most ``window`` users so the python-object
    working set stays bounded regardless of graph size; rows for a
    subset are bit-identical to the same rows of the full build.  With
    ``users`` given, ``indptr`` still spans ``0..num_users`` and absent
    users simply have empty rows.
    """
    support = PowerlawSupport(
        num_users, alpha, min_degree=min_degree, max_degree=max_degree
    )
    return CsrRows.build(
        lambda user: user_proposals(
            num_users, support, seed, user, halve_target=halve_target
        ),
        num_users,
        window=window,
        users=None if users is None else sorted(set(users)),
        dtype=_index_dtype(num_users),
    )


def _edge_endpoints(rows: CsrRows) -> Tuple[np.ndarray, np.ndarray]:
    """Flat ``(src, dst)`` arrays of every proposal edge."""
    dtype = rows.indices.dtype
    src = np.repeat(
        np.arange(rows.num_users, dtype=dtype), np.diff(rows.indptr)
    )
    return src, rows.indices


def _rows_from_edges(
    edge_lists: List[Tuple[np.ndarray, np.ndarray]],
    num_users: int,
    window: int = _DEFAULT_WINDOW,
) -> CsrRows:
    """Sorted, deduplicated CSR from unsorted ``(src, dst)`` edge pairs.

    Users are processed in windows of at most ``window``: each window
    selects its edges, sorts and dedupes only those, and appends the
    result.  The sort transient is therefore bounded by one window's
    edges — a whole-edge-set ``lexsort`` (an ``int64`` permutation plus
    sorted copies of both endpoint arrays) was the scale path's largest
    single allocation.  The output is the fully sorted unique edge set,
    bit-identical for any window size.
    """
    dtype = _index_dtype(num_users)
    counts = np.zeros(num_users, dtype=np.int64)
    batches = [np.empty(0, dtype=dtype)]
    for lo in range(0, num_users, window):
        hi = min(lo + window, num_users)
        picked_src: List[np.ndarray] = []
        picked_dst: List[np.ndarray] = []
        for src, dst in edge_lists:
            mask = (src >= lo) & (src < hi)
            picked_src.append(src[mask])
            picked_dst.append(dst[mask])
        s = np.concatenate(picked_src)
        d = np.concatenate(picked_dst)
        order = np.lexsort((d, s))
        s = s[order]
        d = d[order]
        if len(s):
            keep = np.ones(len(s), dtype=bool)
            keep[1:] = (s[1:] != s[:-1]) | (d[1:] != d[:-1])
            s = s[keep]
            d = d[keep]
        counts[lo:hi] = np.bincount(s - lo, minlength=hi - lo)
        batches.append(d.astype(dtype, copy=False))
    indptr = np.zeros(num_users + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CsrRows(indptr=indptr, indices=np.concatenate(batches))


def symmetrized(rows: CsrRows) -> CsrRows:
    """Undirected adjacency: ``v`` in row ``u`` iff either proposed the
    other.  Rows come back sorted and duplicate-free."""
    src, dst = _edge_endpoints(rows)
    return _rows_from_edges([(src, dst), (dst, src)], rows.num_users)


def transposed(rows: CsrRows) -> CsrRows:
    """The reversed-edge CSR (``u`` in row ``v`` iff ``v`` in row ``u``)."""
    src, dst = _edge_endpoints(rows)
    return _rows_from_edges([(dst, src)], rows.num_users)


def stream_adjacency(
    num_users: int,
    alpha: float,
    seed: int,
    *,
    min_degree: int = 1,
    max_degree: Optional[int] = None,
    window: int = _DEFAULT_WINDOW,
) -> CsrRows:
    """The facebook-kind undirected adjacency CSR (symmetrised proposals).

    Proposals are drawn with ``halve_target=True``: symmetrisation means
    every user also receives ~one edge per incoming proposal, so halving
    the drawn target keeps the *realised* mean degree on the drawn
    power-law — the same degree semantics as the legacy configuration
    model on the same ``(alpha, max_degree)`` support.
    """
    return symmetrized(
        proposal_rows(
            num_users,
            alpha,
            seed,
            min_degree=min_degree,
            max_degree=max_degree,
            window=window,
            halve_target=True,
        )
    )


def stream_follower_rows(
    num_users: int,
    alpha: float,
    seed: int,
    *,
    min_degree: int = 1,
    max_degree: Optional[int] = None,
    window: int = _DEFAULT_WINDOW,
) -> Tuple[CsrRows, CsrRows]:
    """The twitter-kind ``(followers, followees)`` CSR pair.

    ``followers.row(u)`` (= ``u``'s proposals = his replica candidates)
    is power-law sized and pure per user; ``followees`` is its
    transpose.
    """
    followers = proposal_rows(
        num_users,
        alpha,
        seed,
        min_degree=min_degree,
        max_degree=max_degree,
        window=window,
    )
    return followers, transposed(followers)


def stream_social_graph(
    num_users: int,
    alpha: float,
    seed: int,
    *,
    min_degree: int = 1,
    max_degree: Optional[int] = None,
) -> SocialGraph:
    """Eager :class:`SocialGraph` view of the stream layout (reference
    path; the sharded pipeline keeps the CSR instead)."""
    adjacency = stream_adjacency(
        num_users, alpha, seed, min_degree=min_degree, max_degree=max_degree
    )
    graph = SocialGraph()
    for user in range(num_users):
        graph.add_user(user)
    for user in range(num_users):
        for other in adjacency.row_list(user):
            if other > user:
                graph.add_edge(user, other)
    return graph


def stream_follower_graph(
    num_users: int,
    alpha: float,
    seed: int,
    *,
    min_degree: int = 1,
    max_degree: Optional[int] = None,
) -> FollowerGraph:
    """Eager :class:`FollowerGraph` view of the stream layout."""
    followers, _followees = stream_follower_rows(
        num_users, alpha, seed, min_degree=min_degree, max_degree=max_degree
    )
    graph = FollowerGraph()
    for user in range(num_users):
        graph.add_user(user)
    for user in range(num_users):
        for follower in followers.row_list(user):
            graph.add_follow(follower, user)
    return graph


def induced_social_subgraph(
    adjacency: CsrRows, keep: Iterable[UserId]
) -> SocialGraph:
    """Python :class:`SocialGraph` induced on ``keep``, from CSR rows."""
    keep_set = set(int(u) for u in keep)
    sub = SocialGraph()
    for user in keep_set:
        sub.add_user(user)
    for user in keep_set:
        for other in adjacency.row_list(user):
            if other > user and other in keep_set:
                sub.add_edge(user, other)
    return sub


def induced_follower_subgraph(
    followers: CsrRows, keep: Iterable[UserId]
) -> FollowerGraph:
    """Python :class:`FollowerGraph` induced on ``keep``, from CSR rows."""
    keep_set = set(int(u) for u in keep)
    sub = FollowerGraph()
    for user in keep_set:
        sub.add_user(user)
    for followee in keep_set:
        for follower in followers.row_list(followee):
            if follower in keep_set:
                sub.add_follow(follower, followee)
    return sub
