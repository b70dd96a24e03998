"""The paper's dataset-filtering pipeline (§IV-A).

Two rules are applied to the raw traces:

1. *activity filter* — "We filtered out users with very little activity
   (less than 10 wall-posts or tweets)";
2. *candidate filter* (Twitter only) — "we excluded all the users whose
   followers are not present in the dataset": a user with no in-dataset
   replica candidates cannot take part in an F2F study at all.

Filtering is iterated to a fixed point, because removing a user can strip
another user of his last follower or drop activities below the threshold
(activities whose creator or receiver was removed no longer count).  The
rules only get harder to meet as users go, so the fixed point is unique;
:func:`surviving_mask` computes it for the eager :func:`filter_dataset`
and the sharded :class:`~repro.datasets.sharding.ShardedDataset` alike.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.datasets.schema import Dataset
from repro.graph.stream import CsrRows

#: Users per chunk of :func:`segment_counts` (bounds its transients).
DEFAULT_WINDOW = 65536


def segment_counts(
    alive: np.ndarray, rows: CsrRows, window: int = DEFAULT_WINDOW
) -> np.ndarray:
    """Per-row count of entries ``v`` with ``alive[v]``, chunked.

    Equivalent to a whole-array ``alive[indices]`` cumsum prefix differenced
    at ``indptr``, but processed ``window`` rows at a time so the mask
    and prefix transients stay bounded by one window's segment span.
    """
    flat, offsets = rows.indices, rows.indptr
    n = len(offsets) - 1
    counts = np.empty(n, dtype=np.int64)
    for lo in range(0, n, window):
        hi = min(lo + window, n)
        segment = alive[flat[offsets[lo] : offsets[hi]]]
        prefix = np.zeros(len(segment) + 1, dtype=np.int64)
        np.cumsum(segment, out=prefix[1:])
        local = offsets[lo : hi + 1] - offsets[lo]
        counts[lo:hi] = prefix[local[1:]] - prefix[local[:-1]]
    return counts


def surviving_mask(
    receivers: CsrRows,
    min_activities: int,
    candidates: Optional[CsrRows] = None,
    *,
    window: int = DEFAULT_WINDOW,
) -> np.ndarray:
    """The §IV-A fixed point as a boolean alive mask over users ``0..N-1``.

    ``receivers`` row ``u`` lists the receiver of every activity ``u``
    created; ``candidates`` (Twitter) row ``u`` lists ``u``'s replica
    candidates.  A user survives while at least ``min_activities`` of his
    activities land on survivors and, when ``candidates`` is given, at
    least one of his candidates survives.  Rounds repeat until one
    removes nobody; there is no round cap.
    """
    alive = np.ones(receivers.num_users, dtype=bool)
    while True:
        counts = segment_counts(alive, receivers, window)
        keep = alive & (counts >= min_activities)
        if candidates is not None:
            keep &= segment_counts(alive, candidates, window) > 0
        if np.array_equal(keep, alive):
            return alive
        alive = keep


def filter_dataset(
    dataset: Dataset,
    *,
    min_activities: int = 10,
    require_candidates: bool = False,
) -> Dataset:
    """Apply the activity (and optionally candidate) filters to fixpoint.

    Builds the creator → receiver CSR (and, with ``require_candidates``,
    the candidate CSR) once, resolves the survivors with
    :func:`surviving_mask`, and restricts the graph and the trace once.
    Only graph users take part: an activity whose creator or receiver is
    not in the graph never counts and is dropped.  Returns a new
    :class:`Dataset`; the input is not modified.
    """
    if min_activities < 0:
        raise ValueError("min_activities must be >= 0")
    graph = dataset.graph
    trace = dataset.trace
    users = list(graph.users())
    index = {user: i for i, user in enumerate(users)}
    received: List[List[int]] = [[] for _ in users]
    for act in trace:
        creator = index.get(act.creator)
        receiver = index.get(act.receiver)
        if creator is not None and receiver is not None:
            received[creator].append(receiver)
    candidates = None
    if require_candidates:
        candidates = CsrRows.build(
            lambda i: [index[c] for c in graph.replica_candidates(users[i])],
            len(users),
        )
    alive = surviving_mask(
        CsrRows.build(received.__getitem__, len(users)),
        min_activities,
        candidates,
    )
    keep = {users[i] for i in np.flatnonzero(alive)}
    if len(keep) < len(users):
        graph = graph.subgraph(keep)
    trace = trace.restricted_to(keep)
    return Dataset(
        name=dataset.name,
        kind=dataset.kind,
        graph=graph,
        trace=trace,
        notes=dataset.notes
        + (
            f" | filtered: min_activities={min_activities}"
            + (", require_candidates" if require_candidates else "")
        ),
    )
