"""Batched NumPy timeline kernel over packed interval schedules.

The evaluation stack reduces to three primitive operations executed
millions of times per sweep: pairwise schedule overlap (ConRep edge
weights and candidate filtering), greedy set-cover gain (MaxAv), and
per-activity containment/wait queries (the availability-on-demand-activity
scans).  Each is a short merge or bisection over one user's canonical
intervals — pure-Python loops that dominate the cost of full-trace runs.

:class:`PackedSchedules` packs *all* users' canonical interval endpoints
into flat CSR-style arrays (``starts``, ``ends``, ``offsets``) built once
per ``(model, seed)`` and shipped to pool workers inside the fork-shared
sweep payload.  On top of it this module implements the batch kernels the
``backend="numpy"`` evaluation path runs on:

* :meth:`PackedSchedules.overlap_row` — one schedule against many
  candidates in one ``np.searchsorted`` pass, filling a whole
  :class:`~repro.core.connectivity.OverlapCache` row per call;
* :meth:`PackedSchedules.overlap_against` — an arbitrary
  :class:`IntervalSet` (set-cover universe, running covered union)
  against many candidates: the greedy gains of every remaining
  candidate per step come from two such calls;
* :meth:`PackedSchedules.count_points_in_rows` — how many of a sorted
  point multiset each candidate's schedule contains (the
  activity-objective set-cover gain);
* :func:`batch_contains` / :func:`batch_wait_until` — all of a user's
  activity instants against one schedule at once;
* :meth:`PackedSchedules.contains_pairs` — a *pair-aligned* row-set
  variant: one call answers an arbitrary list of ``(user, instant)``
  containment queries spanning many different rows (every creator-online
  flag of an activity scan) with a vectorised per-row binary search,
  instead of one kernel dispatch per distinct user.

**Oracle-equivalence contract.**  The numpy backend must produce results
identical to the pure-Python reference path.  Containment, wait and
point-count kernels use only comparisons and the per-element arithmetic
of their scalar counterparts, so they are exact for *any* float
endpoints.  The duration-sum kernels (``overlap_row``,
``overlap_against``) accumulate in a different order than the Python
merge scan; they are therefore only used when every packed endpoint is
an integer-valued float (:attr:`PackedSchedules.exact`) — then every
partial sum is an exact integer below 2**53 and reduction order cannot
matter.  Schedules with fractional endpoints (e.g. Sporadic's random
in-session offsets) keep the Python merge scan for duration sums while
still vectorising the comparison-only kernels, so ``backend="numpy"``
is bit-identical to ``backend="python"`` unconditionally.
"""

from __future__ import annotations

import math
import sys
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.graph.social_graph import UserId
from repro.timeline.day import DAY_SECONDS
from repro.timeline.intervals import IntervalSet

#: Backend selector values accepted by the evaluation stack.
PYTHON = "python"
NUMPY = "numpy"
BACKENDS = (PYTHON, NUMPY)


def check_backend(backend: str) -> str:
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {BACKENDS}"
        )
    return backend


def endpoints_integral(schedule: IntervalSet) -> bool:
    """Whether every endpoint of ``schedule`` is an integer-valued float.

    Gates the duration-sum kernels when a *reference* set (set-cover
    universe, running covered union) enters the arithmetic: exactness
    needs every endpoint on both sides to be integral.
    """
    return all(
        float(s).is_integer() and float(e).is_integer()
        for s, e in schedule.intervals
    )


def _as_endpoint_arrays(
    intervals: Sequence[Tuple[float, float]]
) -> Tuple[np.ndarray, np.ndarray]:
    """Canonical intervals as (starts, ends) float64 arrays."""
    if not intervals:
        empty = np.empty(0, dtype=np.float64)
        return empty, empty
    arr = np.asarray(intervals, dtype=np.float64)
    return np.ascontiguousarray(arr[:, 0]), np.ascontiguousarray(arr[:, 1])


def _coverage_below(
    starts: np.ndarray,
    lengths: np.ndarray,
    cumlen: np.ndarray,
    x: np.ndarray,
) -> np.ndarray:
    """Measure of the interval list below each point of ``x``.

    ``cumlen[i]`` is the total length of the first ``i`` intervals; the
    cover function is ``cumlen[i] + clip(x - starts[i], 0, lengths[i])``
    for the last interval starting at or before ``x``.  All arithmetic is
    integral when the endpoints are.
    """
    idx = np.searchsorted(starts, x, side="right") - 1
    safe = np.maximum(idx, 0)
    inside = np.clip(x - starts[safe], 0.0, lengths[safe])
    return np.where(idx >= 0, cumlen[safe] + inside, 0.0)


def _segment_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sum ``values`` over consecutive segments of the given lengths.

    Uses a cumulative sum so zero-length segments contribute exactly 0
    (``np.add.reduceat`` mishandles empty segments).
    """
    csum = np.concatenate(([0.0], np.cumsum(values)))
    ends = np.cumsum(counts)
    return csum[ends] - csum[ends - counts]


class PackedSchedules:
    """All users' canonical intervals in flat CSR arrays.

    ``starts``/``ends`` hold every user's interval endpoints
    back-to-back; user ``i``'s intervals are the slice
    ``offsets[i]:offsets[i+1]``.  Users absent from the source mapping
    (or queried but never packed) behave as never online.  Instances are
    immutable and safe to share across processes — the sweep engine
    builds one per ``(model, seed)`` and ships it with the fork-shared
    worker payload.
    """

    __slots__ = (
        "users",
        "starts",
        "ends",
        "offsets",
        "lengths",
        "measures",
        "exact",
        "_index",
    )

    def __init__(
        self,
        users: Tuple[UserId, ...],
        starts: np.ndarray,
        ends: np.ndarray,
        offsets: np.ndarray,
    ):
        self.users = users
        self.starts = starts
        self.ends = ends
        self.offsets = offsets
        self.lengths = ends - starts
        #: Per-user daily online measure, in row order.
        self.measures = _segment_sums(self.lengths, np.diff(offsets))
        self.exact = bool(
            np.all(np.isfinite(starts))
            and np.all(np.isfinite(ends))
            and np.all(starts == np.floor(starts))
            and np.all(ends == np.floor(ends))
        )
        # user -> row map, built on first lookup: a process that only
        # runs whole-row kernels (or attaches to a shared block) never
        # pays for the dict.
        self._index: Optional[Dict[UserId, int]] = None

    def _index_map(self) -> Dict[UserId, int]:
        if self._index is None:
            self._index = {int(u): i for i, u in enumerate(self.users)}
        return self._index

    def _rows_of(self, users: Sequence[UserId]) -> np.ndarray:
        """Row index per user, ``-1`` for users packed as never online."""
        index = self._index_map()
        return np.fromiter(
            (index.get(u, -1) for u in users),
            dtype=np.int64,
            count=len(users),
        )

    @classmethod
    def from_schedules(
        cls, schedules: Mapping[UserId, IntervalSet]
    ) -> "PackedSchedules":
        """Pack a schedules mapping (iteration order preserved)."""
        users = tuple(schedules)
        counts = np.fromiter(
            (len(schedules[u].intervals) for u in users),
            dtype=np.int64,
            count=len(users),
        )
        offsets = np.concatenate(([0], np.cumsum(counts)))
        total = int(offsets[-1])
        # One fromiter pass per endpoint column: same floats as the old
        # per-interval loop, a fraction of the interpreter overhead.
        starts = np.fromiter(
            (s for u in users for s, _ in schedules[u].intervals),
            dtype=np.float64,
            count=total,
        )
        ends = np.fromiter(
            (e for u in users for _, e in schedules[u].intervals),
            dtype=np.float64,
            count=total,
        )
        return cls(users, starts, ends, offsets)

    @property
    def nbytes(self) -> int:
        """Memory held by *all* owned buffers (observability rollups).

        Covers the five packed arrays plus the user-id container and the
        lazily built user→row index — the structures a copied-per-worker
        instance actually duplicates, which is what the attached-vs-copied
        RSS accounting of the scale benchmark compares against.
        """
        total = (
            self.starts.nbytes
            + self.ends.nbytes
            + self.offsets.nbytes
            + self.lengths.nbytes
            + self.measures.nbytes
        )
        if isinstance(self.users, np.ndarray):
            total += self.users.nbytes
        else:
            total += sys.getsizeof(self.users) + sum(
                sys.getsizeof(u) for u in self.users
            )
        if self._index is not None:
            total += sys.getsizeof(self._index)
        return total

    def __len__(self) -> int:
        return len(self.users)

    def row_index(self, user: UserId) -> int:
        """Row of ``user``, or ``-1`` for users packed as never online."""
        return self._index_map().get(user, -1)

    def row_slice(self, user: UserId) -> Tuple[np.ndarray, np.ndarray]:
        """One user's (starts, ends) views (empty for unknown users)."""
        row = self.row_index(user)
        if row < 0:
            empty = np.empty(0, dtype=np.float64)
            return empty, empty
        lo, hi = self.offsets[row], self.offsets[row + 1]
        return self.starts[lo:hi], self.ends[lo:hi]

    def _gather(
        self, users: Sequence[UserId]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flattened (starts, ends, per-user counts) for a user subset."""
        if not len(self.users):  # offsets is just [0]; every lookup misses
            empty = np.empty(0, dtype=np.float64)
            return empty, empty, np.zeros(len(users), dtype=np.int64)
        index = self._index_map()
        rows = np.fromiter(
            (index.get(u, -1) for u in users),
            dtype=np.int64,
            count=len(users),
        )
        safe = np.maximum(rows, 0)
        counts = np.where(
            rows >= 0, self.offsets[safe + 1] - self.offsets[safe], 0
        )
        base = np.where(rows >= 0, self.offsets[safe], 0)
        segment_starts = np.cumsum(counts) - counts
        flat = (
            np.arange(int(counts.sum()), dtype=np.int64)
            + np.repeat(base - segment_starts, counts)
        )
        return self.starts[flat], self.ends[flat], counts

    # -- duration-sum kernels (require .exact for oracle equivalence) ------

    def overlap_against(
        self, reference: IntervalSet, users: Sequence[UserId]
    ) -> np.ndarray:
        """Overlap duration of ``reference`` with each user's schedule.

        One vectorised pass: the reference's cumulative-coverage function
        is evaluated at every candidate endpoint (``np.searchsorted``
        clipping) and differenced, then segment-summed per candidate.
        Exact — equal to ``reference.overlap(schedule)`` float for float
        — whenever all endpoints involved are integral.
        """
        a_starts, a_ends = _as_endpoint_arrays(reference.intervals)
        return self._overlap_arrays(a_starts, a_ends, users)

    def overlap_row(
        self, user: UserId, others: Sequence[UserId]
    ) -> np.ndarray:
        """Overlap of one packed user's schedule with many others."""
        a_starts, a_ends = self.row_slice(user)
        return self._overlap_arrays(a_starts, a_ends, others)

    def _overlap_arrays(
        self,
        a_starts: np.ndarray,
        a_ends: np.ndarray,
        users: Sequence[UserId],
    ) -> np.ndarray:
        if not len(users):
            return np.empty(0, dtype=np.float64)
        b_starts, b_ends, counts = self._gather(users)
        if not a_starts.size or not b_starts.size:
            return np.zeros(len(users), dtype=np.float64)
        lengths = a_ends - a_starts
        cumlen = np.concatenate(([0.0], np.cumsum(lengths)))[:-1]
        contrib = _coverage_below(
            a_starts, lengths, cumlen, b_ends
        ) - _coverage_below(a_starts, lengths, cumlen, b_starts)
        return _segment_sums(contrib, counts)

    # -- comparison-only kernels (exact for any endpoints) -----------------

    def count_points_in_rows(
        self, users: Sequence[UserId], sorted_points: np.ndarray
    ) -> np.ndarray:
        """How many of the sorted points each user's schedule contains.

        Points must be seconds-of-day in ``[0, DAY)`` and sorted
        ascending.  Half-open semantics match ``IntervalSet.contains``:
        a point equal to an interval start counts, one equal to its end
        does not.  Counts are integers, hence exact for any endpoints.
        """
        if not len(users):
            return np.empty(0, dtype=np.float64)
        b_starts, b_ends, counts = self._gather(users)
        if not sorted_points.size or not b_starts.size:
            return np.zeros(len(users), dtype=np.float64)
        per_interval = np.searchsorted(
            sorted_points, b_ends, side="left"
        ) - np.searchsorted(sorted_points, b_starts, side="left")
        return _segment_sums(per_interval.astype(np.float64), counts)

    def contains_row(self, user: UserId, instants: np.ndarray) -> np.ndarray:
        """Boolean containment of each instant in one packed schedule."""
        starts, ends = self.row_slice(user)
        return _contains_arrays(starts, ends, instants)

    # -- pair-aligned kernels ----------------------------------------------

    def _row_bisect_right(
        self, rows: np.ndarray, values: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-row ``bisect_right`` of each value into its row's starts.

        Returns ``(idx, base)`` where ``base[i]`` is the global offset of
        row ``rows[i]``'s first interval and ``idx[i]`` the global index
        of the *last* interval of that row whose start is ``<=
        values[i]`` — or ``base[i] - 1`` when no interval qualifies
        (including empty rows and unknown users, ``rows[i] < 0``).

        A vectorised binary search over the row slices: pure float
        comparisons against the stored endpoints, so the split points
        are bit-identical to the scalar per-row bisection for *any*
        endpoints — unlike a band-shift trick, no added offsets that
        could round fractional starts.
        """
        starts = self.starts
        safe_rows = np.maximum(rows, 0)
        lo = np.where(rows >= 0, self.offsets[safe_rows], 0).astype(np.int64)
        hi = np.where(
            rows >= 0, self.offsets[safe_rows + 1], 0
        ).astype(np.int64)
        base = lo.copy()
        while True:
            active = lo < hi
            if not active.any():
                break
            mid = (lo + hi) >> 1
            le = np.zeros(len(lo), dtype=bool)
            le[active] = starts[mid[active]] <= values[active]
            go = active & le
            stay = active & ~le
            lo[go] = mid[go] + 1
            hi[stay] = mid[stay]
        return lo - 1, base

    def contains_pairs(
        self, users: Sequence[UserId], instants: np.ndarray
    ) -> np.ndarray:
        """Aligned containment: was ``users[i]`` online at ``instants[i]``?

        The row-set variant of :meth:`contains_row`: one vectorised
        per-row bisection answers every ``(user, instant)`` pair in a
        single call — e.g. all the creator-online flags of an activity
        scan — instead of one kernel dispatch per distinct user.
        Comparison-only, hence identical to the scalar
        ``IntervalSet.contains`` bisection for any float endpoints;
        unknown users read as never online.
        """
        instants = np.asarray(instants, dtype=np.float64)
        n = len(instants)
        if not n or not len(self.users) or not self.starts.size:
            return np.zeros(n, dtype=bool)
        rows = self._rows_of(users)
        t = np.mod(instants, DAY_SECONDS)
        idx, base = self._row_bisect_right(rows, t)
        safe = np.maximum(idx, 0)
        return (idx >= base) & (t < self.ends[safe])


def _contains_arrays(
    starts: np.ndarray, ends: np.ndarray, instants: np.ndarray
) -> np.ndarray:
    if not starts.size:
        return np.zeros(len(instants), dtype=bool)
    t = np.mod(instants, DAY_SECONDS)
    idx = np.searchsorted(starts, t, side="right") - 1
    safe = np.maximum(idx, 0)
    return (idx >= 0) & (t < ends[safe])


def batch_contains(schedule: IntervalSet, instants: np.ndarray) -> np.ndarray:
    """Vectorised ``schedule.contains``: one boolean per instant.

    Pure comparisons — identical to the scalar bisection for any float
    endpoints and instants.
    """
    starts, ends = _as_endpoint_arrays(schedule.intervals)
    return _contains_arrays(starts, ends, np.asarray(instants, dtype=np.float64))


def batch_wait_until(
    schedule: IntervalSet, instants: np.ndarray
) -> np.ndarray:
    """Vectorised ``schedule.wait_until``: seconds to next activity.

    Mirrors the scalar bisection operation for operation (``next_start -
    t`` within the day, ``DAY - t + first_start`` across midnight), so
    each wait is the identical float; the empty schedule yields ``inf``
    everywhere.
    """
    instants = np.asarray(instants, dtype=np.float64)
    starts, ends = _as_endpoint_arrays(schedule.intervals)
    if not starts.size:
        return np.full(len(instants), math.inf)
    t = np.mod(instants, DAY_SECONDS)
    idx = np.searchsorted(starts, t, side="right") - 1
    safe = np.maximum(idx, 0)
    covered = (idx >= 0) & (t < ends[safe])
    nxt = np.minimum(idx + 1, len(starts) - 1)
    within_day = starts[nxt] - t
    wrapped = DAY_SECONDS - t + starts[0]
    wait = np.where(idx + 1 < len(starts), within_day, wrapped)
    return np.where(covered, 0.0, wait)


def creator_online_flags(
    packed: PackedSchedules,
    creators: Sequence[UserId],
    instants: np.ndarray,
) -> np.ndarray:
    """Whether each activity's creator was online at its instant.

    One :meth:`PackedSchedules.contains_pairs` call for the whole
    activity list — the expected/unexpected split of the activity scans
    with a single kernel dispatch, no per-creator grouping loop.  The
    pair kernel runs the same per-row bisection as the scalar
    containment, so the flags are bit-identical for any endpoints.
    """
    return packed.contains_pairs(creators, instants)
