"""All users' canonical interval schedules in flat CSR arrays.

:class:`PackedSchedules` packs every user's canonical interval endpoints
into three flat arrays (``starts``, ``ends``, ``offsets``), built once
per ``(model, seed)`` by :func:`repro.onlinetime.packed_schedules`.  The
vectorized DES replay (:class:`~repro.simulator.VectorizedReplay`) reads
one user's row at a time through :meth:`PackedSchedules.row_slice`.
The sweeps, placements, metrics and point queries all run on
the exact interval scans of :mod:`repro.timeline.intervals`.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.graph.social_graph import UserId
from repro.timeline.intervals import IntervalSet


class PackedSchedules:
    """All users' canonical intervals in flat CSR arrays.

    ``starts``/``ends`` hold every user's interval endpoints
    back-to-back; user ``i``'s intervals are the slice
    ``offsets[i]:offsets[i+1]``.  Users absent from the source mapping
    (or queried but never packed) behave as never online.  Instances are
    immutable and safe to share across processes — the DES replay ships
    one with its fork-shared worker payload.
    """

    __slots__ = (
        "users",
        "starts",
        "ends",
        "offsets",
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
        # user -> row map, built on first lookup.
        self._index: Optional[Dict[UserId, int]] = None

    def _index_map(self) -> Dict[UserId, int]:
        if self._index is None:
            self._index = {u: i for i, u in enumerate(self.users)}
        return self._index

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
