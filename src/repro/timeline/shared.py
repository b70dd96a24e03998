"""Shared-memory backing for :class:`~repro.timeline.packed.PackedSchedules`.

The fork-based persistent pool already shares the packed arrays with its
workers for free (copy-on-write pages through the fork snapshot), but
any path that *pickles* a payload — respawned workers, schedules built
after the pool, external tooling — ships a full copy of every array to
every worker.  At million-user scale the packed endpoints are hundreds
of megabytes, so copies, not compute, become the wall.

:class:`SharedPackedSchedules` stores the four defining arrays (users,
offsets, starts, ends) in one :class:`multiprocessing.shared_memory`
block.  Pickling transmits only the block *name*: a worker attaches to
the same physical pages and rebuilds lightweight views, so ``jobs=N``
holds one copy of the endpoints regardless of N.

Lifecycle: the creating process owns the block and must call
:meth:`close` (or let :meth:`__del__` fire) to unlink it; attached
processes close their mapping only.  Row reads are bit-identical to
the heap-backed packing — the arrays hold the very same float64/int64
values, only the pages behind them differ.

Against *unclean* exits — a SIGKILLed owner never runs :meth:`close`,
leaving the block pinned in ``/dev/shm`` forever — every created block
is registered in a :class:`~repro.resilience.SegmentRegistry` (the
process default unless one is passed explicitly, ``registry=None`` to
opt out).  The registry's startup/exit reapers unlink exactly those
orphans; see :mod:`repro.resilience.segments`.
"""

from __future__ import annotations

from multiprocessing import resource_tracker, shared_memory
from typing import Mapping, Optional, Tuple

import numpy as np

from repro.graph.social_graph import UserId
from repro.resilience.segments import SegmentRegistry, default_registry
from repro.timeline.intervals import IntervalSet
from repro.timeline.packed import PackedSchedules

__all__ = ["SharedPackedSchedules"]

#: Distinguishes "no registry argument" (use the process default) from
#: an explicit ``registry=None`` (no registration at all).
_DEFAULT_REGISTRY = object()

_INT = np.dtype(np.int64)
_FLOAT = np.dtype(np.float64)


def _layout(n_users: int, n_intervals: int):
    """(offset, dtype, count) of each array inside the block."""
    users_bytes = n_users * _INT.itemsize
    offsets_bytes = (n_users + 1) * _INT.itemsize
    endpoints_bytes = n_intervals * _FLOAT.itemsize
    return (
        ("users", 0, _INT, n_users),
        ("offsets", users_bytes, _INT, n_users + 1),
        ("starts", users_bytes + offsets_bytes, _FLOAT, n_intervals),
        (
            "ends",
            users_bytes + offsets_bytes + endpoints_bytes,
            _FLOAT,
            n_intervals,
        ),
    )


def _total_bytes(n_users: int, n_intervals: int) -> int:
    name, offset, dtype, count = _layout(n_users, n_intervals)[-1]
    return offset + count * dtype.itemsize


def _views(
    shm: shared_memory.SharedMemory, n_users: int, n_intervals: int
):
    """Read-only ndarray views over the block, in layout order."""
    out = []
    for _name, offset, dtype, count in _layout(n_users, n_intervals):
        view = np.ndarray(
            (count,), dtype=dtype, buffer=shm.buf, offset=offset
        )
        view.flags.writeable = False
        out.append(view)
    return tuple(out)


def _attach(name: str, n_users: int, n_intervals: int):
    """Rebuild an attached (non-owning) instance in a worker process.

    Module-level so pickled instances reduce to ``(_attach, (name, ...))``.
    """
    shm = shared_memory.SharedMemory(name=name)
    # Python < 3.13 has no track=False: the attach above registered the
    # segment with this process's resource tracker, which would try to
    # unlink it a second time (and warn) at exit.  Only the creating
    # process owns cleanup, so drop the duplicate registration.
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass
    return SharedPackedSchedules(shm, n_users, n_intervals, owner=False)


class SharedPackedSchedules(PackedSchedules):
    """A :class:`PackedSchedules` whose arrays live in one shared block.

    Build with :meth:`from_schedules` / :meth:`from_packed` in the
    owning process; pickling (e.g. into a pool worker) transmits the
    block name and the receiving process attaches instead of copying.
    """

    __slots__ = ("shm", "owner", "_n_intervals", "_closed", "_registry")

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        n_users: int,
        n_intervals: int,
        *,
        owner: bool,
        registry: Optional[SegmentRegistry] = None,
    ):
        self.shm = shm
        self.owner = owner
        self._n_intervals = n_intervals
        self._closed = False
        self._registry = registry if owner else None
        users, offsets, starts, ends = _views(shm, n_users, n_intervals)
        super().__init__(users, starts, ends, offsets)

    @classmethod
    def from_packed(
        cls, packed: PackedSchedules, *, registry=_DEFAULT_REGISTRY
    ) -> "SharedPackedSchedules":
        """Copy a heap-backed packing into a fresh shared block.

        The block is recorded in ``registry`` (default: the process
        :func:`~repro.resilience.default_registry`, which also reaps
        orphans of earlier SIGKILLed runs on first use; pass ``None``
        to skip registration entirely).
        """
        users = np.asarray(packed.users)
        if not np.issubdtype(users.dtype, np.integer):
            raise TypeError(
                "shared packing requires integer user ids; got dtype "
                f"{users.dtype}"
            )
        users = users.astype(np.int64, copy=False)
        n_users = len(users)
        n_intervals = len(packed.starts)
        size = max(1, _total_bytes(n_users, n_intervals))
        shm = shared_memory.SharedMemory(create=True, size=size)
        if registry is _DEFAULT_REGISTRY:
            registry = default_registry()
        if registry is not None:
            registry.register(shm.name, size)
        for (name, offset, dtype, count), source in zip(
            _layout(n_users, n_intervals),
            (users, packed.offsets, packed.starts, packed.ends),
        ):
            view = np.ndarray(
                (count,), dtype=dtype, buffer=shm.buf, offset=offset
            )
            view[:] = source
        return cls(shm, n_users, n_intervals, owner=True, registry=registry)

    @classmethod
    def from_schedules(
        cls,
        schedules: Mapping[UserId, IntervalSet],
        *,
        registry=_DEFAULT_REGISTRY,
    ) -> "SharedPackedSchedules":
        return cls.from_packed(
            PackedSchedules.from_schedules(schedules), registry=registry
        )

    @property
    def shared_name(self) -> str:
        """The OS-level block name workers attach by."""
        return self.shm.name

    def __reduce__(self):
        return (_attach, (self.shm.name, len(self.users), self._n_intervals))

    def close(self) -> None:
        """Release this process's mapping; the owner also unlinks.

        Idempotent.  Numpy views into the buffer must be dropped before
        the mapping can close, so the instance degrades to an empty
        packing rather than keeping the pages alive.
        """
        if self._closed:
            return
        self._closed = True
        name = self.shm.name
        empty_f = np.empty(0, dtype=np.float64)
        empty_i = np.zeros(1, dtype=np.int64)
        self.users = np.empty(0, dtype=np.int64)
        self.starts = empty_f
        self.ends = empty_f
        self.offsets = empty_i
        self._index = None
        try:
            self.shm.close()
            if self.owner:
                # Workers attaching through _attach drop the tracker
                # registration (the cache is a name set, so their drop
                # also removes the creator's entry).  Re-registering
                # right before unlink keeps the tracker ledger balanced:
                # unlink's internal unregister always finds the name,
                # whether or not anyone ever attached.
                try:
                    resource_tracker.register(
                        self.shm._name, "shared_memory"
                    )
                except Exception:
                    pass
                self.shm.unlink()
        except (OSError, BufferError):
            pass
        finally:
            # Clean close: the segment is gone (or going), so drop the
            # registry record — whatever remains there after a run is,
            # by construction, a leak for the reaper.
            if self.owner and self._registry is not None:
                self._registry.unregister(name)

    def __del__(self):
        try:
            self.close()
        except BaseException:
            # Interpreter shutdown can tear the module out from under
            # us; a leaked block is the tracker's problem, not a crash.
            pass
