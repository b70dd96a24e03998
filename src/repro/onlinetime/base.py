"""Online-time model interface.

The datasets record *when users acted*, not when they were online; the
paper bridges the gap with three models (§IV-C) that map a user's activity
history to a daily online schedule.  Each model implements
:class:`OnlineTimeModel`.

Schedules are memoised on the dataset, one :class:`ScheduleMemo` per
``(model.cache_key(), seed)``.  A memo is demand-driven: it computes a
user's schedule on first lookup, so a sweep over a small cohort pays only
for the cohort and its replica candidates.  :func:`schedule_memo` returns
the memo as it stands; :func:`compute_schedules` completes it first, for
callers that need every schedule up front (packing, replay, the query
plane).  Lazy and eager give the same schedules because ``schedule(u)``
depends only on ``u``'s activities and ``derive_rng(seed, u)``.

Randomised models (Sporadic's in-session placement, RandomLength's window
length) draw from a per-user RNG derived from ``(seed, user_id)`` via
:func:`repro.seeding.derive_seed`, so a user's schedule is independent of
dict iteration order, of the process computing it, and of
``PYTHONHASHSEED`` — two runs with the same seed agree exactly, while the
paper's repeat-and-average protocol is a simple loop over seeds.
"""

from __future__ import annotations

import random
import weakref
from abc import ABC, abstractmethod
from typing import Dict, Optional, Tuple

from repro.datasets.schema import Dataset
from repro.graph.social_graph import UserId
from repro.seeding import derive_rng
from repro.timeline.intervals import IntervalSet
from repro.timeline.packed import PackedSchedules

Schedules = Dict[UserId, IntervalSet]

#: Attribute under which a dataset carries its schedule memos.
_CACHE_ATTR = "_repro_schedule_cache"

#: Memo entries kept per dataset (FIFO eviction beyond this).
_CACHE_MAX_ENTRIES = 32

_EMPTY = IntervalSet.empty()


def user_rng(seed: int, user: UserId) -> random.Random:
    """A reproducible per-user random source.

    Derived with a process- and version-independent hash (SHA-256), so the
    stream is identical in every pool worker and under every
    ``PYTHONHASHSEED``.
    """
    return derive_rng(seed, user)


class OnlineTimeModel(ABC):
    """Maps one user's activity history to a daily online schedule."""

    #: Short name used in reports and the model registry.
    name: str = "abstract"

    @abstractmethod
    def schedule(self, user: UserId, dataset: Dataset, seed: int) -> IntervalSet:
        """The daily online schedule of ``user`` under this model."""

    def describe(self) -> str:
        """One-line human-readable parameterisation."""
        return self.name

    def cache_key(self) -> Tuple[object, ...]:
        """Value key for the schedule memo.

        Two model instances with equal cache keys must produce identical
        schedules for every ``(dataset, seed)``.  The default captures the
        class plus :meth:`describe`, which holds for the paper models
        (their ``describe`` strings carry the full parameterisation);
        models with state not reflected in ``describe`` must override.
        """
        return (type(self).__qualname__, self.describe())


class ScheduleMemo(dict):
    """The schedules of one ``(model, seed)`` on one dataset, computed on
    first lookup.

    ``memo[u]`` returns a graph user's schedule, computing and storing it
    on a miss (``__missing__``); a hit is a plain dict lookup.  A user who
    is not in the graph raises :class:`KeyError`, so callers that default
    to the empty schedule (``get``, :func:`schedule_of`) behave as with
    an eager dict.  Iteration, ``len``, ``in`` and ``==`` see only the
    users computed so far until :meth:`complete` fills in the rest.

    The memo holds its dataset weakly: it hangs off that dataset, and a
    strong back-reference would keep every dropped shard view alive
    until a full garbage collection.  ``packed`` is the memo's CSR
    packing (see :func:`packed_schedules`), stored here so that the two
    are evicted together.
    """

    __slots__ = ("_dataset", "_model", "_seed", "_complete", "packed")

    def __init__(self, dataset: Dataset, model: "OnlineTimeModel", seed: int):
        super().__init__()
        self._dataset = weakref.ref(dataset)
        self._model = model
        self._seed = seed
        self._complete = False
        self.packed: Optional[PackedSchedules] = None

    def _owner(self) -> Dataset:
        dataset = self._dataset()
        if dataset is None:
            raise RuntimeError("schedule memo outlived its dataset")
        return dataset

    def __missing__(self, user: UserId) -> IntervalSet:
        if self._complete:
            raise KeyError(user)
        dataset = self._owner()
        if user not in dataset.graph:
            raise KeyError(user)
        schedule = self[user] = self._model.schedule(user, dataset, self._seed)
        return schedule

    def get(self, user: UserId, default=None):
        """Like ``dict.get``, but computes a graph user's schedule on a
        miss (``dict.get`` never calls ``__missing__``)."""
        try:
            return self[user]
        except KeyError:
            return default

    def complete(self) -> "ScheduleMemo":
        """Compute every missing schedule; afterwards the memo iterates in
        ``dataset.graph.users()`` order, exactly like an eager dict."""
        if not self._complete:
            dataset = self._owner()
            computed = dict(self)
            self.clear()
            for user in dataset.graph.users():
                schedule = computed.get(user)
                if schedule is None:
                    schedule = self._model.schedule(user, dataset, self._seed)
                self[user] = schedule
            self._complete = True
        return self


def schedule_of(schedules: Schedules, user: UserId) -> IntervalSet:
    """``user``'s schedule, or the empty schedule for a user without one.

    Looks up with ``[]`` so a :class:`ScheduleMemo` computes on a miss; a
    plain dict behaves like ``schedules.get(user, empty)``.
    """
    try:
        return schedules[user]
    except KeyError:
        return _EMPTY


def schedule_memo(
    dataset: Dataset, model: OnlineTimeModel, *, seed: int = 0
) -> ScheduleMemo:
    """The dataset's demand-driven schedule memo for ``(model, seed)``.

    One memo per ``(model.cache_key(), seed)`` lives on the dataset, so
    repeats with the same seed, multi-policy sweeps and the many figures
    sharing one model configuration all reuse each computed schedule.
    At most ``_CACHE_MAX_ENTRIES`` memos are kept (FIFO).  The returned
    mapping must be treated as read-only.
    """
    cache = getattr(dataset, _CACHE_ATTR, None)
    if cache is None:
        cache = {}
        object.__setattr__(dataset, _CACHE_ATTR, cache)
    key = (model.cache_key(), seed)
    memo = cache.get(key)
    if memo is None:
        if len(cache) >= _CACHE_MAX_ENTRIES:
            cache.pop(next(iter(cache)))  # FIFO: evict the oldest entry
        memo = cache[key] = ScheduleMemo(dataset, model, seed)
    return memo


def compute_schedules(
    dataset: Dataset, model: OnlineTimeModel, *, seed: int = 0
) -> ScheduleMemo:
    """Evaluate ``model`` for every user in the dataset.

    Returns the :func:`schedule_memo` of ``(model, seed)``, completed: it
    holds every graph user and iterates in ``dataset.graph.users()``
    order.  Repeated calls return the same object.
    """
    return schedule_memo(dataset, model, seed=seed).complete()


def packed_schedules(
    dataset: Dataset, model: OnlineTimeModel, *, seed: int = 0
) -> PackedSchedules:
    """The CSR-packed counterpart of ``compute_schedules``, memoised.

    Packs the completed schedules of ``(model.cache_key(), seed)`` into a
    :class:`~repro.timeline.packed.PackedSchedules` exactly once per
    memo, for the numpy DES replay engine.  The packing is stored on the memo itself, so eviction and
    :func:`clear_schedule_cache` drop both as a unit: no packing can
    outlive the schedules it was built from.
    """
    memo = compute_schedules(dataset, model, seed=seed)
    if memo.packed is None:
        memo.packed = PackedSchedules.from_schedules(memo)
    return memo.packed


def clear_schedule_cache(dataset: Dataset) -> None:
    """Drop the dataset's schedule memos, packings included (frees memory
    after large sweeps)."""
    cache = getattr(dataset, _CACHE_ATTR, None)
    if cache is not None:
        cache.clear()
