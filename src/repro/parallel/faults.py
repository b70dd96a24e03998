"""Deterministic fault injection for the supervised executor.

Production fault tolerance is only trustworthy if every failure mode the
supervisor claims to handle is actually exercised, repeatably, in tests.
:class:`FaultInjector` provides that: a frozen, picklable plan of faults
that ships to every pool worker at fork time (it rides the same
initializer as the shared payload) and fires deterministically — the same
chunk faults in the same way on every run, in every worker, under every
``PYTHONHASHSEED``, because all probabilistic decisions derive from
:func:`repro.seeding.derive_seed`.

Fault kinds, mirroring how real systems die.  Worker-chunk kinds:

* ``"crash"`` — the worker process exits hard (``os._exit``), the way a
  segfaulting native extension or an OOM kill takes a fork down.  The
  parent sees a broken pool and must rebuild it.
* ``"hang"`` — the worker sleeps far past any reasonable deadline, the
  way a livelocked or swapping worker behaves.  Only a per-chunk timeout
  (``chunk_timeout``) recovers from this.
* ``"error"`` — the worker raises :class:`InjectedFault`, the way an
  ordinary per-item bug surfaces.  The pool survives; the chunk retries.

Disk kinds (consulted by the cache's on-disk layer via
:meth:`FaultInjector.disk_fault`):

* ``"torn-write"`` — the write lands truncated at its final path, the
  way a crash mid-write tears a file.  Loads must treat it as a stale
  miss.
* ``"enospc"`` — the write raises ``OSError(ENOSPC)``, the way a full
  disk behaves.  The cache must degrade to memory-only, not crash.
* ``"slow-io"`` — the write stalls for ``slow_io_seconds`` first, the
  way a saturated device behaves.

Serving kind (consulted by the query plane via
:meth:`FaultInjector.apply_query`):

* ``"poison-query"`` — the query's compute raises
  :class:`InjectedFault`, the way a poisoned request surfaces.  With
  ``times=1`` the fallback retry succeeds; with ``times=None`` every
  path fails and only stale serving or refusal remains.

Each injection site only consults its own kinds, so one plan can mix
worker, disk and query faults without cross-firing.

Faults trigger per *attempt*: a rule with ``times=1`` faults the
first attempt at any matching chunk and lets the retry succeed, while
``times=None`` faults every attempt — a *poison* rule, which the
supervisor must bisect down to and quarantine.  Rules can match specific
items (``items={user_id}``) or any chunk (``items=frozenset()``).

The serial (``jobs=1``) path consults the injector too, but only
``"error"`` rules apply there — crashing or hanging the calling process
would take the whole run down, which is exactly what supervision exists
to prevent.
"""

from __future__ import annotations

import errno
import os
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence, Tuple

from repro.seeding import derive_rng

#: Worker-chunk fault kinds, in increasing order of subtlety.
CRASH = "crash"
HANG = "hang"
ERROR = "error"

#: Disk-layer fault kinds.
TORN_WRITE = "torn-write"
ENOSPC = "enospc"
SLOW_IO = "slow-io"

#: Serving-path fault kinds.
POISON_QUERY = "poison-query"

FAULT_KINDS: Tuple[str, ...] = (
    CRASH,
    HANG,
    ERROR,
    TORN_WRITE,
    ENOSPC,
    SLOW_IO,
    POISON_QUERY,
)

#: The kinds each injection site consults.
CHUNK_KINDS: Tuple[str, ...] = (CRASH, HANG, ERROR)
DISK_KINDS: Tuple[str, ...] = (TORN_WRITE, ENOSPC, SLOW_IO)
QUERY_KINDS: Tuple[str, ...] = (POISON_QUERY,)

#: Exit code used by injected crashes, distinguishable from real faults.
CRASH_EXIT_CODE = 87


class InjectedFault(RuntimeError):
    """The exception raised by ``"error"`` faults."""


@dataclass(frozen=True)
class FaultRule:
    """One fault trigger.

    ``items`` — fire only on chunks containing at least one of these
    items; empty means *any* chunk.  ``times`` — fire while
    ``attempt < times`` (so ``times=1`` faults only the first attempt);
    ``None`` fires on every attempt (a poison rule).  ``probability``
    thins the rule with a deterministic coin derived from the injector
    seed, the rule kind, the chunk's first item and the attempt number.
    """

    kind: str
    items: frozenset = field(default_factory=frozenset)
    times: Optional[int] = 1
    probability: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if self.times is not None and self.times < 1:
            raise ValueError("times must be >= 1 (None = every attempt)")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")

    def matches(self, items: Sequence[Any], attempt: int, seed: int) -> bool:
        if self.times is not None and attempt >= self.times:
            return False
        if self.items and not self.items.intersection(items):
            return False
        if self.probability < 1.0:
            anchor = items[0] if items else ""
            coin = derive_rng(seed, "fault", self.kind, anchor, attempt)
            if coin.random() >= self.probability:
                return False
        return True


@dataclass(frozen=True)
class FaultInjector:
    """A deterministic plan of worker faults (frozen, fork-shareable).

    First matching rule wins.  ``hang_seconds`` bounds how long a
    ``"hang"`` fault sleeps, so even an unsupervised test run terminates
    eventually.
    """

    rules: Tuple[FaultRule, ...] = ()
    seed: int = 0
    hang_seconds: float = 60.0
    #: How long a ``"slow-io"`` fault stalls a disk write.
    slow_io_seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.hang_seconds <= 0:
            raise ValueError("hang_seconds must be > 0")
        if self.slow_io_seconds < 0:
            raise ValueError("slow_io_seconds must be >= 0")

    # -- constructors -------------------------------------------------------

    @classmethod
    def once(
        cls,
        *,
        crash: Iterable[Any] = (),
        hang: Iterable[Any] = (),
        error: Iterable[Any] = (),
        any_chunk: Optional[str] = None,
        seed: int = 0,
        hang_seconds: float = 60.0,
    ) -> "FaultInjector":
        """Fault the *first* attempt of chunks containing the given items.

        ``any_chunk`` (a fault kind) additionally faults the first
        attempt of every chunk — the standard "kill the whole first
        round" stress pattern.
        """
        rules = []
        for kind, items in ((CRASH, crash), (HANG, hang), (ERROR, error)):
            items = frozenset(items)
            if items:
                rules.append(FaultRule(kind, items=items, times=1))
        if any_chunk is not None:
            rules.append(FaultRule(any_chunk, times=1))
        return cls(rules=tuple(rules), seed=seed, hang_seconds=hang_seconds)

    @classmethod
    def poison(
        cls,
        kind: str,
        items: Iterable[Any],
        *,
        seed: int = 0,
        hang_seconds: float = 60.0,
    ) -> "FaultInjector":
        """Fault *every* attempt at chunks containing the given items.

        The supervisor can only recover by bisecting the chunk and
        quarantining the poison items one by one.
        """
        return cls(
            rules=(FaultRule(kind, items=frozenset(items), times=None),),
            seed=seed,
            hang_seconds=hang_seconds,
        )

    @classmethod
    def random_faults(
        cls,
        *,
        seed: int = 0,
        crash: float = 0.0,
        hang: float = 0.0,
        error: float = 0.0,
        times: Optional[int] = 1,
        hang_seconds: float = 60.0,
    ) -> "FaultInjector":
        """Probabilistic soak-test plan (still fully deterministic in
        ``seed``): each chunk attempt draws one seeded coin per kind."""
        rules = tuple(
            FaultRule(kind, times=times, probability=p)
            for kind, p in ((CRASH, crash), (HANG, hang), (ERROR, error))
            if p > 0.0
        )
        return cls(rules=rules, seed=seed, hang_seconds=hang_seconds)

    @classmethod
    def poison_queries(
        cls,
        users: Iterable[Any],
        *,
        times: Optional[int] = None,
        seed: int = 0,
    ) -> "FaultInjector":
        """Poison the given users' point queries.

        ``times=None`` (default) poisons every compute attempt — only
        stale serving or refusal survives; ``times=1`` poisons only the
        primary attempt, so the fallback retry recovers.
        """
        return cls(
            rules=(
                FaultRule(
                    POISON_QUERY, items=frozenset(users), times=times
                ),
            ),
            seed=seed,
        )

    @classmethod
    def disk_faults(
        cls,
        *,
        torn: float = 0.0,
        enospc: float = 0.0,
        slow: float = 0.0,
        times: Optional[int] = 1,
        seed: int = 0,
        slow_io_seconds: float = 0.05,
    ) -> "FaultInjector":
        """Probabilistic disk-fault plan for the cache's on-disk layer."""
        rules = tuple(
            FaultRule(kind, times=times, probability=p)
            for kind, p in ((TORN_WRITE, torn), (ENOSPC, enospc), (SLOW_IO, slow))
            if p > 0.0
        )
        return cls(rules=rules, seed=seed, slow_io_seconds=slow_io_seconds)

    # -- behaviour ----------------------------------------------------------

    def fault_for(
        self,
        items: Sequence[Any],
        attempt: int,
        kinds: Optional[Sequence[str]] = None,
    ) -> Optional[str]:
        """The fault kind to inject for this attempt, if any.

        ``kinds`` restricts matching to one injection site's kinds (a
        chunk site never fires a disk rule and vice versa); ``None``
        considers every rule — the original chunk-site behaviour, kept
        for compatibility with existing chunk-only plans.
        """
        for rule in self.rules:
            if kinds is not None and rule.kind not in kinds:
                continue
            if rule.matches(items, attempt, self.seed):
                return rule.kind
        return None

    def apply(
        self,
        items: Sequence[Any],
        attempt: int,
        *,
        in_worker: bool = True,
    ) -> None:
        """Inject the planned chunk fault for this attempt, if any.

        Called by the pool's chunk runner before the real work.  With
        ``in_worker=False`` (the serial path) only ``"error"`` faults
        fire — crash/hang would kill the supervising process itself.
        """
        kind = self.fault_for(items, attempt, CHUNK_KINDS)
        if kind is None:
            return
        if kind == CRASH and in_worker:
            os._exit(CRASH_EXIT_CODE)
        elif kind == HANG and in_worker:
            time.sleep(self.hang_seconds)
        elif kind == ERROR:
            raise InjectedFault(
                f"injected fault on attempt {attempt} "
                f"(chunk of {len(items)} starting at {items[0]!r})"
                if items
                else f"injected fault on attempt {attempt} (empty chunk)"
            )

    def disk_fault(self, key: str, attempt: int) -> Optional[str]:
        """The disk fault to inject for this write attempt, if any.

        ``key`` is the cache entry's content address; rules with
        ``items`` match against it, empty-item rules match every write.
        """
        return self.fault_for([key], attempt, DISK_KINDS)

    def raise_enospc(self, path: str) -> None:
        """Raise the ``OSError`` a full disk would produce at ``path``."""
        raise OSError(
            errno.ENOSPC, "No space left on device (injected)", path
        )

    def apply_query(self, user: Any, attempt: int) -> None:
        """Inject a poisoned-query fault for this compute attempt, if any.

        Consulted by the query plane before each compute: ``attempt=0``
        is the primary path, ``attempt=1`` the degraded fallback retry —
        so ``times=1`` rules poison only the primary (a transient kernel
        failure) while ``times=None`` rules poison both (a truly
        poisoned request).
        """
        kind = self.fault_for([user], attempt, QUERY_KINDS)
        if kind == POISON_QUERY:
            raise InjectedFault(
                f"injected poisoned query for user {user!r} "
                f"on attempt {attempt}"
            )
