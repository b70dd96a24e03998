"""Supervised process-pool execution of embarrassingly parallel work.

The paper's protocol evaluates every (policy × replication-degree ×
repeat) cell over a cohort of users — per-user work with a large shared
read-only context (dataset, schedules, policies).  :class:`ParallelExecutor`
runs that shape over a process pool:

* the shared context (*payload*) reaches each worker **once**, by fork
  at pool start, never per task;
* a pool lives for one :meth:`~ParallelExecutor.map_shared` call: it is
  forked when the call starts and torn down before the call returns, so
  no worker process outlives the call (pool starts are counted in
  :attr:`ParallelExecutor.pool_stats`);
* items are split into contiguous chunks and results return in item
  order, so serial and parallel runs aggregate identically;
* ``jobs=1`` (the default) runs everything inline in the calling process
  — the exact code path the workers execute — and platforms without the
  ``fork`` start method fall back to the same serial path;
* every mapped phase is timed (wall-clock seconds, items processed,
  items/s) and accumulated in :attr:`ParallelExecutor.timings` for the
  experiment reports; long-lived executors shared across experiments
  take per-experiment deltas via :meth:`snapshot_timings` /
  :meth:`timings_since`.

Fault tolerance: chunks are dispatched under a **supervisor** rather
than a bare pool map.  A worker that raises, dies (breaking the pool) or
hangs past the per-chunk deadline (``chunk_timeout``, off by default) is
answered by pool teardown + rebuild where needed and chunk retry with
exponential backoff and deterministic jitter
(:class:`~repro.parallel.supervise.RetryPolicy`).  A worker death fails
every in-flight chunk at once, so the chunks it interrupted first rerun
one at a time: only a chunk that kills a pool on its own is charged an
attempt, and a healthy chunk that ran beside a poison one is never
bisected or quarantined.  A chunk that keeps failing is bisected and
its halves retried, narrowing the failure to the single poison item,
which is **quarantined**: excluded from the phase,
reported in :attr:`ParallelExecutor.failures` (a
:class:`~repro.parallel.supervise.FailureReport` with item, error and
traceback) and returned as the
:data:`~repro.parallel.supervise.QUARANTINED` placeholder in its result
slot so callers keep exact item alignment.  ``strict=True`` restores
fail-fast.  A deterministic
:class:`~repro.parallel.faults.FaultInjector` can be attached to
exercise all of this on purpose; it rides the pool initializer to the
workers.  Supervision events are counted in
:attr:`ParallelExecutor.pool_stats` (rebuilds / retries / timeouts /
quarantined) next to the lifecycle counters.

Lifecycle: an executor holds no process between calls.  A call that
succeeds shuts its pool down gracefully; a call that fails — a strict-mode
raise, a ``KeyboardInterrupt``, any other exception — kills its workers
(a graceful join could block on a hung fork) and reaps them before the
exception propagates.  Crash rebuilds and retry rounds happen inside the
call.  :meth:`close` and the context-manager protocol are no-ops, kept
so that callers which close an executor or use it in ``with`` still work.

Determinism contract: given a deterministic ``worker`` function, results
are bit-identical for every ``jobs`` value — the engine only changes
*where* chunks run, never what is computed or in which order results are
consumed.  Supervision preserves this: retries re-run pure per-item work
with the same inputs (the attempt number is visible only to the fault
injector), backoff schedules work but computes nothing, and results are
placed by absolute item offset regardless of completion order.
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
import warnings
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
)
from concurrent.futures import wait as _futures_wait
from dataclasses import dataclass, field, fields as dataclass_fields
from dataclasses import asdict as dataclass_asdict, astuple as dataclass_astuple
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.parallel.faults import FaultInjector
from repro.parallel.supervise import (
    KIND_ERROR,
    KIND_TIMEOUT,
    KIND_WORKER_LOST,
    QUARANTINED,
    ChunkFailure,
    ChunkFailureError,
    ChunkTask,
    FailureReport,
    QuarantinedItem,
    RetryPolicy,
)

#: Per-worker globals installed by the pool initializer (fork start method:
#: inherited memory, so the payload is never pickled per task).
_WORKER: Optional[Callable[[Any, Sequence[Any]], List[Any]]] = None
_PAYLOAD: Any = None
_INJECTOR: Optional[FaultInjector] = None


def _init_worker(
    worker: Callable, payload: Any, injector: Optional[FaultInjector]
) -> None:
    global _WORKER, _PAYLOAD, _INJECTOR
    _WORKER = worker
    _PAYLOAD = payload
    _INJECTOR = injector


def _run_chunk(task: Tuple[int, int, Tuple[Any, ...]]) -> List[Any]:
    """Execute one supervised chunk: ``(start_offset, attempt, items)``.

    The attempt number exists solely for the fault injector — the real
    work is attempt-independent, which is what keeps retried runs
    bit-identical to undisturbed ones.
    """
    start, attempt, chunk = task
    del start
    assert _WORKER is not None, "worker process not initialised"
    if _INJECTOR is not None:
        _INJECTOR.apply(chunk, attempt, in_worker=True)
    return _WORKER(_PAYLOAD, list(chunk))


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _format_tb(exc: BaseException) -> str:
    """The full traceback text (includes the remote worker traceback that
    :mod:`concurrent.futures` chains onto unpickled exceptions)."""
    return "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    )


def fork_available() -> bool:
    """Whether this platform supports the ``fork`` start method."""
    return "fork" in multiprocessing.get_all_start_methods()


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: ``None``/``0`` means all CPUs."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0 (0 = all CPUs), got {jobs}")
    return jobs


@dataclass
class PhaseTiming:
    """Accumulated wall-clock/throughput numbers for one named phase."""

    seconds: float = 0.0
    items: int = 0
    calls: int = 0

    @property
    def items_per_second(self) -> float:
        return self.items / self.seconds if self.seconds > 0 else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "seconds": round(self.seconds, 6),
            "items": self.items,
            "calls": self.calls,
            "items_per_second": round(self.items_per_second, 3),
        }


@dataclass
class PoolStats:
    """Pool lifecycle and supervision counters.

    ``starts`` counts pool forks (one per parallel call plus one per
    rebuild); ``rebuilds`` counts fault-triggered teardowns (dead or hung
    workers), ``retries`` chunk re-dispatches after a failure (backoff
    retries and bisections), ``timeouts`` chunks that exceeded the
    per-chunk deadline, and ``quarantined`` poison items permanently
    excluded from a phase.
    """

    starts: int = 0
    rebuilds: int = 0
    retries: int = 0
    timeouts: int = 0
    quarantined: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclass_asdict(self)

    def snapshot(self) -> Tuple[int, ...]:
        return dataclass_astuple(self)

    def since(self, snapshot: Tuple[int, ...]) -> Dict[str, int]:
        return {
            f.name: value - before
            for f, value, before in zip(
                dataclass_fields(self), dataclass_astuple(self), snapshot
            )
        }


#: Placeholder for result slots not yet filled during supervision.
_PENDING = object()


@dataclass
class ParallelExecutor:
    """Shared-payload chunked map over a supervised per-call pool.

    ``jobs`` — worker processes; ``1`` runs serial (default), ``0`` or
    ``None`` uses every CPU.  ``chunk_size`` — items per task; the default
    splits each phase into about four chunks per worker, balancing
    scheduling slack against per-chunk overhead.

    ``retry`` — the chunk retry/backoff schedule.  ``chunk_timeout`` —
    per-chunk deadline in seconds (``None``, the default, disables
    deadlines; hung workers then block their phase forever, exactly as
    before supervision existed).  ``strict`` — fail fast on the first
    worker failure instead of retrying/quarantining.
    ``fault_injector`` — a deterministic fault plan for tests and soak
    runs (see :mod:`repro.parallel.faults`).  Supervision outcomes
    accumulate in :attr:`failures` and :attr:`pool_stats`.
    """

    jobs: Optional[int] = 1
    chunk_size: Optional[int] = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    chunk_timeout: Optional[float] = None
    strict: bool = False
    fault_injector: Optional[FaultInjector] = None
    timings: Dict[str, PhaseTiming] = field(default_factory=dict)
    pool_stats: PoolStats = field(default_factory=PoolStats)
    failures: FailureReport = field(default_factory=FailureReport)
    #: The current call's pool; ``None`` between calls.
    _pool: Optional[ProcessPoolExecutor] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        resolve_jobs(self.jobs)  # validate eagerly
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.chunk_timeout is not None and self.chunk_timeout <= 0:
            raise ValueError("chunk_timeout must be > 0 seconds (None = off)")

    @property
    def effective_jobs(self) -> int:
        """Worker count actually used (serial where fork is unavailable)."""
        jobs = resolve_jobs(self.jobs)
        if jobs > 1 and not fork_available():
            return 1
        return jobs

    @property
    def is_serial(self) -> bool:
        return self.effective_jobs == 1

    # -- lifecycle ---------------------------------------------------------

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """A no-op: every pool is torn down by the call that forked it."""

    def _shutdown_pool(self, *, kill: bool, rebuild: bool = False) -> None:
        """Tear the current pool down; no worker survives the return.

        ``kill=False`` waits for idle workers to exit.  ``kill=True`` is
        for workers that are dead (pool broken) or may be wedged
        (deadline exceeded, failed call), where a graceful shutdown could
        block on them: they are killed first, then reaped.
        ``rebuild=True`` counts the teardown as fault-triggered.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        if rebuild:
            self.pool_stats.rebuilds += 1
        if kill:
            for proc in list((pool._processes or {}).values()):
                proc.kill()
        pool.shutdown(wait=True, cancel_futures=kill)

    # -- mapping -----------------------------------------------------------

    def map_shared(
        self,
        worker: Callable[[Any, Sequence[Any]], List[Any]],
        payload: Any,
        items: Sequence[Any],
        *,
        phase: str = "map",
    ) -> List[Any]:
        """Run ``worker(payload, chunk)`` over chunks of ``items``.

        ``worker`` receives the shared payload plus a contiguous chunk and
        must return one result per chunk item, in chunk order.  The
        flattened results come back in the original item order regardless
        of ``jobs``.  Items quarantined by the supervisor occupy their
        slot with :data:`~repro.parallel.supervise.QUARANTINED` (never
        silently dropped); details land in :attr:`failures`.
        """
        items = list(items)
        start = perf_counter()
        try:
            if not items:
                return []
            jobs = self.effective_jobs
            if jobs == 1:
                results = self._map_serial(worker, payload, items, phase)
            else:
                results = self._map_pool(worker, payload, items, jobs, phase)
            if len(results) != len(items):
                raise RuntimeError(
                    f"worker returned {len(results)} results for "
                    f"{len(items)} items in phase {phase!r}"
                )
            return results
        finally:
            self._record(phase, perf_counter() - start, len(items))

    # -- serial supervision ------------------------------------------------

    def _map_serial(
        self,
        worker: Callable,
        payload: Any,
        items: List[Any],
        phase: str,
    ) -> List[Any]:
        """The inline path, with exception-only supervision.

        Crashes and hangs cannot be survived without a process boundary,
        but ordinary exceptions get the same policy as the pool path: on
        a chunk failure each item is re-run individually (continuing the
        attempt count at 1, so once-only injected faults clear) and
        persistent failures are quarantined instead of killing the run.
        """
        injector = self.fault_injector
        try:
            if injector is not None:
                injector.apply(items, 0, in_worker=False)
            return list(worker(payload, items))
        except Exception as exc:
            if self.strict:
                raise
            self.failures.chunk_failures.append(
                ChunkFailure(
                    phase, 0, len(items), 0, KIND_ERROR,
                    _describe(exc), _format_tb(exc),
                )
            )
        out: List[Any] = []
        # At least one isolation attempt per item even under
        # max_attempts=1 — the per-item re-run doubles as the bisection
        # step the pool path gets from chunk splitting.
        attempts = range(1, max(2, self.retry.max_attempts))
        for offset, item in enumerate(items):
            result = _PENDING
            last_exc: Optional[Exception] = None
            for attempt in attempts:
                try:
                    if injector is not None:
                        injector.apply([item], attempt, in_worker=False)
                    cell = list(worker(payload, [item]))
                except Exception as exc:
                    last_exc = exc
                    self.failures.chunk_failures.append(
                        ChunkFailure(
                            phase, offset, 1, attempt, KIND_ERROR,
                            _describe(exc), _format_tb(exc),
                        )
                    )
                    self.pool_stats.retries += 1
                    continue
                if len(cell) != 1:
                    raise RuntimeError(
                        f"worker returned {len(cell)} results for 1 item "
                        f"in phase {phase!r}"
                    )
                result = cell[0]
                break
            if result is _PENDING:
                assert last_exc is not None
                self._quarantine(
                    item, phase, KIND_ERROR,
                    _describe(last_exc), _format_tb(last_exc),
                )
                out.append(QUARANTINED)
            else:
                out.append(result)
        return out

    # -- pool supervision --------------------------------------------------

    def _map_pool(
        self,
        worker: Callable,
        payload: Any,
        items: List[Any],
        jobs: int,
        phase: str,
    ) -> List[Any]:
        out: List[Any] = [_PENDING] * len(items)
        size = self._chunk_size_for(len(items), jobs)
        pending: Dict[int, ChunkTask] = {
            start: ChunkTask(start, items[start : start + size])
            for start in range(0, len(items), size)
        }
        # Tasks unfinished when a worker died beside them: each reruns
        # alone before anyone is charged, so only a task that kills a
        # pool on its own spends an attempt.
        suspects: List[int] = []
        try:
            while pending:
                if suspects:
                    starts = [suspects.pop(0)]
                else:
                    starts = sorted(pending)
                failures, lost = self._run_round(
                    starts, pending, out, worker, payload, jobs, phase
                )
                suspects += lost
                if failures:
                    self._handle_failures(failures, pending, out, phase)
        except BaseException:
            # Never wait on possibly-wedged workers when the call fails.
            self._shutdown_pool(kill=True)
            raise
        self._shutdown_pool(kill=False)
        assert all(slot is not _PENDING for slot in out)
        return out

    def _run_round(
        self,
        starts: List[int],
        pending: Dict[int, ChunkTask],
        out: List[Any],
        worker: Callable,
        payload: Any,
        jobs: int,
        phase: str,
    ) -> Tuple[
        List[Tuple[ChunkTask, str, str, str, Optional[BaseException]]],
        List[int],
    ]:
        """Submit the pending tasks at ``starts`` once; harvest
        completions into ``out``.

        Returns this round's failures as ``(task, kind, error,
        traceback, original_exception)`` tuples, and the starts of the
        tasks *lost* to a worker death without attribution.  When the
        round ends with a broken pool (worker death) or an expired chunk
        deadline, the wedged pool has already been killed on return;
        tasks that were merely *victims* of the teardown are left in
        ``pending`` at unchanged attempt counts and simply run again.
        A worker death is charged to a task only when that task ran
        alone; otherwise every unfinished task comes back as lost.
        """
        failures: List[
            Tuple[ChunkTask, str, str, str, Optional[BaseException]]
        ] = []
        try:
            pool = self._ensure_pool(worker, payload, jobs)
            futures: Dict[Future, ChunkTask] = {}
            for start in starts:
                task = pending[start]
                futures[
                    pool.submit(
                        _run_chunk,
                        (task.start, task.attempts, tuple(task.items)),
                    )
                ] = task
        except BrokenExecutor as exc:
            self._shutdown_pool(kill=True, rebuild=True)
            if len(starts) > 1:
                return failures, list(starts)
            task = pending[starts[0]]
            return [(task, KIND_WORKER_LOST, _describe(exc), "", None)], []
        waiting = set(futures)
        started_at: Dict[Future, float] = {}
        broken: Optional[BaseException] = None
        poll = (
            None
            if self.chunk_timeout is None
            else max(0.005, min(0.05, self.chunk_timeout / 10))
        )
        while waiting:
            done, _ = _futures_wait(
                waiting, timeout=poll, return_when=FIRST_COMPLETED
            )
            now = perf_counter()
            for fut in done:
                waiting.discard(fut)
                task = futures[fut]
                exc = fut.exception()
                if exc is None:
                    chunk_results = fut.result()
                    if len(chunk_results) != len(task.items):
                        raise RuntimeError(
                            f"worker returned {len(chunk_results)} results "
                            f"for {len(task.items)} items in phase {phase!r}"
                        )
                    end = task.start + len(task.items)
                    out[task.start : end] = chunk_results
                    del pending[task.start]
                elif isinstance(exc, BrokenExecutor):
                    broken = exc  # worker died; handled once, below
                else:
                    failures.append(
                        (task, KIND_ERROR, _describe(exc), _format_tb(exc), exc)
                    )
            if broken is not None:
                # A worker process died.  The break fails every in-flight
                # future indiscriminately, so a task is to blame only if
                # it ran alone; otherwise the unfinished tasks are lost.
                self._shutdown_pool(kill=True, rebuild=True)
                recorded = {task.start for task, *_ in failures}
                unfinished = [
                    start
                    for start in starts
                    if start in pending and start not in recorded
                ]
                if len(starts) > 1:
                    return failures, unfinished
                failures += [
                    (
                        pending[start],
                        KIND_WORKER_LOST,
                        f"worker process died: {_describe(broken)}",
                        "",
                        None,
                    )
                    for start in unfinished
                ]
                return failures, []
            if self.chunk_timeout is not None and waiting:
                for fut in waiting:
                    if fut not in started_at and fut.running():
                        started_at[fut] = now
                expired = [
                    fut
                    for fut in waiting
                    if fut in started_at
                    and now - started_at[fut] >= self.chunk_timeout
                ]
                if expired:
                    # Hung worker(s): the only recovery is to kill the
                    # pool.  Unexpired in-flight tasks are victims and
                    # retry at unchanged attempt counts.
                    self._shutdown_pool(kill=True, rebuild=True)
                    for fut in expired:
                        task = futures[fut]
                        failures.append(
                            (
                                task,
                                KIND_TIMEOUT,
                                f"chunk exceeded the {self.chunk_timeout}s "
                                f"deadline",
                                "",
                                None,
                            )
                        )
                    return failures, []
        return failures, []

    def _handle_failures(
        self,
        failures: List[Tuple[ChunkTask, str, str, str, Optional[BaseException]]],
        pending: Dict[int, ChunkTask],
        out: List[Any],
        phase: str,
    ) -> None:
        """Apply the retry policy to one round's failures.

        Records every failure, then per task: back off and retry while
        attempts remain; bisect multi-item chunks that exhausted them;
        quarantine single items that did.  In strict mode the first
        failure raises instead.
        """
        delay = 0.0
        for task, kind, error, tb, original in failures:
            record = ChunkFailure(
                phase, task.start, len(task.items), task.attempts,
                kind, error, tb,
            )
            self.failures.chunk_failures.append(record)
            if kind == KIND_TIMEOUT:
                self.pool_stats.timeouts += 1
            if self.strict:
                if original is not None:
                    raise original
                raise ChunkFailureError(record)
            task.attempts += 1
            if task.attempts >= self.retry.max_attempts:
                del pending[task.start]
                if len(task.items) == 1:
                    self._quarantine(task.items[0], phase, kind, error, tb)
                    out[task.start] = QUARANTINED
                else:
                    low, high = task.bisect()
                    pending[low.start] = low
                    pending[high.start] = high
                    self.pool_stats.retries += 1
            else:
                self.pool_stats.retries += 1
                delay = max(
                    delay, self.retry.delay(task.attempts, token=task.start)
                )
        if delay > 0:
            time.sleep(delay)

    def _quarantine(
        self, item: Any, phase: str, kind: str, error: str, tb: str
    ) -> None:
        self.failures.quarantined.append(
            QuarantinedItem(phase, item, kind, error, tb)
        )
        self.pool_stats.quarantined += 1
        warnings.warn(
            f"quarantined item {item!r} in phase {phase!r} after repeated "
            f"{kind} failures: {error}",
            RuntimeWarning,
            stacklevel=4,
        )

    def _ensure_pool(
        self, worker: Callable, payload: Any, jobs: int
    ) -> ProcessPoolExecutor:
        """This call's pool, forked on first use and after a rebuild."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=jobs,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_init_worker,
                initargs=(worker, payload, self.fault_injector),
            )
            self.pool_stats.starts += 1
        return self._pool

    def _chunk_size_for(self, num_items: int, jobs: int) -> int:
        size = self.chunk_size
        if size is None:
            size = max(1, -(-num_items // (jobs * 4)))
        return size

    # -- timing ------------------------------------------------------------

    def _record(self, phase: str, seconds: float, items: int) -> None:
        timing = self.timings.setdefault(phase, PhaseTiming())
        timing.seconds += seconds
        timing.items += items
        timing.calls += 1

    def timings_dict(self) -> Dict[str, Dict[str, float]]:
        """All phase timings as plain JSON-encodable dictionaries."""
        return {name: t.as_dict() for name, t in sorted(self.timings.items())}

    def snapshot_timings(self) -> Dict[str, Tuple[float, int, int]]:
        """An opaque marker of the current totals, for :meth:`timings_since`."""
        return {
            name: (t.seconds, t.items, t.calls)
            for name, t in self.timings.items()
        }

    def timings_since(
        self, snapshot: Dict[str, Tuple[float, int, int]]
    ) -> Dict[str, Dict[str, float]]:
        """Per-phase timing deltas accumulated after ``snapshot``.

        Lets one long-lived executor serve a whole batch while each
        experiment still reports only its own phase costs.
        """
        out: Dict[str, Dict[str, float]] = {}
        for name, timing in sorted(self.timings.items()):
            seconds, items, calls = snapshot.get(name, (0.0, 0, 0))
            delta = PhaseTiming(
                seconds=timing.seconds - seconds,
                items=timing.items - items,
                calls=timing.calls - calls,
            )
            if delta.calls or delta.items or delta.seconds > 0:
                out[name] = delta.as_dict()
        return out
