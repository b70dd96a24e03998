"""Parallel experiment engine: supervised process-pool fan-out.

The sweep harness in :mod:`repro.core.evaluation` accepts a
:class:`ParallelExecutor`; pass ``ParallelExecutor(jobs=8)`` (or
``--jobs 8`` on the CLI) to spread the per-user placement + evaluation
work over worker processes.  Results are bit-identical to the serial run
for every ``jobs`` value.

Execution is fault tolerant: crashed workers rebuild the pool, hung
chunks are recovered by per-chunk deadlines (``chunk_timeout``), failed
chunks retry with exponential backoff (:class:`RetryPolicy`), and
persistent single-item failures are quarantined into a
:class:`FailureReport` instead of killing the run (``strict=True``
restores fail-fast).  :class:`FaultInjector` exercises all of this
deterministically in tests and soak runs.
"""

from repro.parallel.executor import (
    ParallelExecutor,
    PhaseTiming,
    PoolStats,
    fork_available,
    resolve_jobs,
)
from repro.parallel.faults import (
    CRASH,
    ENOSPC,
    ERROR,
    FAULT_KINDS,
    HANG,
    POISON_QUERY,
    SLOW_IO,
    TORN_WRITE,
    FaultInjector,
    FaultRule,
    InjectedFault,
)
from repro.parallel.supervise import (
    QUARANTINED,
    ChunkFailure,
    ChunkFailureError,
    FailureReport,
    Quarantined,
    QuarantinedItem,
    RetryPolicy,
    is_quarantined,
)
from repro.parallel.worker import (
    PlacementPayload,
    SweepPayload,
    evaluate_user_cell,
    evaluate_users_chunk,
    select_sequences_chunk,
)

__all__ = [
    "CRASH",
    "ChunkFailure",
    "ChunkFailureError",
    "ENOSPC",
    "ERROR",
    "FAULT_KINDS",
    "FailureReport",
    "FaultInjector",
    "FaultRule",
    "HANG",
    "InjectedFault",
    "ParallelExecutor",
    "PhaseTiming",
    "PlacementPayload",
    "PoolStats",
    "POISON_QUERY",
    "QUARANTINED",
    "Quarantined",
    "QuarantinedItem",
    "RetryPolicy",
    "SLOW_IO",
    "SweepPayload",
    "TORN_WRITE",
    "evaluate_user_cell",
    "evaluate_users_chunk",
    "fork_available",
    "is_quarantined",
    "resolve_jobs",
    "select_sequences_chunk",
]
