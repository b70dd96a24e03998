"""Pool workers inherit the shared payload by fork; they never unpickle it.

``ParallelExecutor`` hands its payload to the pool through the fork
initializer, so even a payload that cannot be pickled reaches every
worker — including the workers of a pool rebuilt after a crash.  This
is why the replay and sweep payloads need no shared-memory transport.
"""

import os
import pickle
import threading

import pytest

from repro.parallel import (
    FaultInjector,
    ParallelExecutor,
    RetryPolicy,
    fork_available,
)

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="needs the fork start method"
)

FAST = RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0, jitter=0.0)

ITEMS = list(range(8))


class _LockedPayload:
    """A payload pickle rejects: it holds a ``threading.Lock``."""

    def __init__(self, factor):
        self.factor = factor
        self.lock = threading.Lock()


def _scaled_chunk(payload, chunk):
    """Top-level worker (process pools resolve it by module path)."""
    with payload.lock:
        return [(payload.factor * item, os.getpid()) for item in chunk]


@needs_fork
class TestForkInheritance:
    def test_payload_is_unpicklable(self):
        with pytest.raises(TypeError):
            pickle.dumps(_LockedPayload(3))

    def test_workers_inherit_an_unpicklable_payload(self):
        with ParallelExecutor(jobs=2, chunk_size=2) as ex:
            out = ex.map_shared(_scaled_chunk, _LockedPayload(3), ITEMS)
        assert [value for value, _ in out] == [3 * i for i in ITEMS]
        assert {pid for _, pid in out} - {os.getpid()}

    def test_rebuilt_pool_inherits_it_too(self):
        injector = FaultInjector.once(crash=[0, 5])
        with ParallelExecutor(
            jobs=2, chunk_size=2, retry=FAST, fault_injector=injector
        ) as ex:
            out = ex.map_shared(_scaled_chunk, _LockedPayload(3), ITEMS)
            assert ex.pool_stats.rebuilds >= 1
            assert ex.pool_stats.retries >= 1
        assert [value for value, _ in out] == [3 * i for i in ITEMS]
