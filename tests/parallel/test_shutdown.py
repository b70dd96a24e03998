"""Executor lifecycle at interpreter shutdown, and payload pool tokens."""

import os
import subprocess
import sys

import pytest

import repro
from repro.parallel import ParallelExecutor, fork_available
from repro.timeline import PackedSchedules

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

# A leaked executor with a live pool: the interpreter exits without
# close() ever being called, so __del__ fires during shutdown, when
# module globals may already be torn down.
_LEAK_SCRIPT = """
import sys
from repro.datasets import synthetic_facebook
from repro.onlinetime import SporadicModel, compute_schedules
from repro.core import make_policy
from repro.parallel import ParallelExecutor, SweepPayload, evaluate_users_chunk

ds = synthetic_facebook(120, seed=1)
schedules = compute_schedules(ds, SporadicModel(), seed=0)
payload = SweepPayload(
    dataset=ds,
    schedules=schedules,
    policies=(make_policy("random"),),
    mode="conrep",
    degrees=(0, 1, 2),
    max_degree=2,
    seed=0,
)
executor = ParallelExecutor(jobs=2)
users = sorted(ds.graph.users())[:4]
cells = executor.map_shared(evaluate_users_chunk, payload, users)
assert len(cells) == len(users)
print("done", flush=True)
# No executor.close(): the pool is deliberately leaked.
"""


class TestLeakedExecutorShutdown:
    @pytest.mark.skipif(not fork_available(), reason="needs fork pools")
    def test_no_stderr_noise_when_leaked(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", _LEAK_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=180,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "done"
        assert proc.stderr.strip() == ""

    def test_close_tolerates_torn_down_pool(self):
        executor = ParallelExecutor(jobs=1)

        class _Torn:
            def shutdown(self, wait=True):
                raise TypeError("'NoneType' object is not callable")

        executor._pool = _Torn()
        executor.close()  # must not raise
        assert executor._pool is None
        executor.close()  # idempotent


class TestReplayPayloadFingerprint:
    def test_packed_schedules_by_identity(self):
        from dataclasses import replace

        from repro.datasets import synthetic_facebook
        from repro.onlinetime import SporadicModel, compute_schedules
        from repro.parallel.worker import ReplayPayload
        from repro.simulator import ReplayConfig

        ds = synthetic_facebook(60, seed=1)
        schedules = compute_schedules(ds, SporadicModel(), seed=0)
        packed = PackedSchedules.from_schedules(schedules)
        payload = ReplayPayload(
            dataset=ds,
            schedules=schedules,
            placements={},
            config=ReplayConfig(days=1),
            shard_owners=((),),
            backend="numpy",
            packed=packed,
        )
        # The same packed object keeps the pool; an equal copy does not.
        same = replace(payload, config=ReplayConfig(days=1))
        assert same.fingerprint() == payload.fingerprint()
        copy = replace(payload, packed=PackedSchedules.from_schedules(schedules))
        assert copy.fingerprint() != payload.fingerprint()
        unpacked = replace(payload, packed=None)
        assert unpacked.fingerprint() == replace(unpacked).fingerprint()
        assert unpacked.fingerprint() != payload.fingerprint()
