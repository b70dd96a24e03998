"""Executor lifecycle at interpreter shutdown."""

import os
import subprocess
import sys

import pytest

import repro
from repro.parallel import fork_available

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

# A leaked executor: the interpreter exits without close() ever being
# called.  Its pool went down with the map_shared call that forked it,
# so shutdown has nothing left to tear down and must stay silent.
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
# No executor.close(): the executor is deliberately leaked.
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
