"""End-to-end chaos soak: batches under compound faults.

The soak property: a batch run under deterministic chaos — worker
crashes, injected errors, torn and failed disk writes, a SIGKILL
mid-batch — produces bit-identical figure data to an unfaulted run and
flags every degraded answer it serves.  Chaos changes wall-clock and
provenance, never floats.
"""

import json
import os
import signal
import subprocess
import sys
import time
import warnings

import pytest

from repro.core import make_policy
from repro.datasets import synthetic_facebook
from repro.experiments import JOURNAL_FORMAT_VERSION, load_result, run_batch
from repro.onlinetime import SporadicModel
from repro.parallel import (
    CRASH,
    ENOSPC,
    ERROR,
    TORN_WRITE,
    FaultInjector,
    FaultRule,
    ParallelExecutor,
    RetryPolicy,
    fork_available,
)
from repro.query import QueryPlane
from repro.resilience import DegradationPolicy
from tests.experiments.test_config_and_registry import TINY

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="needs the fork start method"
)

FAST = RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0, jitter=0.0)

SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
)


def _strip_timings(blob):
    blob.pop("timings", None)
    return blob


def _chaos_injector():
    """Compound, deterministic chaos: every chunk faults exactly once
    (crash or error — first matching rule wins), and the cache's disk
    layer tears or fills probabilistically."""
    return FaultInjector(
        rules=(
            FaultRule(CRASH, probability=0.3, times=1),
            FaultRule(ERROR, times=1),
            FaultRule(TORN_WRITE, probability=0.4, times=1),
            FaultRule(ENOSPC, probability=0.3, times=1),
        ),
        seed=11,
    )


@needs_fork
class TestChaosBatch:
    def test_compound_faults_never_change_the_figures(self, tmp_path):
        ids = ["fig3", "fig5"]
        run_batch(tmp_path / "clean", scale=TINY, ids=ids)
        injector = _chaos_injector()
        with warnings.catch_warnings():
            # The disk layer may legitimately warn once when an injected
            # ENOSPC degrades it to memory-only; that is the soak point.
            warnings.simplefilter("always")
            with ParallelExecutor(
                jobs=2,
                retry=FAST,
                chunk_timeout=30.0,
                fault_injector=injector,
            ) as executor:
                run_batch(
                    tmp_path / "chaos",
                    scale=TINY,
                    ids=ids,
                    cache_dir=tmp_path / "cache",
                    executor=executor,
                )
        # Chaos actually happened: chunks failed and were recovered.
        assert executor.failures.chunk_failures
        assert executor.failures.quarantined == []
        for eid in ids:
            chaos = _strip_timings(load_result(tmp_path / "chaos" / f"{eid}.json"))
            clean = _strip_timings(load_result(tmp_path / "clean" / f"{eid}.json"))
            assert chaos == clean


class TestSigkillMidBatch:
    def test_journal_parses_and_resume_is_bit_identical(self, tmp_path):
        ids = ["fig3", "fig5"]
        run_batch(tmp_path / "clean", scale=TINY, ids=ids)
        out = tmp_path / "killed"
        script = (
            "import sys\n"
            "from repro.experiments import ExperimentScale, run_batch\n"
            "scale = ExperimentScale(name='tiny-test', facebook_users=400,\n"
            "    twitter_users=400, cohort_degree=8, max_cohort_users=5,\n"
            "    repeats=1, seed=7)\n"
            "run_batch(sys.argv[1], scale=scale, ids=['fig3', 'fig5'])\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(out)], env=env
        )
        # SIGKILL the batch as soon as its first figure lands: no atexit,
        # no journal finalisation — the true pulled-plug scenario.
        deadline = time.time() + 120.0
        while time.time() < deadline and proc.poll() is None:
            if (out / "fig3.json").exists():
                break
            time.sleep(0.02)
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
        proc.wait()
        assert (out / "fig3.json").exists(), "batch died before fig3"
        # Whatever instant the kill hit, the journal parses (all writes
        # are tmp+rename) and is a v3 journal: mid-sweep progress lives
        # in the batch's cache, not in a journal ledger.
        blob = json.loads((out / "journal.json").read_text())
        assert blob["format_version"] == JOURNAL_FORMAT_VERSION == 3
        assert set(blob) == {"format_version", "scale", "experiments"}
        # Resume completes the batch; every figure matches the clean run.
        run_batch(out, scale=TINY, ids=ids, resume=True)
        for eid in ids:
            resumed = _strip_timings(load_result(out / f"{eid}.json"))
            clean = _strip_timings(load_result(tmp_path / "clean" / f"{eid}.json"))
            assert resumed == clean


class TestQueryChaos:
    def test_every_degraded_answer_is_flagged(self):
        dataset = synthetic_facebook(200, seed=4)
        users = sorted(dataset.graph.users())[:9]
        poisoned = set(users[::3])
        plane = QueryPlane(
            dataset,
            SporadicModel(),
            seed=2,
            degradation=DegradationPolicy(mode="fallback"),
            fault_injector=FaultInjector.poison_queries(poisoned, times=1),
        )
        reference = QueryPlane(dataset, SporadicModel(), seed=2)
        for user in users:
            outcome = plane.evaluate_resilient(user, make_policy("maxav"), 2)
            assert outcome.ok
            if user in poisoned:
                # Degradation is never silent: reason and detail name
                # what was served and why.
                assert outcome.degraded
                assert outcome.reason == "fallback"
                assert outcome.detail
            else:
                assert not outcome.degraded
            assert outcome.value == reference.evaluate(
                user, make_policy("maxav"), 2
            )
        stats = plane.stats()
        assert stats["fallback_served"] == len(poisoned)
        assert stats["failed"] == 0
