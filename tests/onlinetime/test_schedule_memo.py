"""The demand-driven schedule memo.

A sweep reads schedules through :func:`schedule_memo`, which computes a
user's schedule on first lookup.  These tests pin what that buys and what
it must not change: a sweep computes exactly its cohort's closure, the
completed memo equals an eager dict (values and iteration order), the
results are identical across ``jobs`` and ``PYTHONHASHSEED``, and a memo
and its packing are evicted as one entry.
"""

import json
import os
import subprocess
import sys
import weakref

import pytest

import repro
from repro.core import make_policy, select_cohort, sweep_replication_degree
from repro.datasets import synthetic_facebook
from repro.onlinetime import (
    SporadicModel,
    compute_schedules,
    packed_schedules,
    schedule_memo,
    schedule_of,
)
from repro.parallel import ParallelExecutor
from repro.timeline import IntervalSet

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

POLICIES = ("maxav", "mostactive", "random", "hybrid")


class SpySporadic(SporadicModel):
    """Sporadic, recording every user whose schedule it computes."""

    def __init__(self):
        super().__init__()
        self.computed = []

    def schedule(self, user, dataset, seed):
        self.computed.append(user)
        return super().schedule(user, dataset, seed)


def _sweep(dataset, model, cohort, **knobs):
    return sweep_replication_degree(
        dataset,
        model,
        [make_policy(name) for name in POLICIES],
        degrees=range(11),
        users=cohort,
        seed=1,
        **knobs,
    )


@pytest.fixture(scope="module")
def dataset_and_cohort():
    dataset = synthetic_facebook(300, seed=3)
    cohort = select_cohort(dataset, 10, max_users=4, seed=1)
    assert len(cohort) == 4
    return dataset, cohort


def _fresh(dataset):
    """A structurally equal dataset without memos."""
    return synthetic_facebook(dataset.num_users, seed=3)


class TestSweepComputesOnlyTheClosure:
    def test_computed_users_are_cohort_and_candidates(self, dataset_and_cohort):
        dataset, cohort = dataset_and_cohort
        dataset = _fresh(dataset)
        model = SpySporadic()
        _sweep(dataset, model, cohort)
        closure = set(cohort)
        for user in cohort:
            closure |= set(dataset.replica_candidates(user))
        assert len(model.computed) == len(set(model.computed))
        assert set(model.computed) == closure
        assert len(closure) < dataset.num_users

    def test_completion_returns_the_memo_equal_to_an_eager_dict(
        self, dataset_and_cohort
    ):
        dataset, cohort = dataset_and_cohort
        dataset = _fresh(dataset)
        model = SpySporadic()
        _sweep(dataset, model, cohort)
        memo = schedule_memo(dataset, model, seed=1)
        assert 0 < len(memo) < dataset.num_users
        full = compute_schedules(dataset, model, seed=1)
        assert full is memo
        assert list(full) == list(dataset.graph.users())
        eager = {
            user: SporadicModel().schedule(user, dataset, 1)
            for user in dataset.graph.users()
        }
        assert full == eager
        assert list(full.items()) == list(eager.items())
        # Completion computed only the users the sweep had not.
        assert sorted(model.computed) == sorted(dataset.graph.users())

    def test_jobs_two_equals_jobs_one(self, dataset_and_cohort):
        dataset, cohort = dataset_and_cohort
        serial = _sweep(_fresh(dataset), SporadicModel(), cohort)
        with ParallelExecutor(jobs=2) as executor:
            parallel = _sweep(
                _fresh(dataset), SporadicModel(), cohort, executor=executor
            )
        assert parallel == serial


_HASHSEED_SCRIPT = """
import json
from repro.core import make_policy, select_cohort, sweep_replication_degree
from repro.datasets import synthetic_facebook
from repro.onlinetime import SporadicModel, schedule_memo

ds = synthetic_facebook(300, seed=3)
cohort = select_cohort(ds, 10, max_users=4, seed=1)
series = sweep_replication_degree(
    ds, SporadicModel(), [make_policy(n) for n in %r],
    degrees=range(11), users=cohort, seed=1,
)
memo = schedule_memo(ds, SporadicModel(), seed=1)
print(json.dumps({
    "series": {name: [repr(a) for a in aggs] for name, aggs in series.items()},
    "computed": [[u, [list(iv) for iv in s.intervals]] for u, s in memo.items()],
}))
""" % (POLICIES,)


def _run_under_hashseed(hashseed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _HASHSEED_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def test_stable_across_hash_seeds():
    """Series, the lazily computed users and their order do not depend on
    the string-hash salt."""
    assert _run_under_hashseed("0") == _run_under_hashseed("4242")


class TestMemoMapping:
    def test_user_outside_the_graph_gets_the_empty_schedule(
        self, dataset_and_cohort
    ):
        dataset = _fresh(dataset_and_cohort[0])
        outsider = max(dataset.graph.users()) + 1
        memo = schedule_memo(dataset, SporadicModel(), seed=0)
        assert memo.get(outsider) is None
        assert schedule_of(memo, outsider) == IntervalSet.empty()
        with pytest.raises(KeyError):
            memo[outsider]
        assert len(memo) == 0
        compute_schedules(dataset, SporadicModel(), seed=0)
        assert schedule_of(memo, outsider) == IntervalSet.empty()

    def test_get_computes_on_a_miss(self, dataset_and_cohort):
        dataset = _fresh(dataset_and_cohort[0])
        user = next(iter(dataset.graph.users()))
        memo = schedule_memo(dataset, SporadicModel(), seed=2)
        assert memo.get(user) == SporadicModel().schedule(user, dataset, 2)
        assert list(memo) == [user]

    def test_memo_holds_its_dataset_weakly(self, dataset_and_cohort):
        dataset = _fresh(dataset_and_cohort[0])
        user = next(iter(dataset.graph.users()))
        alive = weakref.ref(dataset)
        memo = schedule_memo(dataset, SporadicModel(), seed=0)
        del dataset
        assert alive() is None
        with pytest.raises(RuntimeError):
            memo[user]


class TestEviction:
    def test_memo_and_packing_are_evicted_together(self):
        """The 33rd model evicts the first model's schedules; its packing
        must go with them, not survive in a memo of its own."""
        dataset = synthetic_facebook(60, seed=1)
        models = [SporadicModel(session_seconds=60 * (i + 1)) for i in range(33)]
        schedules = compute_schedules(dataset, models[0], seed=0)
        packed = packed_schedules(dataset, models[0], seed=0)
        for model in models[1:]:
            compute_schedules(dataset, model, seed=0)
        cache = dataset._repro_schedule_cache
        assert len(cache) == 32
        assert (models[0].cache_key(), 0) not in cache
        assert all(memo.packed is None for memo in cache.values())
        assert compute_schedules(dataset, models[0], seed=0) is not schedules
        assert packed_schedules(dataset, models[0], seed=0) is not packed
