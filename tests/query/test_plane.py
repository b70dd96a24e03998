"""The warm query plane's bit-identity contract and warm-state caches.

The load-bearing property: a point query answered by any
:class:`QueryPlane` configuration — warm or cold state, cached
or recomputed — equals the matching cell of a batch sweep bit for bit,
and the cell the per-degree oracle (``tests/oracle.py``) computes.
Everything else here (LRU behavior, store composition, payload round
trips) protects the machinery that makes repeated queries cheap without
touching the floats.
"""

import json
import math
import os
import random
import subprocess
import sys

import pytest

import functools

from repro.cache import SweepCache, point_query_key
from repro.core import CONREP, UNCONREP, make_policy
from repro.core.evaluation import evaluate_single
from repro.core.incremental import IncrementalGroupEvaluator
from repro.core.metrics import UserMetrics, evaluate_user
from repro.core.placement import RandomPlacement
from repro.datasets import synthetic_facebook
from repro.onlinetime import SporadicModel, compute_schedules
from repro.parallel import SweepPayload, evaluate_users_chunk
from repro.query import QueryPlane, metrics_from_payload, metrics_to_payload
from tests.core.test_incremental_properties import _count_walks
from tests.oracle import naive_user_cell

SEED = 5
POLICIES = ("random", "mostactive", "maxav")
DEGREES = (0, 1, 2, 3)


@functools.lru_cache(maxsize=1)
def _dataset():
    return synthetic_facebook(300, seed=9)


def _sweep_cells(model, mode, reference, users):
    """Batch-sweep cells from the production kernel (``"incremental"``)
    or from the per-degree oracle (``"naive"``)."""
    dataset = _dataset()
    schedules = compute_schedules(dataset, model, seed=SEED)
    payload = SweepPayload(
        dataset=dataset,
        schedules=schedules,
        policies=tuple(make_policy(p) for p in POLICIES),
        mode=mode,
        degrees=DEGREES,
        max_degree=max(DEGREES),
        seed=SEED,
    )
    if reference == "naive":
        return [naive_user_cell(payload, user) for user in users]
    return evaluate_users_chunk(payload, users)


class TestPlaneMatchesSweep:
    @pytest.mark.parametrize("mode", [CONREP, UNCONREP])
    @pytest.mark.parametrize("reference", ["incremental", "naive"])
    def test_point_queries_equal_sweep_cells(self, mode, reference):
        dataset = _dataset()
        model = SporadicModel()
        users = sorted(dataset.graph.users())[:5]
        cells = _sweep_cells(model, mode, reference, users)
        plane = QueryPlane(dataset, model, mode=mode, seed=SEED)
        # Descending degree first: later smaller degrees must reuse the
        # cached deeper sequence's prefix, not re-derive a fresh one.
        order = sorted(enumerate(DEGREES), key=lambda ik: -ik[1])
        for user, cell in zip(users, cells):
            for policy_name in POLICIES:
                for i, k in order:
                    got = plane.evaluate(user, make_policy(policy_name), k)
                    assert got == cell[policy_name][i]

    def test_warm_state_reuse_is_invisible(self):
        # Asking the same plane the same question twice, and asking a
        # fresh plane, all yield the identical object-equal metrics.
        dataset = _dataset()
        model = SporadicModel()
        user = sorted(dataset.graph.users())[3]
        policy = make_policy("maxav")
        warm = QueryPlane(dataset, model, seed=SEED)
        first = warm.evaluate(user, policy, 3)
        second = warm.evaluate(user, make_policy("maxav"), 3)
        cold = QueryPlane(dataset, model, seed=SEED).evaluate(
            user, make_policy("maxav"), 3
        )
        assert first == second == cold
        assert warm.stats()["result_hits"] == 1

    def test_evaluate_single_matches_plane(self):
        dataset = _dataset()
        model = SporadicModel()
        schedules = compute_schedules(dataset, model, seed=SEED)
        user = sorted(dataset.graph.users())[0]
        direct = evaluate_single(
            dataset, schedules, user, make_policy("random"), 2, seed=SEED
        )
        plane = QueryPlane(dataset, model, seed=SEED)
        assert plane.evaluate(user, make_policy("random"), 2) == direct


@functools.lru_cache(maxsize=1)
def _exhausted():
    """A ConRep ``(user, policy, depth)`` whose selection runs out of
    candidates at a ``depth`` of 2 to 8, below degree 10."""
    dataset = _dataset()
    plane = QueryPlane(dataset, SporadicModel(), seed=SEED)
    for user in sorted(dataset.graph.users()):
        for name in POLICIES:
            replicas = plane.evaluate(user, make_policy(name), 10).replicas
            if 2 <= len(replicas) < 9:
                return user, name, len(replicas)
    raise AssertionError("no exhausted ConRep sequence in the dataset")


@functools.lru_cache(maxsize=1)
def _shared_prefix():
    """A user for whom MaxAv and MostActive pick the same three replicas,
    in the same order."""
    dataset = _dataset()
    plane = QueryPlane(dataset, SporadicModel(), seed=SEED)
    for user in sorted(dataset.graph.users()):
        maxav = plane.evaluate(user, make_policy("maxav"), 3).replicas
        mostactive = plane.evaluate(user, make_policy("mostactive"), 3)
        if len(maxav) == 3 and maxav == mostactive.replicas:
            return user
    raise AssertionError("no user whose two policies agree")


class TestPrefixMemo:
    """Cold queries whose replica prefix was already walked reuse it."""

    def _check(self, got, user, policy, k):
        """``got`` equals a cold plane's answer and the oracle's."""
        dataset = _dataset()
        model = SporadicModel()
        cold = QueryPlane(dataset, model, seed=SEED)
        assert got == cold.evaluate(user, make_policy(policy), k)
        schedules = compute_schedules(dataset, model, seed=SEED)
        assert got == evaluate_user(
            dataset, schedules, user, got.replicas, allowed_degree=k
        )

    def test_degrees_past_an_exhausted_sequence_cost_one_walk(
        self, monkeypatch
    ):
        user, name, depth = _exhausted()
        plane = QueryPlane(_dataset(), SporadicModel(), seed=SEED).warm()
        walks = _count_walks(monkeypatch)
        answers = {
            k: plane.evaluate(user, make_policy(name), k)
            for k in (depth + 1, depth + 2)
        }
        assert walks[0] == 1
        for k, got in answers.items():
            assert got.allowed_degree == k
            assert len(got.replicas) == depth
            self._check(got, user, name, k)

    def test_policies_sharing_a_prefix_cost_one_walk(self, monkeypatch):
        user = _shared_prefix()
        plane = QueryPlane(_dataset(), SporadicModel(), seed=SEED).warm()
        walks = _count_walks(monkeypatch)
        answers = {
            (name, 3): plane.evaluate(user, make_policy(name), 3)
            for name in ("maxav", "mostactive")
        }
        assert walks[0] == 1
        # Degree 0 is the owner alone under every policy.
        for name in POLICIES:
            answers[name, 0] = plane.evaluate(user, make_policy(name), 0)
        assert walks[0] == 2
        for (name, k), got in answers.items():
            self._check(got, user, name, k)

    def test_owner_and_negative_degree_raise_on_memo_path(self):
        user, name, depth = _exhausted()
        dataset = _dataset()
        plane = QueryPlane(dataset, SporadicModel(), seed=SEED)
        plane.evaluate(user, make_policy(name), depth)
        with pytest.raises(ValueError):
            plane.evaluate(user, make_policy(name), -1)
        evaluator = IncrementalGroupEvaluator(dataset, plane.schedules, user)
        replicas = evaluator.evaluate(
            plane.place(user, make_policy(name), depth), depth
        ).replicas
        with pytest.raises(ValueError):
            evaluate_single(
                dataset, plane.schedules, user, make_policy(name), depth,
                seed=SEED, evaluator=evaluator, sequence=replicas + (user,),
            )


@functools.lru_cache(maxsize=None)
def _cold(mode, user, name, k):
    """``evaluate_single`` with nothing resident."""
    dataset = _dataset()
    schedules = compute_schedules(dataset, SporadicModel(), seed=SEED)
    return evaluate_single(
        dataset, schedules, user, make_policy(name), k, mode=mode, seed=SEED
    )


@functools.lru_cache(maxsize=1)
def _deep_users():
    """Users whose ConRep selections reach degree 6 under every policy,
    so their streams have picks left to draw at every tested degree."""
    users = [
        user
        for user in sorted(_dataset().graph.users())
        if all(
            len(_cold(CONREP, user, name, 6).replicas) == 6
            for name in POLICIES
        )
    ]
    assert len(users) >= 3
    return users


def _count_streams(monkeypatch) -> list:
    """Count ``picks`` streams started from now on, and ``select`` calls."""
    calls = [0, 0]
    for cls in {type(make_policy(name)) for name in POLICIES}:
        picks, select = cls.picks, cls.select

        def counting_picks(self, ctx, picks=picks):
            calls[0] += 1
            return picks(self, ctx)

        def counting_select(self, ctx, k, select=select):
            calls[1] += 1
            return select(self, ctx, k)

        monkeypatch.setattr(cls, "picks", counting_picks)
        monkeypatch.setattr(cls, "select", counting_select)
    return calls


class TestStreams:
    """One resumable pick stream per (user, policy), drawn on demand."""

    STREAM_DEGREES = (0, 1, 2, 3, 5, 8)

    @pytest.mark.parametrize("max_users", [None, 2])
    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    @pytest.mark.parametrize("mode", [CONREP, UNCONREP])
    def test_request_order_is_invisible(self, mode, order, max_users):
        users = _deep_users()[:3]
        requests = [
            (user, name, k)
            for k in self.STREAM_DEGREES
            for user in users
            for name in POLICIES
        ]
        if order == "descending":
            requests.reverse()
        elif order == "shuffled":
            random.Random(7).shuffle(requests)
        plane = QueryPlane(
            _dataset(), SporadicModel(), mode=mode, seed=SEED,
            max_users=max_users,
        )
        for user, name, k in requests:
            got = plane.evaluate(user, make_policy(name), k)
            assert got == _cold(mode, user, name, k)
        evictions = plane.stats()["evaluators"]["evictions"]
        assert (evictions > 0) == (max_users is not None)

    def test_default_plane_never_evicts(self):
        dataset = _dataset()
        plane = QueryPlane(dataset, SporadicModel(), seed=SEED)
        users = sorted(dataset.graph.users())
        for user in users:
            plane.evaluate(user, make_policy("mostactive"), 1)
        stats = plane.stats()
        assert stats["evaluators"]["evictions"] == 0
        assert stats["evaluators"]["entries"] == len(users)
        assert stats["evaluators"]["max_entries"] is None
        assert stats["sequences"]["entries"] == len(users)

    def test_deeper_degree_extends_the_stream(self, monkeypatch):
        user = _deep_users()[0]
        degrees = (1, 3, 2, 6, 4)
        cold = {
            (name, k): _cold(CONREP, user, name, k)
            for name in POLICIES
            for k in degrees
        }
        plane = QueryPlane(_dataset(), SporadicModel(), seed=SEED).warm()
        calls = _count_streams(monkeypatch)
        for name in POLICIES:
            for k in degrees:
                got = plane.evaluate(user, make_policy(name), k)
                assert got == cold[name, k]
        assert calls == [len(POLICIES), 0]
        sequences = plane.stats()["sequences"]
        # Degrees 2 and 4 are answered from picks already drawn; 1, 3
        # and 6 draw more.
        assert sequences["hits"] == 2 * len(POLICIES)
        assert sequences["misses"] == 3 * len(POLICIES)

    def test_a_stream_that_raised_restarts_fresh(self):
        class FailsOnce(RandomPlacement):
            """Random, except the first stream dies after one pick."""

            failed = False

            def picks(self, ctx):
                stream = super().picks(ctx)
                yield next(stream)
                if not FailsOnce.failed:
                    FailsOnce.failed = True
                    raise RuntimeError("selection failed mid-stream")
                yield from stream

        user = _deep_users()[0]
        plane = QueryPlane(_dataset(), SporadicModel(), seed=SEED)
        policy = FailsOnce()
        assert plane.evaluate(user, policy, 1) == _cold(CONREP, user, "random", 1)
        with pytest.raises(RuntimeError):
            plane.evaluate(user, policy, 4)
        # The failed generator is dropped, not read as an exhausted one.
        assert plane.evaluate(user, policy, 4) == _cold(CONREP, user, "random", 4)


class TestResultStore:
    def test_store_round_trip_across_planes_and_disk(self, tmp_path):
        dataset = _dataset()
        model = SporadicModel()
        user = sorted(dataset.graph.users())[2]
        store = SweepCache(cache_dir=str(tmp_path))
        first = QueryPlane(dataset, model, seed=SEED, cache=store).evaluate(
            user, make_policy("maxav"), 3
        )
        # Fresh in-memory store over the same directory: the hit comes
        # off disk, through JSON, and must round-trip bit-identically.
        reloaded = SweepCache(cache_dir=str(tmp_path))
        plane = QueryPlane(dataset, model, seed=SEED, cache=reloaded)
        assert plane.evaluate(user, make_policy("maxav"), 3) == first
        assert plane.stats()["store_hits"] == 1
        assert reloaded.stats.disk_hits == 1

    def test_infinite_delay_survives_payload_round_trip(self):
        metrics = UserMetrics(
            user=7,
            allowed_degree=2,
            replicas=(1, 2),
            availability=0.25,
            max_achievable_availability=0.5,
            aod_time=0.1,
            aod_activity=0.2,
            expected_activity_fraction=0.3,
            aod_activity_expected=0.2,
            aod_activity_unexpected=0.4,
            delay_hours_actual=float("inf"),
            delay_hours_observed=float("inf"),
        )
        payload = json.loads(json.dumps(metrics_to_payload(metrics)))
        restored = metrics_from_payload(payload)
        assert restored == metrics
        assert math.isinf(restored.delay_hours_actual)

    def test_key_discriminates_user_degree_policy(self):
        dataset = _dataset()
        model = SporadicModel()
        base = dict(mode=CONREP, user=1, k=2, seed=SEED)
        key = point_query_key(dataset, model, make_policy("random"), **base)
        assert key != point_query_key(
            dataset, model, make_policy("random"),
            **{**base, "user": 2},
        )
        assert key != point_query_key(
            dataset, model, make_policy("random"), **{**base, "k": 3}
        )
        assert key != point_query_key(
            dataset, model, make_policy("maxav"), **base
        )
        assert key == point_query_key(
            dataset, model, make_policy("random"), **base
        )


class TestPlaneState:
    def test_lru_bounds_hold(self):
        dataset = _dataset()
        model = SporadicModel()
        users = sorted(dataset.graph.users())[:6]
        plane = QueryPlane(
            dataset, model, seed=SEED, max_users=2, max_results=3
        )
        for user in users:
            plane.evaluate(user, make_policy("random"), 1)
        stats = plane.stats()
        assert stats["evaluators"]["entries"] <= 2
        assert stats["results"]["entries"] <= 3
        assert stats["evaluators"]["evictions"] >= 4
        # Evicted warm state rebuilds transparently and identically.
        again = plane.evaluate(users[0], make_policy("random"), 1)
        cold = QueryPlane(dataset, model, seed=SEED).evaluate(
            users[0], make_policy("random"), 1
        )
        assert again == cold

    def test_bounded_overlap_rows_do_not_change_results(self):
        dataset = _dataset()
        model = SporadicModel()
        users = sorted(dataset.graph.users())[:4]
        bounded = QueryPlane(dataset, model, seed=SEED, overlap_max_rows=1)
        plain = QueryPlane(dataset, model, seed=SEED)
        for user in users:
            for k in (1, 3):
                assert bounded.evaluate(
                    user, make_policy("maxav"), k
                ) == plain.evaluate(user, make_policy("maxav"), k)

    def test_stats_shape(self):
        plane = QueryPlane(_dataset(), SporadicModel(), seed=SEED)
        plane.evaluate(
            sorted(_dataset().graph.users())[0], make_policy("random"), 1
        )
        stats = plane.stats()
        assert set(stats) == {
            "queries",
            "result_hits",
            "store_hits",
            "stale_served",
            "fallback_served",
            "failed",
            "degraded_mode",
            "evaluators",
            "sequences",
            "results",
        }
        for lru in ("evaluators", "sequences", "results"):
            assert set(stats[lru]) == {
                "entries",
                "max_entries",
                "hits",
                "misses",
                "evictions",
            }


SRC_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
)

_SUBPROCESS_SCRIPT = """
import json
from repro.core import make_policy
from repro.datasets import synthetic_facebook
from repro.onlinetime import SporadicModel
from repro.query import QueryPlane

dataset = synthetic_facebook(120, seed=9)
plane = QueryPlane(dataset, SporadicModel(), seed=5)
user = sorted(dataset.graph.users())[1]
m = plane.evaluate(user, make_policy("random"), 2)
print(json.dumps({
    "replicas": list(m.replicas),
    "availability": m.availability.hex(),
    "aod_time": m.aod_time.hex(),
    "delay": repr(m.delay_hours_actual),
}))
"""


def _query_under_hashseed(hashseed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _SUBPROCESS_SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout)


class TestHashSeedIndependence:
    def test_point_query_identical_across_hash_seeds(self):
        # Interpreters with different string-hash salts must produce the
        # identical placement and float bits — any hash()-ordered set
        # iteration in the plane's warm path would break this.
        assert _query_under_hashseed("0") == _query_under_hashseed("4242")
