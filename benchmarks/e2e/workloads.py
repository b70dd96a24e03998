"""The four end-to-end workloads, and the checks on their outputs.

Each workload turns a seed into inputs and drives public ``repro``
functions through one lifecycle per side of a benchmark pass (the same
lifecycle on the program and on the frozen control, see ``run.py``):

* ``setup()`` — the program work done before the first timed operation
  (dataset synthesis and whatever warm state the operation needs);
  timed as ``setup_s``;
* ``prepare()`` — untimed, before each operation: the fresh state an
  operation must not inherit from the one before it;
* ``run(tracer)`` — the timed operation (``wall_s``, ``cpu_s``), run
  again until the pass's time is up when ``repeatable``;
* ``close()`` — shuts the executor down, after the last operation and
  before peak RSS is read;
* ``outputs()`` — everything the last operation produced, compared bit
  for bit between operations and passes; ``reference_view()`` — what is
  compared with the committed reference of seeds 42 and 7 (ints exactly,
  floats within ``REL_TOL``);
* ``attempted()``, ``failed()`` — operations attempted and failed, over
  every operation of the pass;
* ``check()`` — an independent oracle for any seed, run on the first
  pass only;
* ``layer_metrics()`` — the per-layer counters the program keeps itself
  (pool, cache and query-plane statistics).

Why each workload exists is recorded in ``BENCHMARK.json`` and
``README.md``.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import threading
from time import perf_counter
from typing import Dict, List

import numpy as np

from repro.cache import SweepCache
from repro.core import (
    CONREP,
    evaluate_single,
    make_policy,
    placement_sequences,
    sweep_replication_degree,
    sweep_replication_degree_datasets,
)
from repro.datasets import ShardedDataset, SyntheticSpec, synthetic_facebook
from repro.experiments import (
    ExperimentScale,
    experiment_ids,
    facebook_dataset,
    jsonify,
    run_experiment,
    twitter_dataset,
)
from repro.onlinetime import SporadicModel, compute_schedules
from repro.parallel import ParallelExecutor
from repro.query import QueryPlane, metrics_to_payload
from repro.simulator import ReplayConfig, replay_trace

#: Relative tolerance of the reference gate: the bound the sharded-sweep
#: tests already use, so last-ulp changes in float summation still pass.
REL_TOL = 1e-9

#: Per-layer counters the program keeps itself, read by ``layer_metrics``;
#: a workload that does not use the layer reports zero.
COUNTERS = (
    "parallel.retries", "parallel.quarantined", "cache.hits", "cache.misses", "cache.stores",
    "cache.hit_ratio", "query.qps", "query.p50_ms", "query.p99_ms",
    "query.result_hit_ratio", "query.sequence_hit_ratio",
    "query.evaluator_evictions",
)

POLICIES = ("maxav", "mostactive", "random")
DEGREES = tuple(range(11))
COHORT_DEGREE = 10
QUERY_DEGREES = (3, 12)

#: Input sizes.  ``full`` is what the benchmark measures, sized so that an
#: operation takes 1-3 s alone on the CPU and a 20 s run holds three
#: passes of both sides; ``figures`` runs once per pass, so it is the
#: smallest (at 1000 users a run took 47 s).  ``toy`` is for the harness
#: tests.
SIZES: Dict[str, Dict[str, dict]] = {
    "full": {
        "figures": {"users": 500, "cohort": 6, "repeats": 2},
        "sharded": {"users": 1000, "shards": 4, "per_shard": 8},
        "query": {"users": 2000, "requests": 12000},
        "replay": {"users": 2000, "cohort": 200, "days": 2},
    },
    "toy": {
        "figures": {"users": 200, "cohort": 3, "repeats": 1},
        "sharded": {"users": 400, "shards": 2, "per_shard": 3},
        "query": {"users": 400, "requests": 600},
        "replay": {"users": 400, "cohort": 30, "days": 1},
    },
}


def canonical(value) -> str:
    """The exact JSON text of an output (floats by shortest repr)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def compare_tree(expected, got, path: str = "$") -> List[str]:
    """Mismatches between two JSON trees: ints, strings and structure
    exactly, floats within ``REL_TOL``."""
    if isinstance(expected, dict):
        if not isinstance(got, dict) or expected.keys() != got.keys():
            return [f"{path}: keys differ"]
        return [
            error
            for key in expected
            for error in compare_tree(expected[key], got[key], f"{path}.{key}")
        ]
    if isinstance(expected, list):
        if not isinstance(got, list) or len(expected) != len(got):
            return [f"{path}: lengths differ"]
        return [
            error
            for i, (a, b) in enumerate(zip(expected, got))
            for error in compare_tree(a, b, f"{path}[{i}]")
        ]
    if isinstance(expected, float) and isinstance(got, float):
        if expected == got or math.isclose(expected, got, rel_tol=REL_TOL):
            return []
    elif type(expected) is type(got) and expected == got:
        return []
    return [f"{path}: got {got!r}, reference {expected!r}"]


def _policies():
    return [make_policy(name) for name in POLICIES]


def _pool_metrics(executor: ParallelExecutor) -> Dict[str, float]:
    stats = executor.pool_stats
    return {
        "parallel.retries": stats.retries,
        "parallel.quarantined": stats.quarantined,
    }


def _executor_failures(executor: ParallelExecutor) -> int:
    report = executor.failures
    return len(report.quarantined) + len(report.chunk_failures)


def _executor_items(executor: ParallelExecutor) -> int:
    return sum(timing.items for timing in executor.timings.values())


class Workload:
    """Shared defaults; see the module docstring for the lifecycle.

    Every workload runs in one process on one CPU: its executor is the
    default serial ``ParallelExecutor()``, the default of ``run all``.
    At jobs=2 every map call of ``figures`` forked a new pool: on a 2-vCPU
    VM an operation took 9-10.5 s, with 283k page faults and 1.8 s of
    system time, against 6.8-6.9 s and 6k faults at jobs=1, and its
    run-to-run spread was six times as wide.
    """

    name = ""
    #: Closed-loop client threads (1 = the operation runs on the main thread).
    clients = 1
    #: Whether a second operation in the same process, after ``prepare()``,
    #: redoes all the work of the first.
    repeatable = True

    def __init__(self, seed: int, params: dict):
        self.seed = seed
        self.params = params
        self.ops = 0

    def prepare(self) -> None:
        pass

    def close(self) -> None:
        pass

    def reference_view(self):
        return self.outputs()

    def layer_metrics(self) -> Dict[str, float]:
        return {}


class Figures(Workload):
    """All 17 experiments in one process, as ``run all`` does."""

    name = "figures"
    # Datasets keep memos (schedules, content fingerprints) that a second
    # ``run all`` in the same process would reuse; users pay them once per
    # command, so every operation gets a fresh process.
    repeatable = False

    def __init__(self, seed: int, params: dict):
        super().__init__(seed, params)
        self.scale = ExperimentScale(
            name="e2e",
            facebook_users=params["users"],
            twitter_users=params["users"],
            max_cohort_users=params["cohort"],
            repeats=params["repeats"],
            seed=seed,
        )

    def setup(self) -> None:
        facebook_dataset(self.scale)
        twitter_dataset(self.scale)
        self.executor = ParallelExecutor()
        self.cache = SweepCache()

    def run(self, tracer) -> None:
        self.results = {}
        for eid in experiment_ids():
            with tracer.span(f"experiments.{eid}"):
                result = run_experiment(
                    eid, self.scale, executor=self.executor, cache=self.cache
                )
                result.render()
            self.results[eid] = result

    def close(self) -> None:
        self.executor.close()

    def outputs(self):
        return {eid: jsonify(r.data) for eid, r in self.results.items()}

    def attempted(self) -> int:
        return _executor_items(self.executor)

    def failed(self) -> int:
        return _executor_failures(self.executor)

    def check(self) -> List[str]:
        # The determinism contract: an uncached run of one figure equals
        # the cache-sharing one bit for bit.
        serial = run_experiment("fig3", self.scale, jobs=1)
        if canonical(jsonify(serial.data)) != canonical(
            jsonify(self.results["fig3"].data)
        ):
            return ["fig3 without a cache differs from the pass"]
        return []

    def layer_metrics(self) -> Dict[str, float]:
        stats = self.cache.stats
        lookups = stats.hits + stats.misses
        return {
            **_pool_metrics(self.executor),
            "cache.hits": stats.hits,
            "cache.misses": stats.misses,
            "cache.stores": stats.stores,
            "cache.hit_ratio": stats.hits / lookups if lookups else 0.0,
        }


class Sharded(Workload):
    """One degree sweep streamed shard by shard over a ShardedDataset."""

    name = "sharded"

    def setup(self) -> None:
        p = self.params
        self.sharded = ShardedDataset(
            SyntheticSpec("facebook", p["users"], seed=self.seed), p["shards"]
        )
        # A seeded sample from every shard, so every shard is built (the
        # figures' lowest-id cohort would only ever touch shard 0); the
        # degree window widens as the figures' cohort does.
        rng = random.Random(self.seed)
        self.cohort: List[int] = []
        for shard in range(p["shards"]):
            owned = set(self.sharded.shard_users(shard))
            for widen in range(COHORT_DEGREE):
                pool = [
                    u
                    for u in self.sharded.users_with_degree(
                        max(1, COHORT_DEGREE - widen),
                        max_degree=COHORT_DEGREE + widen,
                    )
                    if u in owned
                ]
                if len(pool) >= p["per_shard"]:
                    break
            self.cohort += sorted(rng.sample(pool, min(len(pool), p["per_shard"])))
        self.executor = ParallelExecutor()

    def _sweep(self, sweep, source, **kwargs):
        series = sweep(
            source,
            SporadicModel(),
            _policies(),
            mode=CONREP,
            degrees=list(DEGREES),
            users=self.cohort,
            seed=self.seed,
            repeats=1,
            **kwargs,
        )
        return {name: jsonify(points) for name, points in series.items()}

    def run(self, tracer) -> None:
        self.series = self._sweep(
            sweep_replication_degree_datasets, self.sharded, executor=self.executor
        )

    def outputs(self):
        return {"cohort": self.cohort, "series": self.series}

    def attempted(self) -> int:
        return _executor_items(self.executor)

    def failed(self) -> int:
        return _executor_failures(self.executor)

    def check(self) -> List[str]:
        # Dataset-mode rollups equal the eager whole-dataset sweep up to
        # float-summation order.
        eager = self._sweep(sweep_replication_degree, self.sharded.spec.eager())
        return compare_tree(eager, json.loads(canonical(self.series)), "$.eager")

    def layer_metrics(self) -> Dict[str, float]:
        return _pool_metrics(self.executor)


class Query(Workload):
    """Closed-loop point queries against one warm query plane."""

    name = "query"
    clients = 2

    def setup(self) -> None:
        p = self.params
        self.dataset = synthetic_facebook(p["users"], seed=self.seed)
        self.model = SporadicModel()
        self.prepare()
        self.failures = 0
        self.policies = _policies()
        # Only users with QUERY_DEGREES candidates are asked for: a cold
        # answer costs about its user's candidate count, and the few users
        # at the Zipf head make a large share of the distinct requests.
        # Over 1-30 candidates, the candidates summed over the distinct
        # requests spread 0.15 across ten seeds, and wall_s followed; over
        # 3-12 they spread 0.03.
        lo, hi = QUERY_DEGREES
        users = self.dataset.graph.users_with_degree(lo, max_degree=hi)
        rng = np.random.default_rng(self.seed)
        ranked = rng.permutation(users)
        weights = 1.0 / np.arange(1, len(ranked) + 1) ** 1.2
        n = p["requests"]
        self.requests = list(
            zip(
                ranked[rng.choice(len(ranked), n, p=weights / weights.sum())].tolist(),
                rng.choice(len(POLICIES), n, p=[0.5, 0.3, 0.2]).tolist(),
                rng.integers(1, 11, n).tolist(),
            )
        )

    def prepare(self) -> None:
        # A new plane starts with empty caches; it warms at once, since the
        # schedules it needs are memoised on the dataset by the first one.
        self.answers = self.latencies = None
        self.plane = None
        self.plane = QueryPlane(
            self.dataset, self.model, mode=CONREP, seed=self.seed
        ).warm()

    def run(self, tracer) -> None:
        n = len(self.requests)
        self.answers = [None] * n
        self.latencies = [0.0] * n
        failures = 0
        lock = threading.Lock()

        def client(offset: int) -> None:
            nonlocal failures
            for i in range(offset, n, self.clients):
                user, policy, k = self.requests[i]
                start = perf_counter()
                try:
                    with tracer.span("query.request", False):
                        outcome = self.plane.evaluate_resilient(
                            user, self.policies[policy], k
                        )
                        self.answers[i] = outcome.unwrap()
                    failed = outcome.degraded
                except Exception:  # counted as a failed request
                    failed = True
                self.latencies[i] = perf_counter() - start
                if failed:
                    with lock:
                        failures += 1

        start = perf_counter()
        threads = [
            threading.Thread(target=client, args=(c,)) for c in range(self.clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.wall = perf_counter() - start
        stats = self.plane.stats()
        plane_failed = (
            stats["failed"] + stats["stale_served"] + stats["fallback_served"]
        )
        self.failures += max(failures, plane_failed)
        self.ops += 1

    def _answered(self) -> Dict[tuple, object]:
        return {
            request: answer
            for request, answer in zip(self.requests, self.answers)
            if answer is not None
        }

    def outputs(self):
        return sorted(
            [list(request), metrics_to_payload(answer)]
            for request, answer in self._answered().items()
        )

    def reference_view(self):
        # Moments of every field over the distinct answers, in request order.
        answers = [payload for _, payload in self.outputs()]
        view = {"replicas": _moments([r for a in answers for r in a["replicas"]])}
        for field in answers[0]:
            if field != "replicas":
                view[field] = _moments([a[field] for a in answers])
        return view

    def attempted(self) -> int:
        return len(self.requests) * self.ops

    def failed(self) -> int:
        return self.failures

    def check(self) -> List[str]:
        answered = self._answered()
        sample = random.Random(self.seed).sample(
            sorted(answered), min(200, len(answered))
        )
        schedules = compute_schedules(self.dataset, self.model, seed=self.seed)
        errors = []
        for user, policy, k in sample:
            fresh = evaluate_single(
                self.dataset, schedules, user, self.policies[policy], k,
                mode=CONREP, seed=self.seed,
            )
            served = answered[(user, policy, k)]
            if canonical(metrics_to_payload(fresh)) != canonical(
                metrics_to_payload(served)
            ):
                errors.append(
                    f"query {(user, POLICIES[policy], k)} differs from a "
                    f"fresh evaluate_single"
                )
        return errors

    def layer_metrics(self) -> Dict[str, float]:
        stats = self.plane.stats()
        sequences = stats["sequences"]
        lookups = sequences["hits"] + sequences["misses"]
        cuts = statistics.quantiles(self.latencies, n=100)
        return {
            "query.qps": len(self.requests) / self.wall,
            "query.p50_ms": cuts[49] * 1e3,
            "query.p99_ms": cuts[98] * 1e3,
            "query.result_hit_ratio": stats["result_hits"] / stats["queries"],
            "query.sequence_hit_ratio": sequences["hits"] / lookups if lookups else 0.0,
            "query.evaluator_evictions": stats["evaluators"]["evictions"],
        }


def _moments(values: list) -> dict:
    """A compact reference for a long list of non-negative numbers:
    exact-rounded sums of the finite values (the last one
    position-weighted, so a reordering shows too), and the count of
    non-finite ones."""
    finite = [(i, x) for i, x in enumerate(values, 1) if math.isfinite(x)]
    return {
        "n": len(values),
        "nonfinite": len(values) - len(finite),
        "sum": math.fsum(x for _, x in finite),
        "sum_sq": math.fsum(x * x for _, x in finite),
        "weighted": math.fsum(i * x for i, x in finite),
    }


class Replay(Workload):
    """Trace replay of a placed cohort on the default (python) backend."""

    name = "replay"

    def setup(self) -> None:
        p = self.params
        self.dataset = synthetic_facebook(p["users"], seed=self.seed)
        self.schedules = compute_schedules(
            self.dataset, SporadicModel(), seed=self.seed
        )
        graph = self.dataset.graph
        eligible = [
            u for u in sorted(graph.users())
            if 3 <= len(graph.replica_candidates(u)) <= 30
        ]
        self.cohort = sorted(
            random.Random(self.seed).sample(eligible, min(p["cohort"], len(eligible)))
        )
        self.placements = placement_sequences(
            self.dataset, self.schedules, self.cohort, make_policy("maxav"),
            mode=CONREP, max_degree=3, seed=self.seed,
        )
        self.config = ReplayConfig(days=p["days"], sample_every=900, replay_reads=True)

    def _replay(self, backend: str):
        return replay_trace(
            self.dataset, self.schedules, self.placements, config=self.config,
            tracked_profiles=self.cohort, backend=backend,
        )

    def prepare(self) -> None:
        self.outcome = None

    def run(self, tracer) -> None:
        self.outcome = self._replay("python")
        self.ops += 1

    def outputs(self):
        return {
            "events_replayed": self.outcome.events_replayed,
            "stats": self.outcome.stats.to_dict(),
        }

    def reference_view(self):
        stats = self.outcome.stats.to_dict()
        view = {"events_replayed": self.outcome.events_replayed}
        for key, value in stats.items():
            if key in ("propagation", "observed", "staleness", "owner_delay"):
                # Per-profile sample counts, moments in sorted-profile order.
                view[key] = {
                    "counts": {u: len(v) for u, v in value.items()},
                    **_moments([x for u in sorted(value, key=int) for x in value[u]]),
                }
            else:
                view[key] = value
        return view

    def attempted(self) -> int:
        return len(self.cohort) * self.ops

    def failed(self) -> int:
        return (len(self.cohort) - len(self.placements)) * self.ops

    def check(self) -> List[str]:
        # The vectorized replay reproduces the scalar kernel field for
        # field, event count included.
        vectorized = self._replay("numpy")
        if vectorized.events_replayed != self.outcome.events_replayed or canonical(
            vectorized.stats.to_dict()
        ) != canonical(self.outcome.stats.to_dict()):
            return ["numpy-backend replay differs from the python replay"]
        return []


WORKLOADS = {cls.name: cls for cls in (Figures, Sharded, Query, Replay)}


def make(name: str, seed: int, size: str) -> Workload:
    return WORKLOADS[name](seed, SIZES[size][name])
