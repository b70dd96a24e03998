"""Query-plane latency/throughput benchmark: cold, warm, cached.

A closed-loop client drives point queries against the warm plane on the
fixed BENCH synthetic Facebook dataset and measures per-tier latency
percentiles and throughput:

* ``cold`` — a fresh :class:`~repro.query.QueryPlane` per query: every
  query pays evaluator construction, selection, and evaluation (the
  dataset-level schedule memo is shared — that is plane-independent
  state every tier enjoys, so the comparison isolates the *plane's*
  warm state).
* ``warm_state`` — one plane, distinct queries: evaluators and
  sequences are resident, results are not.
* ``warm`` — one plane, repeated queries: pure result-LRU hits.  The
  asserted contract: warm p50 must beat cold p50 by >= 10x.
* ``resilient`` — the warm tier through ``evaluate_resilient`` with a
  per-request deadline: the degraded-serving machinery's happy path,
  held to the same p99 ceiling as ``warm``.
* ``cached`` — a fresh plane over a pre-populated shared
  :class:`~repro.cache.SweepCache`: content-address hits only.

Identity is asserted before any timing: every tier's answers equal the
matching batch-sweep cells bit for bit.

Results land in ``BENCH_query.json`` at the repo root (override with
``BENCH_QUERY_JSON``), which CI uploads as an artifact.  CI's latency
smoke job also sets ``REPRO_QUERY_P99_CEILING_MS`` to assert a warm-p99
ceiling; unset (the default) no ceiling is enforced.
"""

import json
import os
import platform
from pathlib import Path
from time import perf_counter

from repro.analysis import percentile
from repro.cache import SweepCache
from repro.core import CONREP, make_policy
from repro.experiments import BENCH, facebook_dataset
from repro.onlinetime import SporadicModel, compute_schedules
from repro.parallel import SweepPayload, evaluate_users_chunk
from repro.query import QueryPlane
from repro.resilience import Deadline

MIN_WARM_SPEEDUP = 10.0
SEED = BENCH.seed
POLICY = "maxav"
K = 3
N_USERS = 24

_JSON_PATH = Path(
    os.environ.get(
        "BENCH_QUERY_JSON",
        Path(__file__).resolve().parent.parent / "BENCH_query.json",
    )
)


def _tier(latencies_ms):
    ordered = sorted(latencies_ms)
    total_s = sum(ordered) / 1e3
    return {
        "n": len(ordered),
        "p50_ms": round(percentile(ordered, 50), 4),
        "p99_ms": round(percentile(ordered, 99), 4),
        "qps": round(len(ordered) / total_s, 1) if total_s > 0 else None,
    }


def _setup():
    dataset = facebook_dataset(BENCH)
    model = SporadicModel()
    users = sorted(dataset.graph.users())[:N_USERS]
    # Shared, plane-independent state: schedule memo on the dataset.
    compute_schedules(dataset, model, seed=SEED)
    return dataset, model, users


def _reference_cells(dataset, model, users):
    schedules = compute_schedules(dataset, model, seed=SEED)
    payload = SweepPayload(
        dataset=dataset,
        schedules=schedules,
        policies=(make_policy(POLICY),),
        mode=CONREP,
        degrees=(K,),
        max_degree=K,
        seed=SEED,
    )
    policy_name = make_policy(POLICY).name
    return {
        user: cell[policy_name][0]
        for user, cell in zip(users, evaluate_users_chunk(payload, users))
    }


def test_query_latency_tiers(benchmark, tmp_path):
    dataset, model, users = _setup()
    expected = _reference_cells(dataset, model, users)

    # -- cold: a fresh plane per query -----------------------------------
    cold_ms = []
    for user in users:
        plane = QueryPlane(dataset, model, seed=SEED)
        start = perf_counter()
        metrics = plane.evaluate(user, make_policy(POLICY), K)
        cold_ms.append((perf_counter() - start) * 1e3)
        assert metrics == expected[user]

    # -- warm state: one plane, first sight of each query -----------------
    plane = QueryPlane(dataset, model, seed=SEED).warm()
    warm_state_ms = []
    for user in users:
        start = perf_counter()
        metrics = plane.evaluate(user, make_policy(POLICY), K)
        warm_state_ms.append((perf_counter() - start) * 1e3)
        assert metrics == expected[user]

    # -- warm: repeats are pure result-LRU hits (the asserted tier) -------
    def warm_pass():
        for user in users:
            plane.evaluate(user, make_policy(POLICY), K)

    benchmark.pedantic(warm_pass, rounds=1, iterations=1)
    warm_ms = []
    for user in users:
        start = perf_counter()
        metrics = plane.evaluate(user, make_policy(POLICY), K)
        warm_ms.append((perf_counter() - start) * 1e3)
        assert metrics == expected[user]

    # -- resilient: the warm tier through the degraded-serving path -------
    # Per-request deadlines and the degradation decision tree ride every
    # resilient query; on the happy path (nothing degrades) they must
    # not cost the warm tier its p99 ceiling.
    resilient_ms = []
    for user in users:
        start = perf_counter()
        outcome = plane.evaluate_resilient(
            user, make_policy(POLICY), K, deadline=Deadline.after_ms(1000)
        )
        resilient_ms.append((perf_counter() - start) * 1e3)
        assert outcome.ok and not outcome.degraded
        assert outcome.value == expected[user]

    # -- cached: fresh plane over a shared content-address store ----------
    store = SweepCache(cache_dir=str(tmp_path))
    writer = QueryPlane(dataset, model, seed=SEED, cache=store)
    for user in users:
        writer.evaluate(user, make_policy(POLICY), K)
    reader = QueryPlane(dataset, model, seed=SEED, cache=store).warm()
    cached_ms = []
    for user in users:
        start = perf_counter()
        metrics = reader.evaluate(user, make_policy(POLICY), K)
        cached_ms.append((perf_counter() - start) * 1e3)
        assert metrics == expected[user]
    assert reader.stats()["store_hits"] == len(users)

    tiers = {
        "cold": _tier(cold_ms),
        "warm_state": _tier(warm_state_ms),
        "warm": _tier(warm_ms),
        "resilient": _tier(resilient_ms),
        "cached": _tier(cached_ms),
    }
    speedup = tiers["cold"]["p50_ms"] / max(tiers["warm"]["p50_ms"], 1e-9)

    record = {
        "bench": "query_plane",
        "policy": POLICY,
        "k": K,
        "users": len(users),
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
        },
        "tiers": tiers,
        "warm_speedup": round(speedup, 2),
        "min_warm_speedup": MIN_WARM_SPEEDUP,
        "identical_results": True,
    }
    _JSON_PATH.write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print()
    print(
        f"cold p50 {tiers['cold']['p50_ms']:.2f}ms, warm p50 "
        f"{tiers['warm']['p50_ms']:.4f}ms ({speedup:.0f}x), cached p50 "
        f"{tiers['cached']['p50_ms']:.4f}ms -> {_JSON_PATH}"
    )
    assert speedup >= MIN_WARM_SPEEDUP

    ceiling = os.environ.get("REPRO_QUERY_P99_CEILING_MS")
    if ceiling:
        assert tiers["warm"]["p99_ms"] <= float(ceiling), (
            f"warm p99 {tiers['warm']['p99_ms']}ms exceeds the "
            f"{ceiling}ms ceiling"
        )
        # The same ceiling holds with deadlines and degradation armed.
        assert tiers["resilient"]["p99_ms"] <= float(ceiling), (
            f"resilient p99 {tiers['resilient']['p99_ms']}ms exceeds "
            f"the {ceiling}ms ceiling"
        )
