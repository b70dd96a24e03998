"""DES trace-replay benchmark: vectorized speedup, sharded identity.

The contracts of the packed-plane replay port, measured on the BENCH
synthetic Facebook dataset (1500 users, FixedLength(8) schedules, 3
replay days with availability sampling and read replay — the full
measurement surface):

1. Bit-identity — always asserted: ``backend="numpy"`` produces exactly
   the same ``SimulationStats`` rendering and logical event count as the
   scalar :class:`DecentralizedOSN` oracle, and so does the sharded
   multi-process path.
2. Speedup — the vectorized single-process replay must cut wall-clock by
   >= 3x.  The gate dates from a scalar oracle that pushed every user's
   transitions through the heap.  The oracle now runs only the
   transitions of replica hosts and readers of tracked profiles, up to
   the horizon, and counts the rest in closed form — the same work the
   vectorized engine skips with its ``searchsorted`` calls per replica
   group — so the remaining gap is small and the gate may fail; its
   bound is left as it was.

The 1-vs-N-jobs sharded timing is recorded (events/second per
configuration) but not asserted: at BENCH scale the fork + pickle
overhead of the pool can exceed the replay itself, and the interesting
scaling regime is the million-user path, not CI.

The measured timings land in ``BENCH_des.json`` at the repo root
(machine-readable seconds and events/second per configuration plus the
speedup factor), which CI uploads as an artifact so the perf trajectory
is tracked PR-over-PR.
"""

import json
import os
import platform
from pathlib import Path
from time import perf_counter

from repro.core import CONREP, make_policy, placement_sequences, select_cohort
from repro.experiments import BENCH, facebook_dataset
from repro.onlinetime import FixedLengthModel, compute_schedules, packed_schedules
from repro.parallel import ParallelExecutor
from repro.simulator import ReplayConfig, replay_trace

MIN_SPEEDUP = 3.0
JOBS = 2
SHARDS = 4

_JSON_PATH = Path(
    os.environ.get(
        "BENCH_DES_JSON",
        Path(__file__).resolve().parent.parent / "BENCH_des.json",
    )
)


def _setup():
    dataset = facebook_dataset(BENCH)
    model = FixedLengthModel(8)
    schedules = compute_schedules(dataset, model, seed=BENCH.seed)
    users = select_cohort(
        dataset, BENCH.cohort_degree, max_users=BENCH.max_cohort_users
    )
    placements = placement_sequences(
        dataset,
        schedules,
        users,
        make_policy("maxav"),
        mode=CONREP,
        max_degree=3,
        seed=BENCH.seed,
    )
    packed = packed_schedules(dataset, model, seed=BENCH.seed)
    config = ReplayConfig(days=3, sample_every=900.0, replay_reads=True)
    return dataset, schedules, users, placements, packed, config


def _replay(setup, backend, *, packed=False, executor=None, shards=1):
    dataset, schedules, users, placements, packed_arrays, config = setup
    return replay_trace(
        dataset,
        schedules,
        placements,
        config=config,
        tracked_profiles=users,
        backend=backend,
        shards=shards,
        executor=executor,
        packed=packed_arrays if packed else None,
    )


def test_des_replay_speedup_and_identity(benchmark):
    setup = _setup()
    _replay(setup, "numpy", packed=True)  # warm caches, both paths
    _replay(setup, "python")

    start = perf_counter()
    scalar = _replay(setup, "python")
    python_seconds = perf_counter() - start

    start = perf_counter()
    vectorized = benchmark.pedantic(
        _replay,
        args=(setup, "numpy"),
        kwargs={"packed": True},
        rounds=1,
        iterations=1,
    )
    numpy_seconds = perf_counter() - start

    # Bit-identity: field-for-field stats and the same logical events.
    assert vectorized.stats.to_dict() == scalar.stats.to_dict()
    assert vectorized.events_replayed == scalar.events_replayed

    # Sharded multi-process replay: identical stats, recorded timing.
    start = perf_counter()
    sharded = _replay(
        setup,
        "numpy",
        packed=True,
        executor=ParallelExecutor(jobs=JOBS),
        shards=SHARDS,
    )
    sharded_seconds = perf_counter() - start
    assert sharded.stats.to_dict() == scalar.stats.to_dict()

    speedup = python_seconds / numpy_seconds
    events = scalar.events_replayed
    record = {
        "bench": "des_replay",
        "dataset": "synthetic facebook (BENCH)",
        "users": len(list(setup[0].graph.users())),
        "cohort_users": len(setup[2]),
        "config": {"days": 3, "sample_every": 900.0, "replay_reads": True},
        "events_replayed": events,
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
        },
        "phases": {
            "python_seconds": round(python_seconds, 6),
            "numpy_seconds": round(numpy_seconds, 6),
            "sharded_seconds": round(sharded_seconds, 6),
        },
        "events_per_second": {
            "python": round(events / python_seconds, 1),
            "numpy": round(events / numpy_seconds, 1),
            f"numpy_jobs{JOBS}_shards{SHARDS}": round(
                sharded.events_replayed / sharded_seconds, 1
            ),
        },
        "speedup": round(speedup, 3),
        "min_speedup": MIN_SPEEDUP,
        "identical_results": True,
    }
    _JSON_PATH.write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print()
    print(
        f"python {python_seconds:.2f}s, numpy {numpy_seconds:.2f}s "
        f"({events} events, {events / numpy_seconds:,.0f} events/s), "
        f"jobs={JOBS} shards={SHARDS} {sharded_seconds:.2f}s, "
        f"speedup {speedup:.2f}x -> {_JSON_PATH}"
    )
    assert speedup >= MIN_SPEEDUP
