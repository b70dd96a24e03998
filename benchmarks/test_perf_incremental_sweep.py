"""Incremental prefix-evaluation engine benchmark: speedup and identity.

Two contracts on the fixed BENCH synthetic Facebook cohort, degree sweep
0..10, single process:

1. Bit-identity — always asserted: the production sweep produces
   exactly the same ``AggregateMetrics`` (float-for-float) as the naive
   per-degree oracle (``tests/oracle.py``) swept through the same
   harness.
2. Speedup — the one-pass engine must cut wall-clock by >= 3x over the
   per-degree rebuild loop.

The measured timings land in ``BENCH_incremental.json`` at the repo root
(machine-readable phase -> seconds plus the speedup factor), which CI
uploads as an artifact so the perf trajectory is tracked PR-over-PR.
"""

import json
import os
import platform
from pathlib import Path
from time import perf_counter

from repro.core import make_policy, sweep_replication_degree
from repro.experiments import BENCH, facebook_dataset
from repro.experiments.figures import DEGREES, _cohort
from repro.onlinetime import SporadicModel
from tests.oracle import oracle_sweeps

MIN_SPEEDUP = 3.0

_JSON_PATH = Path(
    os.environ.get(
        "BENCH_INCREMENTAL_JSON",
        Path(__file__).resolve().parent.parent / "BENCH_incremental.json",
    )
)


def _sweep():
    dataset = facebook_dataset(BENCH)
    users = _cohort(dataset, BENCH)
    return sweep_replication_degree(
        dataset,
        SporadicModel(),
        [make_policy("maxav"), make_policy("mostactive"), make_policy("random")],
        degrees=list(DEGREES),
        users=users,
        seed=BENCH.seed,
        repeats=BENCH.repeats,
    )


def test_incremental_engine_speedup_and_identity(benchmark):
    _sweep()  # warm the dataset + schedule caches

    start = perf_counter()
    with oracle_sweeps():
        naive = _sweep()
    naive_seconds = perf_counter() - start

    start = perf_counter()
    incremental = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    incremental_seconds = perf_counter() - start

    assert incremental == naive  # exact dataclass equality, all floats

    speedup = naive_seconds / incremental_seconds
    record = {
        "bench": "incremental_sweep",
        "cohort_users": len(_cohort(facebook_dataset(BENCH), BENCH)),
        "degrees": list(DEGREES),
        "repeats": BENCH.repeats,
        "policies": ["maxav", "mostactive", "random"],
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
        },
        "phases": {
            "naive_seconds": round(naive_seconds, 6),
            "incremental_seconds": round(incremental_seconds, 6),
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
        f"naive {naive_seconds:.2f}s, incremental {incremental_seconds:.2f}s, "
        f"speedup {speedup:.2f}x -> {_JSON_PATH}"
    )
    assert speedup >= MIN_SPEEDUP
