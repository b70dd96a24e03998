"""Parallel sweep engine benchmark: speedup and determinism at BENCH scale.

Two contracts are checked here:

1. Bit-identity — always asserted: ``jobs=4`` produces exactly the same
   ``AggregateMetrics`` (float-for-float) as ``jobs=1``.
2. Speedup — a four-worker sweep must cut wall-clock by >= 2x over
   serial.  This only holds where four workers can actually run, so the
   assertion is skipped (honestly, not silently passed) on hosts with
   fewer than four CPUs.

The timing JSON emitted by ``run_batch`` is also validated, since the
speedup numbers documented in EXPERIMENTS.md come from those records.
"""

import json
import os

import pytest

from repro.core import make_policy, sweep_replication_degree
from repro.experiments import BENCH, facebook_dataset, run_batch
from repro.experiments.figures import DEGREES, _cohort
from repro.onlinetime import SporadicModel
from repro.parallel import ParallelExecutor, fork_available

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="needs the fork start method"
)

SPEEDUP_WORKERS = 4
MIN_SPEEDUP = 2.0


def _sweep(executor):
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
        executor=executor,
    )


def test_parallel_sweep_bit_identical_to_serial():
    serial_ex = ParallelExecutor(jobs=1)
    parallel_ex = ParallelExecutor(jobs=SPEEDUP_WORKERS)
    serial = _sweep(serial_ex)
    parallel = _sweep(parallel_ex)
    assert parallel == serial  # exact dataclass equality, all floats
    print()
    print(f"serial:   {serial_ex.timings_dict()}")
    print(f"parallel: {parallel_ex.timings_dict()}")


def test_parallel_sweep_speedup(benchmark):
    cpus = os.cpu_count() or 1
    if cpus < SPEEDUP_WORKERS:
        pytest.skip(
            f"speedup needs >= {SPEEDUP_WORKERS} CPUs, host has {cpus}"
        )

    serial_ex = ParallelExecutor(jobs=1)
    _sweep(serial_ex)  # warm dataset + schedule caches, then time serial
    serial_ex = ParallelExecutor(jobs=1)
    _sweep(serial_ex)
    serial_seconds = sum(t.seconds for t in serial_ex.timings.values())

    parallel_ex = ParallelExecutor(jobs=SPEEDUP_WORKERS)
    benchmark.pedantic(_sweep, args=(parallel_ex,), rounds=1, iterations=1)
    parallel_seconds = sum(t.seconds for t in parallel_ex.timings.values())

    speedup = serial_seconds / parallel_seconds
    print()
    print(
        f"serial {serial_seconds:.2f}s, "
        f"{SPEEDUP_WORKERS} workers {parallel_seconds:.2f}s, "
        f"speedup {speedup:.2f}x"
    )
    assert speedup >= MIN_SPEEDUP


def test_timings_written_to_result_json(tmp_path):
    run_batch(
        tmp_path, scale=BENCH, ids=["fig3"], executor=ParallelExecutor(jobs=2)
    )
    timings = json.loads((tmp_path / "fig3.json").read_text())["timings"]
    assert timings["jobs"] == 2
    assert timings["total_seconds"] > 0
    assert timings["phases"]
    for phase in timings["phases"].values():
        assert phase["seconds"] > 0
        assert phase["items"] > 0
        assert phase["items_per_second"] > 0
