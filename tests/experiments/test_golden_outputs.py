"""Golden digests of every experiment's output and sweep-cache layout.

The committed ``golden_outputs.json`` pins, at a tiny scale:

* the SHA-256 of each experiment's canonical JSON ``data`` and of its
  rendered text (timing foot excluded) over the eager datasets;
* no further digests for the ten sweep experiments run with
  ``shards=2`` (streaming two-shard :class:`~repro.datasets.ShardedDataset`
  sources) or swept through the per-degree oracle (``tests/oracle.py``):
  both must reproduce the eager digests of the production engine;
* the sorted file names the on-disk :class:`~repro.cache.SweepCache`
  holds after the eager and the sharded runs, so refactors of the sweep
  plumbing provably keep hitting caches written before them.

Any change to a series, a table, or a cache key fails this test.  After
an *intended* output change, re-record with::

    PYTHONPATH=src python -m tests.experiments.test_golden_outputs
"""

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Dict, Tuple

from repro.cache import SweepCache
from repro.experiments import (
    ExperimentScale,
    experiment_ids,
    jsonify,
    run_experiment,
)
from repro.parallel import ParallelExecutor
from tests.oracle import oracle_sweeps

GOLDEN_PATH = Path(__file__).with_name("golden_outputs.json")

GOLDEN = ExperimentScale(
    name="golden",
    facebook_users=300,
    twitter_users=300,
    max_cohort_users=4,
    repeats=2,
)

#: The experiments that run a sweep (the ones ``shards`` streams).
SWEEP_IDS: Tuple[str, ...] = (
    "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
    "fig11", "x3",
)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _run(cache_dir: Path, ids, **knobs) -> Tuple[Dict[str, dict], list]:
    cache = SweepCache(cache_dir)
    executor = ParallelExecutor()
    digests = {}
    try:
        for eid in ids:
            result = run_experiment(
                eid, GOLDEN, executor=executor, cache=cache, **knobs
            )
            data = json.dumps(
                jsonify(result.data), sort_keys=True, separators=(",", ":")
            )
            text = dataclasses.replace(result, timings={}).render()
            digests[eid] = {"data": _sha(data), "render": _sha(text)}
    finally:
        executor.close()
    return digests, sorted(p.name for p in cache_dir.iterdir())


def compute_golden(workdir: Path) -> dict:
    cohort, cohort_entries = _run(workdir / "cohort", experiment_ids())
    sharded, sharded_entries = _run(workdir / "sharded", SWEEP_IDS, shards=2)
    return {
        "cohort": cohort,
        "sharded": sharded,
        "cache_entries": {
            "cohort": cohort_entries,
            "sharded": sharded_entries,
        },
    }


def test_outputs_and_cache_layout_match_golden(tmp_path):
    expected = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    got = compute_golden(tmp_path)
    assert got["cohort"] == expected["cohort"], "outputs changed"
    # Sharded sources pin no digests of their own: they must equal the
    # eager ones for every sweep experiment.
    assert got["sharded"] == {eid: got["cohort"][eid] for eid in SWEEP_IDS}
    for source in ("cohort", "sharded"):
        assert (
            got["cache_entries"][source] == expected["cache_entries"][source]
        ), f"{source} sweep-cache entry names changed"


def test_oracle_reproduces_cohort_digests(tmp_path):
    expected = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    with oracle_sweeps():
        got, _ = _run(tmp_path / "oracle", SWEEP_IDS)
    assert got == {eid: expected["cohort"][eid] for eid in SWEEP_IDS}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        golden = compute_golden(Path(tmp))
    del golden["sharded"]  # asserted equal to the eager digests
    GOLDEN_PATH.write_text(
        json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN_PATH}")
