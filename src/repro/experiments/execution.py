"""The execution context every experiment runs under.

An :class:`Execution` bundles the knobs that change *how* an experiment
runs — worker pool, sweep cache, shard count and shard mode — and never
*what* it computes.  It is built once per run
(by :func:`repro.experiments.run_experiment`, the batch runner or the
CLI), validated once, and handed to every experiment as its second
argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

from repro.parallel import ParallelExecutor

if TYPE_CHECKING:  # imported lazily: repro.cache imports repro.core
    from repro.cache import SweepCache

#: Shard modes for the sweep experiments.  ``"cohort"`` (default)
#: materialises the whole dataset and uses ``shards`` to slice each
#: sweep's cohort fan-out (results bit-identical for every value).
#: ``"dataset"`` never materialises the whole dataset: ``shards`` becomes
#: the :class:`~repro.datasets.ShardedDataset` shard count and the sweeps
#: stream one shard view at a time, merging per-shard aggregates —
#: equal to cohort mode field for field up to float-summation order.
COHORT_MODE = "cohort"
DATASET_MODE = "dataset"
SHARD_MODES: Tuple[str, ...] = (COHORT_MODE, DATASET_MODE)


def check_shard_mode(shard_mode: str) -> str:
    """Validate a shard-mode name."""
    if shard_mode not in SHARD_MODES:
        raise ValueError(
            f"unknown shard mode {shard_mode!r}; choose from {SHARD_MODES}"
        )
    return shard_mode


@dataclass(frozen=True)
class Execution:
    """How an experiment runs; every combination gives identical output.

    ``executor`` fans per-user work over worker processes (``None``: each
    call runs serially in-process); ``cache`` (a
    :class:`repro.cache.SweepCache`) shares sweeps and replays by content
    address; ``shards`` slices each sweep's cohort fan-out in cohort
    mode, counts dataset shards in dataset mode, and splits the x6
    replay; ``shard_mode`` is ``"cohort"`` or ``"dataset"``.
    Invalid values raise :class:`ValueError` here, before any work.
    """

    executor: Optional[ParallelExecutor] = None
    cache: Optional["SweepCache"] = None
    shards: int = 1
    shard_mode: str = COHORT_MODE

    def __post_init__(self) -> None:
        check_shard_mode(self.shard_mode)
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
