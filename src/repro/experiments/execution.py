"""The execution context every experiment runs under.

An :class:`Execution` bundles the knobs that change *how* an experiment
runs — worker pool, sweep cache and shard count — and never
*what* it computes.  It is built once per run
(by :func:`repro.experiments.run_experiment`, the batch runner or the
CLI), validated once, and handed to every experiment as its second
argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.parallel import ParallelExecutor

if TYPE_CHECKING:  # imported lazily: repro.cache imports repro.core
    from repro.cache import SweepCache


@dataclass(frozen=True)
class Execution:
    """How an experiment runs; every combination gives identical output.

    ``executor`` fans per-user work over worker processes (``None``: each
    call runs serially in-process); ``cache`` (a
    :class:`repro.cache.SweepCache`) shares sweeps and replays by content
    address; ``shards`` is how many pieces the data is processed in:
    with ``shards > 1`` the sweep experiments stream the
    :class:`~repro.datasets.ShardedDataset` of their dataset one shard
    view at a time, and the x6 replay splits its cohort that many ways.
    Invalid values raise :class:`ValueError` here, before any work.
    """

    executor: Optional[ParallelExecutor] = None
    cache: Optional["SweepCache"] = None
    shards: int = 1

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
