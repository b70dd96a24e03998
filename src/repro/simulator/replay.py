"""Sharded, cache-composed orchestration of DES trace replay.

:func:`replay_trace` is the one entry point the experiments, the batch
runner and the CLI use to replay a trace.  It dispatches between the
scalar :class:`~repro.simulator.osn.DecentralizedOSN` oracle
(``backend="python"``) and the packed-plane
:class:`~repro.simulator.vectorized.VectorizedReplay`
(``backend="numpy"``), optionally partitions the profile cohort into
disjoint shards replayed across the supervised
:class:`~repro.parallel.executor.ParallelExecutor`, and merges the
per-shard measurements with :meth:`SimulationStats.merge`.

Why sharding is exact: replica groups share no state — each group's
stores, CDN shadow and latency RNG stream
(:func:`~repro.simulator.osn.latency_rng`) are keyed by its profile — so
replaying any subset of the placement map measures exactly that subset's
per-profile statistics, and the sorted-profile canonical ordering of
:class:`SimulationStats` renders the merged result bit-identical to a
whole-cohort pass.  This holds across every ``(jobs, shards, backend)``
combination, which is also why the replay cache key
(:func:`repro.cache.keys.replay_cache_key`) excludes all three knobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

from repro.datasets.schema import Dataset
from repro.graph.social_graph import UserId
from repro.onlinetime.base import Schedules
from repro.parallel.executor import ParallelExecutor
from repro.parallel.supervise import is_quarantined
from repro.parallel.worker import ReplayPayload, replay_shards_chunk
from repro.partition import clamp_parts, partition_slices
from repro.simulator.osn import DecentralizedOSN, Placements, ReplayConfig
from repro.simulator.stats import SimulationStats
from repro.simulator.vectorized import VectorizedReplay
from repro.timeline.packed import PackedSchedules

#: Replay engines: the scalar DES oracle and the packed-plane replay.
#: The DES is the one layer that still chooses between two engines.
PYTHON = "python"
NUMPY = "numpy"
BACKENDS = (PYTHON, NUMPY)


def check_backend(backend: str) -> str:
    """Validate a replay engine name."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {BACKENDS}"
        )
    return backend


@dataclass(frozen=True)
class ReplayOutcome:
    """One replay's statistics plus its execution footprint."""

    stats: SimulationStats
    #: Logical events replayed for the same shard partition: every
    #: user's transitions up to the horizon, posts, latency deliveries
    #: and sampling ticks.  Both engines count, rather than run, the
    #: transitions no measurement observes (the oracle's idle users).
    #: Sums over shards, so it grows with the shard count (each shard
    #: re-counts the cohort-wide transition stream); the measured
    #: ``stats`` do not.
    events_replayed: int
    backend: str
    shards: int
    #: Whether the outcome was served from the replay cache.
    cached: bool = False


def shard_owners(
    placements: Placements, shards: int
) -> Tuple[Tuple[UserId, ...], ...]:
    """Disjoint, jointly-covering owner cohorts, one per shard.

    Owners are sorted and split contiguously through the shared
    :func:`repro.partition.partition_slices` formula — the same slices a
    sweep shard or a :class:`~repro.datasets.ShardedDataset` shard would
    cover; at most ``len(placements)`` shards (never an empty shard), at
    least one.  Merged replay statistics are partition-independent, so
    the chunk shapes are an execution detail, not a semantic one.
    """
    owners = sorted(placements)
    return partition_slices(owners, clamp_parts(shards, len(owners)))


def _replay_single(
    dataset: Dataset,
    schedules: Schedules,
    placements: Placements,
    config: ReplayConfig,
    tracked: Optional[Iterable[UserId]],
    backend: str,
    packed: Optional[PackedSchedules],
) -> Tuple[SimulationStats, int]:
    """Replay one placement subset on the selected backend."""
    if check_backend(backend) == NUMPY:
        engine = VectorizedReplay(
            dataset,
            schedules,
            placements,
            config=config,
            tracked_profiles=tracked,
            packed=packed,
        )
        stats = engine.run()
        return stats, engine.events_replayed
    osn = DecentralizedOSN(
        dataset,
        schedules,
        placements,
        config=config,
        tracked_profiles=tracked,
    )
    stats = osn.run()
    return stats, osn.events_replayed


def replay_shard(
    payload: ReplayPayload, shard_id: int
) -> Tuple[SimulationStats, int]:
    """Replay one shard of a :class:`ReplayPayload` (pool kernel)."""
    owners = payload.shard_owners[shard_id]
    placements = {
        owner: payload.placements[owner] for owner in owners
    }
    # The full tracked cohort ships to every shard: trackers outside the
    # shard's replication map contribute nothing (every read/write/
    # sampling path checks membership), so the intersection is implicit
    # and exact.
    return _replay_single(
        payload.dataset,
        payload.schedules,
        placements,
        payload.config,
        payload.tracked,
        payload.backend,
        payload.packed,
    )


def replay_trace(
    dataset: Dataset,
    schedules: Schedules,
    placements: Placements,
    *,
    config: ReplayConfig = ReplayConfig(),
    tracked_profiles: Optional[Iterable[UserId]] = None,
    backend: str = PYTHON,
    shards: int = 1,
    executor: Optional[ParallelExecutor] = None,
    packed: Optional[PackedSchedules] = None,
    cache=None,
    cache_key: Optional[str] = None,
) -> ReplayOutcome:
    """Replay the trace; bit-identical stats for every knob combination.

    ``cache``/``cache_key`` — an optional
    :class:`~repro.cache.store.SweepCache` plus the content address from
    :func:`~repro.cache.keys.replay_cache_key`; hits skip the replay
    entirely and misses store the merged outcome for the next batch.
    """
    backend = check_backend(backend)
    if cache is not None and cache_key is not None:
        payload = cache.get_payload(cache_key)
        if payload is not None:
            return ReplayOutcome(
                stats=SimulationStats.from_dict(payload["stats"]),
                events_replayed=int(payload["events_replayed"]),
                backend=backend,
                shards=int(payload.get("shards", 1)),
                cached=True,
            )

    tracked = (
        tuple(sorted(set(tracked_profiles)))
        if tracked_profiles is not None
        else None
    )
    chunks = shard_owners(placements, shards)
    n_shards = len(chunks)

    if n_shards == 1 and executor is None:
        stats, events = _replay_single(
            dataset, schedules, placements, config, tracked, backend, packed
        )
    else:
        shard_payload = ReplayPayload(
            dataset=dataset,
            schedules=schedules,
            placements={
                owner: tuple(replicas)
                for owner, replicas in placements.items()
            },
            config=config,
            shard_owners=chunks,
            tracked=tracked,
            backend=backend,
            packed=packed,
        )
        if executor is None:
            results: Sequence = replay_shards_chunk(
                shard_payload, range(n_shards)
            )
        else:
            results = executor.map_shared(
                replay_shards_chunk,
                shard_payload,
                list(range(n_shards)),
                phase="replay",
            )
        parts = [r for r in results if not is_quarantined(r)]
        if not parts:
            raise RuntimeError("every replay shard was quarantined")
        stats = SimulationStats.merge(part[0] for part in parts)
        events = sum(part[1] for part in parts)

    if cache is not None and cache_key is not None:
        cache.put_payload(
            cache_key,
            {
                "stats": stats.to_dict(),
                "events_replayed": int(events),
                "shards": n_shards,
            },
        )
    return ReplayOutcome(
        stats=stats,
        events_replayed=int(events),
        backend=backend,
        shards=n_shards,
        cached=False,
    )
