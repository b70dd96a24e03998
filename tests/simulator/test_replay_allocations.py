"""Allocation regression suite: what a python-engine replay constructs.

A replay queues its transitions, activities and first availability
sample in bulk, as bare heap entries; only events that may be cancelled
— later sample ticks and latency deliveries — get an
:class:`~repro.simulator.kernel.EventHandle`.  Each stats counter is
built when its profile is first recorded, never as a throwaway default.
The counts below are exact and need no timing: constructor calls are
counted by patching ``__init__``.
"""

import random

import pytest

from repro.datasets import synthetic_facebook, synthetic_twitter
from repro.onlinetime import SporadicModel, compute_schedules
from repro.simulator import (
    Counter2,
    DecentralizedOSN,
    EventHandle,
    ReplayConfig,
    UniformLatency,
)
from repro.timeline import DAY_SECONDS


def _count_inits(monkeypatch, cls) -> list:
    """Count ``cls`` constructions from now on; returns a one-item list."""
    calls = [0]
    init = cls.__init__

    def counting_init(self, *args, **kwargs):
        calls[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counting_init)
    return calls


def _osn(kind: str, config: ReplayConfig, seed: int = 3) -> DecentralizedOSN:
    make = synthetic_facebook if kind == "facebook" else synthetic_twitter
    dataset = make(150, seed=seed)
    schedules = compute_schedules(dataset, SporadicModel(), seed=seed)
    rng = random.Random(seed)
    graph = dataset.graph
    owners = rng.sample(sorted(graph.users()), 25)
    placements = {
        owner: tuple(
            rng.sample(
                sorted(graph.replica_candidates(owner)),
                min(3, len(graph.replica_candidates(owner))),
            )
        )
        for owner in owners
    }
    return DecentralizedOSN(
        dataset,
        schedules,
        placements,
        config=config,
        tracked_profiles=owners[::2],
    )


@pytest.mark.parametrize("kind", ["facebook", "twitter"])
@pytest.mark.parametrize("use_cdn", [False, True])
def test_replay_without_sampling_or_latency_builds_no_handles(
    monkeypatch, kind, use_cdn
):
    osn = _osn(kind, ReplayConfig(days=2, sample_every=0, use_cdn=use_cdn))
    handles = _count_inits(monkeypatch, EventHandle)
    osn.run()
    assert osn.events_replayed > 0
    assert handles[0] == 0


def test_only_sample_ticks_after_the_first_carry_handles(monkeypatch):
    days, every = 2, 900.0
    osn = _osn("facebook", ReplayConfig(days=days, sample_every=every))
    handles = _count_inits(monkeypatch, EventHandle)
    osn.run()
    # The first tick is queued in bulk; each tick queues the next one
    # while it stays inside the horizon.
    assert handles[0] == int(days * DAY_SECONDS // every) - 1


@pytest.mark.parametrize("kind", ["facebook", "twitter"])
@pytest.mark.parametrize(
    "config",
    [
        ReplayConfig(days=1),
        ReplayConfig(days=2, sample_every=5400.5, use_cdn=True),
        ReplayConfig(
            days=2, latency=UniformLatency(30.0, 7200.0), latency_seed=1
        ),
        ReplayConfig(days=1, sample_every=0, replay_reads=False),
    ],
    ids=["plain", "cdn", "latency", "writes-only"],
)
def test_every_counter_is_built_once(monkeypatch, kind, config):
    osn = _osn(kind, config)
    counters = _count_inits(monkeypatch, Counter2)
    stats = osn.run()
    built = len(stats.availability) + len(stats.writes) + len(stats.reads)
    assert built > 0
    assert counters[0] == built
