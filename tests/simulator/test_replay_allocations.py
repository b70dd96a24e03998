"""Allocation regression suite: what a python-engine replay constructs.

A replay queues its transitions, activities and first availability
sample in bulk, as bare heap entries; only events that may be cancelled
— later sample ticks and latency deliveries — get an
:class:`~repro.simulator.kernel.EventHandle`.  Each stats counter is
built when its profile is first recorded, never as a throwaway default,
and so is each per-profile sample list.  The counts below are exact and need no timing: constructor calls are
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


class _CountingSamples(dict):
    """A per-profile sample map that counts its inserts and its
    ``setdefault`` calls (each of which would build a list to drop)."""

    def __init__(self):
        super().__init__()
        self.inserts = 0
        self.setdefaults = 0

    def __setitem__(self, key, value):
        self.inserts += 1
        super().__setitem__(key, value)

    def setdefault(self, key, default=None):
        self.setdefaults += 1
        return super().setdefault(key, default)


_SAMPLE_MAPS = (
    "propagation_by_profile",
    "observed_by_profile",
    "staleness_by_profile",
    "owner_delay_by_profile",
)


@pytest.mark.parametrize("kind", ["facebook", "twitter"])
@pytest.mark.parametrize(
    "config",
    [
        ReplayConfig(days=2),
        ReplayConfig(
            days=2, latency=UniformLatency(30.0, 7200.0), latency_seed=1,
            use_cdn=True,
        ),
    ],
    ids=["plain", "latency-cdn"],
)
def test_every_sample_list_is_built_once(kind, config):
    reference = _osn(kind, config).run()
    osn = _osn(kind, config)
    maps = {name: _CountingSamples() for name in _SAMPLE_MAPS}
    for name, samples in maps.items():
        setattr(osn.stats, name, samples)
    stats = osn.run()
    for name, samples in maps.items():
        assert samples.setdefaults == 0, name
        assert samples.inserts == len(samples), name
        # Same profiles, first-seen order and samples as a plain replay.
        assert list(samples.items()) == list(getattr(reference, name).items())
    assert sum(len(samples) for samples in maps.values()) > 0
    assert maps["staleness_by_profile"]
