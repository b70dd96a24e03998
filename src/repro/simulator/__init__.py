"""Discrete-event simulator of the decentralized F2F OSN.

The executable counterpart of the closed-form metrics: peer nodes cycle
online/offline on their model-derived schedules, replicas exchange updates
by anti-entropy during shared windows (or via a CDN under UnconRep), and
the trace is replayed as write events while availability, service rates
and propagation delays are measured empirically.
"""

from repro.simulator.kernel import EventHandle, SimulationError, Simulator
from repro.simulator.network import (
    ConstantLatency,
    LatencyModel,
    NoLatency,
    UniformLatency,
)
from repro.simulator.node import (
    PRIORITY_DEFAULT,
    PRIORITY_OFFLINE,
    PRIORITY_ONLINE,
    PeerNode,
    day_transitions,
    transition_event_count,
)
from repro.simulator.osn import (
    DecentralizedOSN,
    ReplayConfig,
    finalize_replication_stats,
    latency_rng,
)
from repro.simulator.replay import (
    ReplayOutcome,
    replay_trace,
    shard_owners,
)
from repro.simulator.replication import (
    ProfileReplication,
    ReplicaStore,
    Update,
)
from repro.simulator.stats import Counter2, SimulationStats
from repro.simulator.vectorized import VectorizedReplay

__all__ = [
    "ConstantLatency",
    "Counter2",
    "DecentralizedOSN",
    "EventHandle",
    "LatencyModel",
    "NoLatency",
    "PRIORITY_DEFAULT",
    "PRIORITY_OFFLINE",
    "PRIORITY_ONLINE",
    "PeerNode",
    "ProfileReplication",
    "ReplayConfig",
    "ReplayOutcome",
    "ReplicaStore",
    "SimulationError",
    "SimulationStats",
    "Simulator",
    "UniformLatency",
    "Update",
    "VectorizedReplay",
    "day_transitions",
    "finalize_replication_stats",
    "latency_rng",
    "replay_trace",
    "shard_owners",
    "transition_event_count",
]
