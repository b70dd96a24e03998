"""Canonical content-addressed keys for the batch sweep cache.

A cached degree sweep is addressed by everything that determines its
floats — and *nothing else*.  The key covers the dataset (by content
fingerprint, not name), the online-time model (via
:meth:`~repro.onlinetime.base.OnlineTimeModel.cache_key`), the placement
policy (via :meth:`~repro.core.placement.base.PlacementPolicy.cache_key`),
the regime, the cohort, the swept degrees, and the seed/repeat protocol.
Deliberately *excluded* are the execution knobs — ``jobs`` and
``shards`` — because parallel runs and sharded sources are bit-identical
to the serial eager reference (the determinism contract).  The dataset
part is not one address for both kinds of source, though: an eager
dataset is addressed by its content fingerprint, and a
:class:`~repro.datasets.sharding.ShardedDataset` by its spec, not by its
shard count.  So one series entry serves every ``jobs`` value and every
shard count above one, but a ``--shards 1`` run and a sharded run of
the same sweep store separate entries (with equal floats) until eager
datasets are addressed by their spec too.

The same key space addresses the store's other entries: DES replay
outcomes (:func:`replay_cache_key`), point-query metrics
(:func:`point_query_key`) and the partial entries of a sweep still
running (:func:`partial_cells_key`).  Each hashes its own domain tag
first, so no two kinds of entry can share an address.

Keys are SHA-256 hex digests over the canonical part encoding of
:func:`repro.seeding.canonical_key_bytes` — the same fixed, versioned
hashing style as the seed derivation, never ``hash()``, so keys are
identical across processes, platforms, and ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Sequence

from repro.core.placement.base import PlacementPolicy
from repro.datasets.schema import Dataset
from repro.graph.social_graph import UserId
from repro.onlinetime.base import OnlineTimeModel
from repro.seeding import canonical_key_bytes

#: Bump when the key schema or the cached-value layout changes; stamped
#: into every key and every on-disk entry, so stale formats miss cleanly.
CACHE_FORMAT_VERSION = 1

#: Attribute under which a dataset memoizes its content fingerprint.
_FINGERPRINT_ATTR = "_repro_content_fingerprint"


_pack_double = struct.Struct("<d").pack


def dataset_fingerprint(dataset: Dataset) -> str:
    """A SHA-256 hex fingerprint of the dataset *content*.

    Hashes the kind, the directedness, every edge, and every activity
    (timestamp bits, creator, receiver) — not the display name, so two
    differently-labelled but identical datasets share cache entries.
    Memoized on the dataset object: computed once per dataset per
    process, reused by every key derivation.  Shard views and
    :class:`~repro.datasets.sharding.ShardedDataset` sources come
    pre-stamped with an address derived from their spec.
    """
    cached = getattr(dataset, _FINGERPRINT_ATTR, None)
    if cached is not None:
        return cached
    h = hashlib.sha256()
    h.update(
        canonical_key_bytes(
            "dataset", dataset.kind, dataset.graph.directed
        )
    )
    update = h.update
    # ``int`` ids take the canonical encoding's ``b"x:%d:%d"`` form
    # directly; any other id type goes through canonical_key_bytes.
    for a, b in sorted(dataset.graph.edges()):
        if type(a) is int and type(b) is int:
            update(b"e:%d:%d" % (a, b))
        else:
            update(canonical_key_bytes("e", a, b))
    for act in dataset.trace:
        # Timestamps hash by their exact float bits: two traces are
        # equal iff every instant is the identical double.
        update(_pack_double(act.timestamp))
        creator, receiver = act.creator, act.receiver
        if type(creator) is int and type(receiver) is int:
            update(b"a:%d:%d" % (creator, receiver))
        else:
            update(canonical_key_bytes("a", creator, receiver))
    fingerprint = h.hexdigest()
    setattr(dataset, _FINGERPRINT_ATTR, fingerprint)
    return fingerprint


def replay_cache_key(
    dataset: Dataset,
    model: OnlineTimeModel,
    *,
    seed: int,
    config,
    placements,
    tracked_profiles: Sequence[UserId],
) -> str:
    """The content address of one DES trace replay's statistics.

    Covers everything that determines the measured fields: the dataset
    content, the online-time model and schedule seed, every knob of the
    :class:`~repro.simulator.osn.ReplayConfig` (latency models enter via
    their parameter-carrying ``cache_key()``), the placement map — with
    each owner's replica *sequence* kept in order, because replica order
    fixes store-creation order and thereby anti-entropy transfer and
    latency-draw order — and the tracked cohort.  Execution knobs
    (``jobs``, ``shards``, ``backend``) are deliberately excluded: the
    sharded and vectorized paths are bit-identical to the serial scalar
    oracle, so one entry serves every combination.
    """
    latency = config.latency
    parts = (
        "replay",
        CACHE_FORMAT_VERSION,
        dataset_fingerprint(dataset),
        tuple(model.cache_key()),
        int(seed),
        int(config.days),
        float(config.sample_every),
        bool(config.use_cdn),
        bool(config.replay_reads),
        tuple(latency.cache_key()) if latency is not None else None,
        int(config.latency_seed),
        tuple(
            (owner, tuple(placements[owner]))
            for owner in sorted(placements)
        ),
        tuple(sorted(tracked_profiles)),
    )
    return hashlib.sha256(canonical_key_bytes(*parts)).hexdigest()


def point_query_key(
    dataset: Dataset,
    model: OnlineTimeModel,
    policy: PlacementPolicy,
    *,
    mode: str,
    user: UserId,
    k: int,
    seed: int,
) -> str:
    """The content address of one user's point-query metrics.

    Covers exactly what determines the floats of a single
    :func:`~repro.core.evaluation.evaluate_single` result: the dataset
    content, the online-time model, the placement policy, the regime,
    the schedule/placement seed, the user, and the allowed degree.
    Execution knobs — warm plane state — are deliberately
    excluded: the query plane's determinism contract makes every path
    bit-identical, so one entry serves them all, and a query result
    computed by any plane is valid for every other plane over the same
    inputs (and vice versa for sweep-derived entries).
    """
    parts = (
        "query",
        CACHE_FORMAT_VERSION,
        dataset_fingerprint(dataset),
        tuple(model.cache_key()),
        tuple(policy.cache_key()),
        mode,
        int(seed),
        int(user),
        int(k),
    )
    return hashlib.sha256(canonical_key_bytes(*parts)).hexdigest()


def sweep_cache_key(
    dataset: Dataset,
    model: OnlineTimeModel,
    policy: PlacementPolicy,
    *,
    mode: str,
    degrees: Sequence[int],
    users: Sequence[UserId],
    seed: int,
    repeats: int,
) -> str:
    """The content address of one policy's degree-sweep series.

    One key per *policy*, not per policy set: sweeps evaluate policies
    independently (each policy's RNG derives from ``(seed, policy.name,
    user)``), so a series computed inside any policy combination is
    valid for every other one — fig3's MaxAv series serves the
    MaxAv-only delay diagnostic unchanged.
    """
    parts = (
        "sweep",
        CACHE_FORMAT_VERSION,
        dataset_fingerprint(dataset),
        tuple(model.cache_key()),
        tuple(policy.cache_key()),
        mode,
        int(seed),
        int(repeats),
        tuple(int(d) for d in degrees),
        tuple(users),
    )
    return hashlib.sha256(canonical_key_bytes(*parts)).hexdigest()


def partial_cells_key(
    dataset: Dataset,
    model: OnlineTimeModel,
    policies: Sequence[PlacementPolicy],
    *,
    mode: str,
    degrees: Sequence[int],
    users: Sequence[UserId],
    seed: int,
    repeats: int,
    repeat: int,
) -> str:
    """The content address of one repeat's per-user cells of one sweep
    point over one view: a partial entry of a sweep still running.

    ``dataset`` is the view (the eager dataset, or a shard's cohort
    view) and ``users`` its slice of the point's cohort.  Unlike the
    per-policy series keys, a partial entry covers the whole *policy
    set* computed together — each cell interleaves every policy's
    metrics — so the key hashes the ordered tuple of policy keys.  A view
    is addressed by its content, so an eager sweep's partial keys do not
    depend on ``shards``, and a shard view's entries serve any run that
    builds the same view.
    """
    parts = (
        "sweep-partial",
        CACHE_FORMAT_VERSION,
        dataset_fingerprint(dataset),
        tuple(model.cache_key()),
        tuple(tuple(p.cache_key()) for p in policies),
        mode,
        int(seed),
        int(repeats),
        tuple(int(d) for d in degrees),
        tuple(users),
        int(repeat),
    )
    return hashlib.sha256(canonical_key_bytes(*parts)).hexdigest()
