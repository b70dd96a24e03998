"""Exact-output pins of the dataset build and of schedule inference.

The values below must never move without a ``STREAM_VERSION`` bump
(or, for the schedules, a deliberate model change): they pin the full
synthesis draw order (stream layout v2), the activity filter, the shard
views' regeneration of closure users, and the online-time models'
float-for-float schedules.  A refactor of ``user_activities``, of the
``Activity`` constructor or of the schedule models that keeps these
digests keeps every dataset, every cache key and every figure.
"""

import hashlib
import struct

import pytest

from repro.cache import dataset_fingerprint
from repro.datasets import (
    ShardedDataset,
    SyntheticSpec,
    synthetic_facebook,
    synthetic_twitter,
)
from repro.onlinetime import (
    FixedLengthModel,
    RandomLengthModel,
    SporadicModel,
    compute_schedules,
)

_BUILDERS = {"facebook": synthetic_facebook, "twitter": synthetic_twitter}

FINGERPRINTS = {
    ("facebook", 500, 7, "legacy"):
        "31709789d48df183f576bf7b4c0c0ad061d19fe47ce45c2be5c98f28dd3428cd",
    ("facebook", 500, 7, "stream"):
        "7ae0ed0860b39d39fb8ae29415b9856266f40e68fbc02d1012832eef2a45f738",
    ("facebook", 2000, 42, "legacy"):
        "658d32a2e8be4f64bb6e8575512580b46d119943096744b16670f09f37fe98d7",
    ("facebook", 2000, 42, "stream"):
        "993cfc39f0671270b878e04b4a8b25ea6e34184643e4b80c44f1fd3185d700de",
    ("twitter", 500, 7, "legacy"):
        "b3b9f1a009ce20f8630fb2caa2367879eb8482fa260f603d45468e21511a02d5",
    ("twitter", 500, 7, "stream"):
        "0b00d06fa9e5acb9e88d42e2e76af8dea7e352475423a7bfefae8af3176cb469",
    ("twitter", 2000, 42, "legacy"):
        "3377e14bc5cb752453f241de42a5cc31e7151fbe6da80204ec0ef31aad6dc3e7",
    ("twitter", 2000, 42, "stream"):
        "9466d80822b76de695c97765b67e9c095a940e2fc6712a689d215219e0175234",
}

#: SHA-256 of ``ShardedDataset(SyntheticSpec(kind, 2000, 42), 4).shard(1)``.
SHARD_DIGESTS = {
    "facebook":
        "975e003e8f6ad5a59a8b20fffe4fc1b0b4585afa27e70df10fe32efa2ff2adc0",
    "twitter":
        "2458a75c35a0f646345f12c774088c2e0ff8332a61bbde4326810dce765b0cfb",
}

_MODELS = {
    "sporadic": SporadicModel(),
    "sporadic-100s": SporadicModel(session_seconds=100),
    "fixedlength-4h": FixedLengthModel(hours=4),
    "randomlength": RandomLengthModel(),
}

#: SHA-256 of every schedule of the (kind, 500, seed 7) dataset, seed 3.
SCHEDULE_DIGESTS = {
    ("facebook", "sporadic"):
        "8e45f791f5c90bd1f38a28b801e5b0221285cf21007027e15a1c1ae0c30c0737",
    ("facebook", "sporadic-100s"):
        "5ec227e71bed8a68a4c027fb9b6a0886b5473fc94cc624886477a0b9b9f7c267",
    ("facebook", "fixedlength-4h"):
        "3723a41e9ee65610dd06f5a80efbcdd76a0ae4e001d7868755de01ce9dce8f03",
    ("facebook", "randomlength"):
        "9ac5e3f13d226d6c72fc91a1db1c3554a413f5310fa823f4590c7950097c0521",
    ("twitter", "sporadic"):
        "bc38db129c247f33b16cf439c7f649241dad936878e70043e2f848ea6b89df8a",
    ("twitter", "sporadic-100s"):
        "a3842ee3cf0ad97b085e2ba49bb160c6fff9521b56f82d96fe9a40ae43cd1220",
    ("twitter", "fixedlength-4h"):
        "c34f5d1f875b45ef043dcccca9c5b0c7941e7fdf51efbc1cbd13d4435715346f",
    ("twitter", "randomlength"):
        "091e78bfef2ff8dd729c1b2c5fb00fd1101d49de028b6fbb9b7cefc3d65a3a63",
}

_pack_double = struct.Struct("<d").pack


def _endpoint(x) -> str:
    # The type is part of the pin: the interval algebra keeps int
    # endpoints int and float endpoints float.
    return f"{type(x).__name__}:{float(x).hex()}"


def content_digest(dataset) -> str:
    """SHA-256 over the edges and activities themselves (a shard's stamped
    fingerprint is derived from its spec, not from its content)."""
    h = hashlib.sha256()
    for a, b in sorted(dataset.graph.edges()):
        h.update(b"e:%d:%d;" % (a, b))
    for act in dataset.trace:
        h.update(_pack_double(act.timestamp))
        h.update(b"a:%d:%d;" % (act.creator, act.receiver))
    return h.hexdigest()


def schedule_digest(schedules) -> str:
    h = hashlib.sha256()
    for user, schedule in schedules.items():
        h.update(b"u:%d;" % user)
        for start, end in schedule.intervals:
            h.update(f"{_endpoint(start)},{_endpoint(end)};".encode())
    return h.hexdigest()


@pytest.fixture(scope="module")
def small_datasets():
    return {kind: build(500, seed=7) for kind, build in _BUILDERS.items()}


@pytest.mark.parametrize(
    "kind,num_users,seed,layout", sorted(FINGERPRINTS)
)
def test_dataset_fingerprint_pinned(kind, num_users, seed, layout):
    dataset = _BUILDERS[kind](num_users, seed=seed, graph_layout=layout)
    assert dataset_fingerprint(dataset) == FINGERPRINTS[
        (kind, num_users, seed, layout)
    ]


@pytest.mark.parametrize("kind", sorted(SHARD_DIGESTS))
def test_shard_view_content_pinned(kind):
    shard = ShardedDataset(SyntheticSpec(kind, 2000, 42), 4).shard(1)
    assert content_digest(shard) == SHARD_DIGESTS[kind]


@pytest.mark.parametrize("kind,model", sorted(SCHEDULE_DIGESTS))
def test_schedules_pinned(small_datasets, kind, model):
    schedules = compute_schedules(small_datasets[kind], _MODELS[model], seed=3)
    assert schedule_digest(schedules) == SCHEDULE_DIGESTS[(kind, model)]
