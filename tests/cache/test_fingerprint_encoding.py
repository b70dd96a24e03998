"""The dataset fingerprint's fast byte stream equals the per-part one.

:func:`dataset_fingerprint` formats the edge and activity encodings of
``int`` ids directly (``b"e:%d:%d"``, the timestamp's double bits plus
``b"a:%d:%d"``) and sends any other id through
:func:`canonical_key_bytes`.  The reference below hashes every part with
its own :func:`canonical_key_bytes` call, as the cache format defines
it; the two digests must be equal, so no cache entry moves.
"""

import hashlib
import struct

import numpy as np
import pytest

from repro.cache.keys import dataset_fingerprint
from repro.datasets import synthetic_facebook, synthetic_twitter
from repro.datasets.schema import Activity, ActivityTrace, Dataset
from repro.graph.social_graph import FollowerGraph, SocialGraph
from repro.seeding import canonical_key_bytes


def _per_part_fingerprint(dataset: Dataset) -> str:
    h = hashlib.sha256()
    h.update(canonical_key_bytes("dataset", dataset.kind, dataset.graph.directed))
    for a, b in sorted(dataset.graph.edges()):
        h.update(canonical_key_bytes("e", a, b))
    for act in dataset.trace:
        h.update(struct.pack("<d", act.timestamp))
        h.update(canonical_key_bytes("a", act.creator, act.receiver))
    return h.hexdigest()


def _handmade(ids, kind="facebook") -> Dataset:
    """A small dataset over the given (possibly non-``int``) ids."""
    graph = SocialGraph() if kind == "facebook" else FollowerGraph()
    link = graph.add_edge if kind == "facebook" else graph.add_follow
    for u, v in zip(ids, ids[1:]):
        link(u, v)
    trace = ActivityTrace(
        Activity(1000.5 * i, ids[i % len(ids)], ids[(i + 1) % len(ids)])
        for i in range(3 * len(ids))
    )
    return Dataset(name="handmade", kind=kind, graph=graph, trace=trace)


@pytest.mark.parametrize("make", [synthetic_facebook, synthetic_twitter])
@pytest.mark.parametrize("seed", [3, 301])
def test_fast_digest_equals_per_part_encoding(make, seed):
    dataset = make(300, seed=seed)
    assert dataset_fingerprint(dataset) == _per_part_fingerprint(dataset)


@pytest.mark.parametrize(
    "ids",
    [
        ["a:b", "c\\d", "e", "f:"],  # separators the encoding escapes
        [np.int64(4), np.int64(9), np.int64(2)],  # int-like, not int
        [True, 5, 7, 2],  # bool renders as "True", not "1"
    ],
)
@pytest.mark.parametrize("kind", ["facebook", "twitter"])
def test_non_int_ids_keep_the_per_part_encoding(ids, kind):
    dataset = _handmade(ids, kind)
    assert dataset_fingerprint(dataset) == _per_part_fingerprint(dataset)


def test_rows_mixing_both_paths_hash_one_stream():
    # One bool among int ids: its rows take the per-part path, the rest
    # the formatted one, into the same hash.
    dataset = _handmade([3, 8, 5, 9, 4, 6, True, 11, 12, 13])
    assert dataset_fingerprint(dataset) == _per_part_fingerprint(dataset)
