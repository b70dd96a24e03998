"""Shared disjoint-partition utility.

Several layers split an ordered cohort into contiguous, disjoint,
jointly-covering chunks — the shard slices of
:class:`repro.datasets.ShardedDataset` (which the sharded sweeps stream)
and the replica-group cohorts of the DES replay
(:func:`repro.simulator.replay.shard_owners`).  They all use the same
formula so a "shard" means the same slice everywhere:

    ``lo_i = i * n // parts``  (chunk ``i`` covers ``items[lo_i:lo_{i+1}]``)

Properties (see ``tests/test_partition.py``):

* **contiguous** — every chunk is a slice of the input;
* **disjoint + covering** — concatenating the chunks in order gives the
  input back exactly;
* **order-stable** — input order is preserved within and across chunks;
* **near-equal** — chunk sizes differ by at most one;
* **never empty** when ``parts <= len(items)`` (callers that must not see
  empty chunks clamp ``parts`` with :func:`clamp_parts` first).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple, TypeVar

T = TypeVar("T")

__all__ = ["clamp_parts", "partition_bounds", "partition_slices"]


def clamp_parts(parts: int, num_items: int) -> int:
    """Clamp a requested chunk count into ``1 .. max(1, num_items)``.

    Guarantees no chunk of the clamped partition is empty (except in the
    degenerate ``num_items == 0`` case, which yields one empty chunk).
    """
    return max(1, min(int(parts), num_items or 1))


def partition_bounds(num_items: int, parts: int) -> List[Tuple[int, int]]:
    """The ``(lo, hi)`` index bounds of each chunk, in chunk order.

    Bounds are monotone (``lo_0 = 0``, ``hi_last = num_items``, and
    ``hi_i == lo_{i+1}``); a chunk with ``lo == hi`` is empty, which only
    happens when ``parts > num_items``.
    """
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    if num_items < 0:
        raise ValueError(f"num_items must be >= 0, got {num_items}")
    return [
        (i * num_items // parts, (i + 1) * num_items // parts)
        for i in range(parts)
    ]


def partition_slices(
    items: Sequence[T], parts: int
) -> Tuple[Tuple[T, ...], ...]:
    """Split ``items`` into ``parts`` contiguous chunks as tuples."""
    return tuple(
        tuple(items[lo:hi])
        for lo, hi in partition_bounds(len(items), parts)
    )
