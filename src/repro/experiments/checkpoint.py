"""Shard-granular sweep checkpoints for mid-sweep batch resume.

The batch journal resumes at *experiment* granularity: a batch killed
three shards into an eight-shard sweep re-runs the whole sweep.  At the
scales this repo targets one sweep is hours of work, so the journal
grows a finer ledger: :class:`SweepCheckpoint` persists each completed
``(sweep, repeat, shard)`` slice — the per-user metric cells exactly as
the executor returned them — and the sweep skips straight past the
shards already on disk when it runs again.

Checkpoints compose with (not replace) the content-addressed
:class:`~repro.cache.SweepCache`: the cache stores *finished* series,
the checkpoint stores *partial* progress.  Both are keyed by content —
:meth:`SweepCheckpoint.key_for` hashes everything that determines the
shard's floats (dataset fingerprint, model, the full policy set, mode,
degrees, cohort, seed protocol) and the execution knobs are excluded,
so a checkpoint written by any jobs/shards combination serves
every other one.

Bit-identity: cells round-trip through the same JSON-exact payload
encoding as the point-query store
(:func:`repro.query.plane.metrics_to_payload` — ints stay ints, floats
render by shortest round-trip repr, ``inf`` survives), so a sweep
resumed from checkpoints aggregates the *identical* floats an
uninterrupted run would.  A shard containing quarantined users is never
checkpointed — quarantine decisions belong to the run that made them.

Durability mirrors the journal: atomic writes, corruption-tolerant
loads (a torn checkpoint reads as "not done" and the shard recomputes),
and an optional journal hookup that records completed shard ids in
``journal.json`` so the resume surface is inspectable in one place.
Like the cache's disk layer, checkpoint writes are best-effort: an
``OSError`` degrades to not-checkpointing instead of failing the sweep.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.cache.keys import CACHE_FORMAT_VERSION, dataset_fingerprint
from repro.core.metrics import UserMetrics
from repro.query.plane import metrics_from_payload, metrics_to_payload
from repro.seeding import canonical_key_bytes

__all__ = ["SweepCheckpoint", "CHECKPOINT_FORMAT_VERSION"]

#: Bumped on incompatible checkpoint layout changes; mismatches load as
#: "not done" and the shard recomputes.
CHECKPOINT_FORMAT_VERSION = 1

#: One shard's result: per user, a ``{policy_name: [UserMetrics, ...]}``
#: cell with one metrics object per swept degree.
Cell = Dict[str, List[UserMetrics]]


class SweepCheckpoint:
    """A directory of per-(sweep, repeat, shard) result slices."""

    def __init__(
        self,
        directory: Union[str, os.PathLike],
        *,
        journal=None,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: Optional :class:`~repro.experiments.runner.BatchJournal`;
        #: completed shard ids are recorded there too, making the
        #: journal the single resume ledger.
        self.journal = journal
        self.loads = 0
        self.stores = 0
        self.stale = 0
        self._disabled = False

    # -- keys ---------------------------------------------------------------

    def key_for(
        self,
        dataset,
        model,
        policies: Sequence,
        *,
        mode: str,
        degrees: Sequence[int],
        users: Sequence[int],
        seed: int,
        repeats: int,
    ) -> str:
        """The content address of one sweep's checkpoint family.

        Unlike the cache's per-policy series keys, one checkpoint
        covers the whole *policy set* being computed together — the
        shard cells interleave every policy's metrics — so the key
        hashes the ordered tuple of policy cache keys.
        """
        parts = (
            "sweep-checkpoint",
            CACHE_FORMAT_VERSION,
            CHECKPOINT_FORMAT_VERSION,
            dataset_fingerprint(dataset),
            tuple(model.cache_key()),
            tuple(tuple(p.cache_key()) for p in policies),
            mode,
            int(seed),
            int(repeats),
            tuple(int(d) for d in degrees),
            tuple(users),
        )
        return hashlib.sha256(canonical_key_bytes(*parts)).hexdigest()

    @staticmethod
    def shard_id(key: str, repeat: int, shard: int) -> str:
        return f"{key}.r{int(repeat)}.s{int(shard)}"

    def _path(self, key: str, repeat: int, shard: int) -> Path:
        return self.directory / (
            self.shard_id(key, repeat, shard) + ".shard.json"
        )

    # -- store/load ---------------------------------------------------------

    def store(
        self,
        key: str,
        repeat: int,
        shard: int,
        users: Sequence[int],
        cells: Sequence[Cell],
    ) -> None:
        """Persist one completed shard slice (atomic; best-effort)."""
        if self._disabled:
            return
        blob = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "key": key,
            "repeat": int(repeat),
            "shard": int(shard),
            "users": [int(u) for u in users],
            "cells": [
                {
                    name: [metrics_to_payload(m) for m in series]
                    for name, series in cell.items()
                }
                for cell in cells
            ],
        }
        path = self._path(key, repeat, shard)
        tmp = path.with_name(path.name + ".tmp")
        try:
            tmp.write_text(
                json.dumps(blob, sort_keys=True) + "\n", encoding="utf-8"
            )
            os.replace(tmp, path)
        except OSError:
            # A full or revoked disk must not fail the sweep; we simply
            # stop checkpointing (the journal keeps only real shards).
            self._disabled = True
            try:
                tmp.unlink()
            except OSError:
                pass
            return
        self.stores += 1
        if self.journal is not None:
            self.journal.mark_checkpoint(self.shard_id(key, repeat, shard))

    def load(
        self,
        key: str,
        repeat: int,
        shard: int,
        *,
        users: Sequence[int],
    ) -> Optional[List[Cell]]:
        """The stored cells for this shard, or ``None`` to recompute.

        Validates the format version, the key echo and the exact user
        slice; any torn, corrupt or mismatched file counts ``stale``
        and misses — resume must *never* trade correctness for speed.
        """
        path = self._path(key, repeat, shard)
        if not path.exists():
            return None
        try:
            blob = json.loads(path.read_text(encoding="utf-8"))
            if blob.get("format_version") != CHECKPOINT_FORMAT_VERSION:
                raise ValueError("incompatible checkpoint format")
            if blob.get("key") != key:
                raise ValueError("checkpoint key mismatch")
            if blob.get("users") != [int(u) for u in users]:
                raise ValueError("checkpoint cohort mismatch")
            # Tuples, matching evaluate_users_chunk's cell shape exactly.
            cells = [
                {
                    name: tuple(metrics_from_payload(p) for p in series)
                    for name, series in cell.items()
                }
                for cell in blob["cells"]
            ]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            del exc
            self.stale += 1
            return None
        if len(cells) != len(users):
            self.stale += 1
            return None
        self.loads += 1
        return cells

    def stats(self) -> Dict[str, int]:
        return {
            "loads": self.loads,
            "stores": self.stores,
            "stale": self.stale,
        }
