"""Per-view sweep checkpoints for mid-sweep batch resume.

The batch journal resumes at *experiment* granularity: a batch killed
three views into an eight-shard sweep re-runs the whole sweep.  At the
scales this repo targets one sweep is hours of work, so the journal
grows a finer ledger: :class:`SweepCheckpoint` persists each completed
``(view, point, repeat)`` — the per-user metric cells of the view's
cohort slice exactly as the executor returned them — and the sweep skips
straight past the ones already on disk when it runs again.

Checkpoints compose with (not replace) the content-addressed
:class:`~repro.cache.SweepCache`: the cache stores *finished* series,
the checkpoint stores *partial* progress.  Both are keyed by content —
:meth:`SweepCheckpoint.key_for` hashes everything that determines the
cells' floats: the fingerprint of the dataset or shard view they were
computed over, the model, the full policy set, mode, degrees, the
cohort slice and the seed protocol.  ``jobs`` is never part of a key.
An eager sweep is one view, so its keys do not depend on ``shards``
either; a sharded sweep's views are keyed by their own content, so a
view's entries are found again by any run that builds the same view.
No combination of knobs therefore makes another's checkpoint stale: a
shard count whose views differ simply misses and computes.

Bit-identity: cells round-trip through the same JSON-exact payload
encoding as the point-query store
(:func:`repro.query.plane.metrics_to_payload` — ints stay ints, floats
render by shortest round-trip repr, ``inf`` survives), so a sweep
resumed from checkpoints aggregates the *identical* floats an
uninterrupted run would.  Cells containing quarantined users are never
checkpointed — quarantine decisions belong to the run that made them.

Durability mirrors the journal: atomic writes, corruption-tolerant
loads (a torn checkpoint reads as "not done" and the cells recompute),
and an optional journal hookup that records completed entry ids in
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
#: "not done" and the cells recompute.  v2: one entry per (view, point,
#: repeat), no cohort-slice index.
CHECKPOINT_FORMAT_VERSION = 2

#: One user's result: a ``{policy_name: [UserMetrics, ...]}`` cell with
#: one metrics object per swept degree.
Cell = Dict[str, List[UserMetrics]]


class SweepCheckpoint:
    """A directory of per-(view, point, repeat) cohort-slice cells."""

    def __init__(
        self,
        directory: Union[str, os.PathLike],
        *,
        journal=None,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: Optional :class:`~repro.experiments.runner.BatchJournal`;
        #: completed entry ids are recorded there too, making the
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
        """The content address of one (view, point)'s checkpoints.

        ``dataset`` is the view and ``users`` its cohort slice.  Unlike
        the cache's per-policy series keys, one checkpoint covers the
        whole *policy set* being computed together — each cell
        interleaves every policy's metrics — so the key hashes the
        ordered tuple of policy cache keys.
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
    def entry_id(key: str, repeat: int) -> str:
        return f"{key}.r{int(repeat)}"

    def _path(self, key: str, repeat: int) -> Path:
        return self.directory / (self.entry_id(key, repeat) + ".cells.json")

    # -- store/load ---------------------------------------------------------

    def store(
        self,
        key: str,
        repeat: int,
        users: Sequence[int],
        cells: Sequence[Cell],
    ) -> None:
        """Persist one repeat's completed cells (atomic; best-effort)."""
        if self._disabled:
            return
        blob = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "key": key,
            "repeat": int(repeat),
            "users": [int(u) for u in users],
            "cells": [
                {
                    name: [metrics_to_payload(m) for m in series]
                    for name, series in cell.items()
                }
                for cell in cells
            ],
        }
        path = self._path(key, repeat)
        tmp = path.with_name(path.name + ".tmp")
        try:
            tmp.write_text(
                json.dumps(blob, sort_keys=True) + "\n", encoding="utf-8"
            )
            os.replace(tmp, path)
        except OSError:
            # A full or revoked disk must not fail the sweep; we simply
            # stop checkpointing (the journal keeps only real entries).
            self._disabled = True
            try:
                tmp.unlink()
            except OSError:
                pass
            return
        self.stores += 1
        if self.journal is not None:
            self.journal.mark_checkpoint(self.entry_id(key, repeat))

    def load(
        self,
        key: str,
        repeat: int,
        *,
        users: Sequence[int],
    ) -> Optional[List[Cell]]:
        """The stored cells for this repeat, or ``None`` to recompute.

        Validates the format version, the key echo and the exact user
        slice; any torn, corrupt or mismatched file counts ``stale``
        and misses — resume must *never* trade correctness for speed.
        """
        path = self._path(key, repeat)
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
