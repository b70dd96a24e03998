"""Content-addressed store for degree-sweep results.

:class:`SweepCache` is the batch compute plane's memory: one instance is
scoped to a batch (``run_batch`` / one CLI ``run`` invocation) and holds
every computed sweep series keyed by its content address
(:func:`repro.cache.keys.sweep_cache_key`).  The multi-figure batches of
the paper's evaluation are *views over shared computations* — fig3/5/6/7
replay the identical Facebook ConRep sweep and plot different metric
columns, fig10/11 likewise for Twitter — so with the cache threaded
through, each shared sweep runs exactly once per batch and the sibling
figures slice their columns from the stored series.

Two layers:

* **in-memory** — a plain dict of key → tuple of
  :class:`~repro.core.evaluation.AggregateMetrics`; hits return the very
  objects the first computation produced, so identity is trivial;
* **on-disk** (optional, ``cache_dir``) — per entry a ``<key>.json``
  metadata stamp (format version, field names, row count) plus a
  ``<key>.npy`` float64 matrix of the metric fields.  ``float64``
  round-trips every finite value, ``inf`` and ``nan`` bit-exactly, so a
  reloaded series is field-for-field identical to the stored one.
  Writes are atomic (temp file + ``os.replace``, array before stamp) and
  loads are corruption-tolerant: any unreadable, truncated,
  wrong-version or wrong-shape entry counts as ``stale`` and misses —
  the sweep recomputes and overwrites it.

Counters (:class:`CacheStats`) track hits / misses / stale loads /
stores; the experiment runner surfaces per-experiment deltas in every
report and the batch rollup aggregates them into ``batch_summary.json``.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import time
import warnings
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.evaluation import AggregateMetrics
from repro.core.placement.base import PlacementPolicy
from repro.cache.keys import CACHE_FORMAT_VERSION, sweep_cache_key
from repro.datasets.schema import Dataset
from repro.graph.social_graph import UserId
from repro.onlinetime.base import OnlineTimeModel
from repro.parallel.faults import ENOSPC, SLOW_IO, TORN_WRITE, FaultInjector

#: Metric fields in serialisation order (the dataclass field order).
_FIELDS: Tuple[str, ...] = tuple(
    f.name for f in dataclasses.fields(AggregateMetrics)
)

#: Fields stored as float64 but reconstructed as Python ints.
_INT_FIELDS = frozenset(
    f.name
    for f in dataclasses.fields(AggregateMetrics)
    if f.type in ("int", int)
)

#: One policy's sweep series: one aggregate per swept degree.
Series = Tuple[AggregateMetrics, ...]


@dataclasses.dataclass
class CacheStats:
    """Monotonic hit/miss/stale/store counters of one cache instance."""

    hits: int = 0
    misses: int = 0
    stale: int = 0
    stores: int = 0
    #: Hits served by reading the on-disk layer (subset of ``hits``).
    disk_hits: int = 0
    #: Disk writes that failed (``OSError``/``ENOSPC``/``PermissionError``);
    #: the first failure degrades the cache to memory-only writes.
    disk_errors: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)

    def snapshot(self) -> Tuple[int, ...]:
        """An opaque marker for :meth:`since`."""
        return dataclasses.astuple(self)

    def since(self, snapshot: Tuple[int, ...]) -> Dict[str, int]:
        """Counter deltas accumulated after ``snapshot`` was taken."""
        return {
            f.name: value - before
            for f, value, before in zip(
                dataclasses.fields(self),
                dataclasses.astuple(self),
                snapshot,
            )
        }


def _series_to_matrix(series: Sequence[AggregateMetrics]) -> np.ndarray:
    """The series as a (degrees x fields) float64 matrix.

    Every field of :class:`AggregateMetrics` is an int or a float; the
    ints are cohort-sized (far below 2**53), so float64 carries each
    value exactly and the round trip is bit-identical.
    """
    return np.array(
        [
            [float(getattr(agg, name)) for name in _FIELDS]
            for agg in series
        ],
        dtype=np.float64,
    ).reshape(len(series), len(_FIELDS))


def _matrix_to_series(matrix: np.ndarray) -> Series:
    return tuple(
        AggregateMetrics(
            **{
                name: int(value) if name in _INT_FIELDS else float(value)
                for name, value in zip(_FIELDS, row)
            }
        )
        for row in matrix
    )


def _atomic_write_bytes(path: Path, blob: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(blob)
    os.replace(tmp, path)


class SweepCache:
    """Batch-scoped content-addressed cache of sweep series.

    ``cache_dir`` adds the persistent on-disk layer; without it the
    cache lives purely in memory for the duration of one batch.

    The disk layer is *best-effort*: a write that fails with ``OSError``
    (including ``ENOSPC``) or ``PermissionError`` degrades the cache to
    memory-only writes for the rest of its life — one warning, a
    ``disk_errors`` counter bump, and the sweep continues instead of
    crashing.  Reads keep working (existing entries stay servable).

    ``fault_injector`` threads the deterministic chaos plan through the
    disk layer: ``torn-write`` / ``enospc`` / ``slow-io`` rules fire on
    writes, exercising the degradation and the corruption-tolerant
    loads on purpose.
    """

    def __init__(
        self,
        cache_dir: Optional[Union[str, os.PathLike]] = None,
        *,
        fault_injector: Optional[FaultInjector] = None,
    ):
        self._memory: Dict[str, Series] = {}
        #: JSON-blob layer (DES replay outcomes and other non-series
        #: results), sharing the key space and the hit/miss counters.
        self._payloads: Dict[str, dict] = {}
        self.cache_dir: Optional[Path] = (
            Path(cache_dir) if cache_dir is not None else None
        )
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.stats = CacheStats()
        self.fault_injector = fault_injector
        #: Hung here by the batch runner: a
        #: :class:`~repro.experiments.checkpoint.SweepCheckpoint` the
        #: sweeps consult for per-view mid-sweep resume.  The
        #: cache is the batch's memory plane, already threaded through
        #: every sweep, so the checkpoint rides it rather than growing
        #: every experiment signature.
        self.checkpoint = None
        self._disk_disabled = False
        self._disk_attempts: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._memory)

    # -- raw key/value layer ------------------------------------------------

    def get_series(self, key: str) -> Optional[Series]:
        """The stored series for ``key``, or ``None`` (counted a miss)."""
        series = self._memory.get(key)
        if series is not None:
            self.stats.hits += 1
            return series
        series = self._load_disk(key)
        if series is not None:
            self._memory[key] = series
            self.stats.hits += 1
            self.stats.disk_hits += 1
            return series
        self.stats.misses += 1
        return None

    def put_series(self, key: str, series: Sequence[AggregateMetrics]) -> None:
        """Store a computed series in memory (and on disk when enabled)."""
        series = tuple(series)
        self._memory[key] = series
        self.stats.stores += 1
        if self._disk_writable():
            self._store_disk(key, series)

    # -- JSON-payload layer (DES replay outcomes) ---------------------------

    def get_payload(self, key: str) -> Optional[dict]:
        """The stored JSON payload for ``key``, or ``None`` (a miss)."""
        payload = self._payloads.get(key)
        if payload is not None:
            self.stats.hits += 1
            return payload
        payload = self._load_payload_disk(key)
        if payload is not None:
            self._payloads[key] = payload
            self.stats.hits += 1
            self.stats.disk_hits += 1
            return payload
        self.stats.misses += 1
        return None

    def put_payload(self, key: str, payload: dict) -> None:
        """Store a JSON-serialisable payload (exact under round trips:
        ints are ints, floats render by shortest round-trip repr)."""
        self._payloads[key] = payload
        self.stats.stores += 1
        if self._disk_writable():
            blob = {
                "format_version": CACHE_FORMAT_VERSION,
                "key": key,
                "payload": payload,
            }
            self._write_entry(
                key,
                [
                    (
                        self._payload_path(key),
                        (json.dumps(blob, sort_keys=True) + "\n").encode(
                            "utf-8"
                        ),
                    )
                ],
            )

    def _payload_path(self, key: str) -> Path:
        return self.cache_dir / f"{key}.payload.json"

    def _load_payload_disk(self, key: str) -> Optional[dict]:
        if self.cache_dir is None:
            return None
        path = self._payload_path(key)
        if not path.exists():
            return None
        try:
            blob = json.loads(path.read_text(encoding="utf-8"))
            if blob.get("format_version") != CACHE_FORMAT_VERSION:
                raise ValueError("incompatible cache entry format")
            payload = blob["payload"]
            if not isinstance(payload, dict):
                raise ValueError("malformed cache payload")
            return payload
        except (OSError, ValueError, KeyError, TypeError) as exc:
            # Torn, corrupted or out-of-date entries miss cleanly.
            del exc
            self.stats.stale += 1
            return None

    # -- sweep-level interface (used by sweep_replication_degree) -----------

    def sweep_key(
        self,
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
        return sweep_cache_key(
            dataset,
            model,
            policy,
            mode=mode,
            degrees=degrees,
            users=users,
            seed=seed,
            repeats=repeats,
        )

    def lookup(
        self,
        dataset: Dataset,
        model: OnlineTimeModel,
        policies: Sequence[PlacementPolicy],
        **key_kwargs,
    ) -> Tuple[Dict[str, List[AggregateMetrics]], List[PlacementPolicy]]:
        """Cached series per policy name, plus the policies still missing."""
        found: Dict[str, List[AggregateMetrics]] = {}
        missing: List[PlacementPolicy] = []
        for policy in policies:
            key = self.sweep_key(dataset, model, policy, **key_kwargs)
            series = self.get_series(key)
            if series is None:
                missing.append(policy)
            else:
                found[policy.name] = list(series)
        return found, missing

    def store(
        self,
        dataset: Dataset,
        model: OnlineTimeModel,
        policy: PlacementPolicy,
        series: Sequence[AggregateMetrics],
        **key_kwargs,
    ) -> None:
        key = self.sweep_key(dataset, model, policy, **key_kwargs)
        self.put_series(key, series)

    # -- on-disk layer ------------------------------------------------------

    def _paths(self, key: str) -> Tuple[Path, Path]:
        return (
            self.cache_dir / f"{key}.json",
            self.cache_dir / f"{key}.npy",
        )

    def _disk_writable(self) -> bool:
        return self.cache_dir is not None and not self._disk_disabled

    def _write_entry(
        self, key: str, blobs: Sequence[Tuple[Path, bytes]]
    ) -> None:
        """Write one entry's files, with fault injection and degradation.

        Any ``OSError`` (``ENOSPC``, ``PermissionError``, a vanished
        directory, ...) counts one ``disk_errors``, warns once, and
        flips the cache to memory-only writes — a sweep must survive a
        full or revoked disk, not crash on it.  An injected torn write
        lands the first file truncated at its *final* path and skips
        the rest, simulating a crash mid-write; loads treat the damage
        as a stale miss.
        """
        attempt = self._disk_attempts.get(key, 0)
        self._disk_attempts[key] = attempt + 1
        injected = (
            self.fault_injector.disk_fault(key, attempt)
            if self.fault_injector is not None
            else None
        )
        try:
            if injected == SLOW_IO:
                time.sleep(self.fault_injector.slow_io_seconds)
            for path, blob in blobs:
                if injected == TORN_WRITE:
                    path.write_bytes(blob[: max(1, len(blob) // 2)])
                    return
                if injected == ENOSPC:
                    self.fault_injector.raise_enospc(str(path))
                _atomic_write_bytes(path, blob)
        except OSError as exc:
            self.stats.disk_errors += 1
            if not self._disk_disabled:
                self._disk_disabled = True
                warnings.warn(
                    f"sweep cache disk layer disabled after write error "
                    f"({exc}); continuing memory-only",
                    RuntimeWarning,
                    stacklevel=3,
                )

    def _store_disk(self, key: str, series: Series) -> None:
        json_path, npy_path = self._paths(key)
        matrix = _series_to_matrix(series)
        buffer = io.BytesIO()
        np.save(buffer, matrix, allow_pickle=False)
        stamp = {
            "format_version": CACHE_FORMAT_VERSION,
            "key": key,
            "fields": list(_FIELDS),
            "rows": len(series),
        }
        # Array first, stamp second: a crash between the two leaves no
        # valid stamp, so the half-written entry reads as a clean miss.
        self._write_entry(
            key,
            [
                (npy_path, buffer.getvalue()),
                (
                    json_path,
                    (
                        json.dumps(stamp, indent=1, sort_keys=True) + "\n"
                    ).encode("utf-8"),
                ),
            ],
        )

    def _load_disk(self, key: str) -> Optional[Series]:
        if self.cache_dir is None:
            return None
        json_path, npy_path = self._paths(key)
        if not json_path.exists():
            return None
        try:
            stamp = json.loads(json_path.read_text(encoding="utf-8"))
            if (
                stamp.get("format_version") != CACHE_FORMAT_VERSION
                or stamp.get("fields") != list(_FIELDS)
            ):
                raise ValueError("incompatible cache entry format")
            matrix = np.load(npy_path, allow_pickle=False)
            if matrix.dtype != np.float64 or matrix.shape != (
                int(stamp["rows"]),
                len(_FIELDS),
            ):
                raise ValueError("cache entry shape mismatch")
            return _matrix_to_series(matrix)
        except (OSError, ValueError, KeyError, TypeError, EOFError) as exc:
            # Truncated, corrupted or out-of-date entries miss cleanly;
            # the recomputed series overwrites them.  EOFError is np.load
            # on a zero-length .npy — the torn-write worst case.
            del exc
            self.stats.stale += 1
            return None
