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

Three kinds of entry share the key space, the directory and the
counters:

* **series** — one policy's finished sweep series.  In memory a tuple
  of :class:`~repro.core.evaluation.AggregateMetrics` (hits return the
  very objects the first computation produced); on disk a ``<key>.json``
  stamp plus a ``<key>.npy`` float64 matrix of the metric fields.
  ``float64`` round-trips every finite value, ``inf`` and ``nan``
  bit-exactly, so a reloaded series is field-for-field identical.
* **payloads** — JSON blobs (DES replay outcomes, point-query metrics)
  in memory and as ``<key>.payload.json``.
* **partial entries** — disk only: one repeat's per-user cells of one
  (view, sweep point), as ``<key>.cells.json`` under
  :func:`~repro.cache.keys.partial_cells_key`, so a sweep killed
  mid-way resumes from the views it finished.  Cells round-trip through
  :func:`~repro.core.metrics.metrics_to_payload`'s JSON-exact encoding,
  so a resumed sweep aggregates the identical floats.  The sweep deletes
  ("seals") a point's partial entries once all its series are on disk,
  so a finished sweep leaves none behind.

Every on-disk entry is stamped with ``CACHE_FORMAT_VERSION`` and echoes
its key.  Writes are atomic (temp file + ``os.replace``, a series' array
before its stamp) and loads are corruption-tolerant: any unreadable,
truncated, wrong-version, wrong-key or wrong-shape entry counts as
``stale`` and misses — the sweep recomputes and overwrites it.

Counters (:class:`CacheStats`) track hits / misses / stale loads /
stores and the partial entries loaded and stored; the experiment runner
surfaces per-experiment deltas in every report and the batch rollup
aggregates them into ``batch_summary.json``.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import time
import warnings
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.evaluation import AggregateMetrics
from repro.core.placement.base import PlacementPolicy
from repro.cache.keys import (
    CACHE_FORMAT_VERSION,
    partial_cells_key,
    sweep_cache_key,
)
from repro.core.metrics import (
    UserMetrics,
    metrics_from_payload,
    metrics_to_payload,
)
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

#: One user's cell of a partial entry: ``{policy_name: metrics}`` with
#: one metrics object per swept degree.
Cell = Dict[str, Tuple[UserMetrics, ...]]


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
    #: Partial sweep entries served from disk (mid-sweep resume).
    partial_loads: int = 0
    #: Partial sweep entries written whole to disk.
    partial_stores: int = 0

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


def _entry_bytes(key: str, **fields) -> bytes:
    """One on-disk JSON entry: ``fields`` stamped with the format version
    and the entry's own key."""
    blob = dict(fields, format_version=CACHE_FORMAT_VERSION, key=key)
    return (json.dumps(blob, sort_keys=True) + "\n").encode("utf-8")


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
        self._disk_disabled = False
        self._disk_attempts: Dict[str, int] = {}

    def __len__(self) -> int:
        """Entries held in memory: series plus payloads."""
        return len(self._memory) + len(self._payloads)

    # -- raw key/value layer ------------------------------------------------

    def get_series(self, key: str) -> Optional[Series]:
        """The stored series for ``key``, or ``None`` (counted a miss)."""
        return self._get(self._memory, key, ".json", self._decode_series)

    def put_series(self, key: str, series: Sequence[AggregateMetrics]) -> bool:
        """Store a computed series in memory (and on disk when enabled);
        whether it is now whole on disk."""
        series = tuple(series)
        self._memory[key] = series
        self.stats.stores += 1
        if not self._disk_writable():
            return False
        buffer = io.BytesIO()
        np.save(buffer, _series_to_matrix(series), allow_pickle=False)
        # Array first, stamp second: a crash between the two leaves no
        # valid stamp, so the half-written entry reads as a clean miss.
        return self._write_entry(
            key,
            [
                (self._path(key, ".npy"), buffer.getvalue()),
                (
                    self._path(key, ".json"),
                    _entry_bytes(key, fields=list(_FIELDS), rows=len(series)),
                ),
            ],
        )

    # -- JSON-payload layer (DES replay outcomes) ---------------------------

    def get_payload(self, key: str) -> Optional[dict]:
        """The stored JSON payload for ``key``, or ``None`` (a miss)."""
        return self._get(self._payloads, key, ".payload.json", _decode_payload)

    def put_payload(self, key: str, payload: dict) -> None:
        """Store a JSON-serialisable payload (exact under round trips:
        ints are ints, floats render by shortest round-trip repr)."""
        self._payloads[key] = payload
        self.stats.stores += 1
        if self._disk_writable():
            self._write_entry(
                key,
                [
                    (
                        self._path(key, ".payload.json"),
                        _entry_bytes(key, payload=payload),
                    )
                ],
            )

    # -- partial sweep entries (disk only: mid-sweep resume) ----------------

    def partial_key(
        self,
        dataset: Dataset,
        model: OnlineTimeModel,
        policies: Sequence[PlacementPolicy],
        **key_kwargs,
    ) -> str:
        """:func:`~repro.cache.keys.partial_cells_key`, reachable from the
        sweep driver, which cannot import this package."""
        return partial_cells_key(dataset, model, policies, **key_kwargs)

    def get_cells(
        self, key: str, users: Sequence[UserId]
    ) -> Optional[List[Cell]]:
        """The stored cells of the cohort slice ``users``, or ``None`` to
        recompute; a cohort mismatch reads as stale."""

        def decode(blob: dict) -> List[Cell]:
            if blob["users"] != [int(u) for u in users]:
                raise ValueError("partial entry cohort mismatch")
            # Tuples, matching evaluate_users_chunk's cell shape exactly.
            cells = [
                {
                    name: tuple(metrics_from_payload(p) for p in series)
                    for name, series in cell.items()
                }
                for cell in blob["cells"]
            ]
            if len(cells) != len(users):
                raise ValueError("partial entry size mismatch")
            return cells

        cells = self._read_entry(key, ".cells.json", decode)
        if cells is not None:
            self.stats.partial_loads += 1
        return cells

    def put_cells(
        self, key: str, users: Sequence[UserId], cells: Sequence[Cell]
    ) -> None:
        """Write one repeat's completed cells of one view (best-effort)."""
        if not self._disk_writable():
            return
        blob = _entry_bytes(
            key,
            users=[int(u) for u in users],
            cells=[
                {
                    name: [metrics_to_payload(m) for m in series]
                    for name, series in cell.items()
                }
                for cell in cells
            ],
        )
        if self._write_entry(key, [(self._path(key, ".cells.json"), blob)]):
            self.stats.partial_stores += 1

    def seal(self, keys: Iterable[str]) -> None:
        """Delete partial entries whose point's series are all on disk."""
        for key in keys:
            try:
                self._path(key, ".cells.json").unlink(missing_ok=True)
            except OSError:
                pass  # a leftover entry is only disk space

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
    ) -> bool:
        """Store one policy's series; whether it is now whole on disk."""
        key = self.sweep_key(dataset, model, policy, **key_kwargs)
        return self.put_series(key, series)

    # -- on-disk layer ------------------------------------------------------

    def _get(self, memory: dict, key: str, suffix: str, decode):
        """``memory[key]``, else the decoded disk entry (kept in memory);
        counted a hit or a miss."""
        value = memory.get(key)
        if value is None:
            value = self._read_entry(key, suffix, decode)
            if value is not None:
                memory[key] = value
                self.stats.disk_hits += 1
        if value is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return value

    def _path(self, key: str, suffix: str) -> Path:
        return self.cache_dir / f"{key}{suffix}"

    def _disk_writable(self) -> bool:
        return self.cache_dir is not None and not self._disk_disabled

    def _write_entry(
        self, key: str, blobs: Sequence[Tuple[Path, bytes]]
    ) -> bool:
        """Write one entry's files, with fault injection and degradation;
        whether every file landed whole.

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
                    return False
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
            return False
        return True

    def _read_entry(
        self, key: str, suffix: str, decode: Callable[[dict], object]
    ):
        """``decode`` of the JSON entry ``<key><suffix>``, or ``None``.

        The one reader of every on-disk entry: the blob must carry this
        build's format version and echo ``key``.  Torn, corrupt,
        out-of-date, foreign or undecodable entries count ``stale`` and
        miss cleanly; the recomputed result overwrites them.
        """
        if self.cache_dir is None:
            return None
        path = self._path(key, suffix)
        if not path.exists():
            return None
        try:
            blob = json.loads(path.read_text(encoding="utf-8"))
            if (
                blob.get("format_version") != CACHE_FORMAT_VERSION
                or blob.get("key") != key
            ):
                raise ValueError("incompatible cache entry")
            return decode(blob)
        except (
            OSError,
            ValueError,
            KeyError,
            TypeError,
            AttributeError,
            EOFError,  # np.load on a zero-length .npy: a torn write
        ):
            self.stats.stale += 1
            return None

    def _decode_series(self, stamp: dict) -> Series:
        if stamp["fields"] != list(_FIELDS):
            raise ValueError("incompatible cache entry fields")
        matrix = np.load(self._path(stamp["key"], ".npy"), allow_pickle=False)
        if matrix.dtype != np.float64 or matrix.shape != (
            int(stamp["rows"]),
            len(_FIELDS),
        ):
            raise ValueError("cache entry shape mismatch")
        return _matrix_to_series(matrix)


def _decode_payload(blob: dict) -> dict:
    payload = blob["payload"]
    if not isinstance(payload, dict):
        raise ValueError("malformed cache payload")
    return payload
