"""Batch experiment running and result serialisation.

`run_batch` executes a list of experiments at one scale and writes, per
experiment, both the human-readable report (``<id>.txt``) and a
JSON-serialised result (``<id>.json``) whose ``data`` section carries the
raw series — the machine-readable counterpart the EXPERIMENTS.md numbers
were taken from.

The batch is one *compute plane*: a single content-addressed
:class:`~repro.cache.SweepCache` and a single
:class:`~repro.parallel.ParallelExecutor` are threaded through every
experiment, so figures that are views over the same degree sweep
(fig3/5/6/7 on Facebook, fig10/11 on Twitter) compute it once, and the
executor's counters span the batch.  Each parallel phase forks its own
worker pool and tears it down before it returns.  All output files are
written atomically (temp file + ``os.replace``), and a
``batch_summary.json`` rollup of per-experiment phase timings plus cache
and pool counters is written alongside.

Batches are *resumable*: a format-versioned ``journal.json`` in the
output directory records each experiment's status
(pending/running/done/failed) and is rewritten atomically on every
transition.  A batch killed mid-run — Ctrl-C, OOM, a lost worker in
strict mode — leaves a valid journal behind; re-running with
``resume=True`` (CLI ``--resume``) skips the experiments already marked
done whose output files still exist and recomputes only the rest.
Within an experiment, a sweep resumes from the partial entries its
killed run left in the batch's disk-backed cache (``out/cache`` by
default).  Because every experiment derives its randomness from absolute
seeds, the resumed outputs are bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from repro.cache import SweepCache
from repro.parallel import ParallelExecutor
from repro.experiments.config import BENCH, ExperimentScale
from repro.experiments.execution import Execution
from repro.experiments.figures import execute, experiment_ids
from repro.experiments.report import ExperimentResult


def jsonify(value: Any) -> Any:
    """Convert experiment payloads (dataclasses, tuples, infinities) into
    JSON-encodable structures.  Non-finite floats become strings, so the
    output parses under strict JSON decoders too."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: jsonify(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)  # "inf" / "-inf" / "nan"
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


#: Inverse image of the non-finite-float encoding used by :func:`jsonify`.
_NON_FINITE = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}


def dejsonify(value: Any) -> Any:
    """Inverse of :func:`jsonify` for the float encoding: the strings
    ``"inf"``/``"-inf"``/``"nan"`` become the corresponding floats again,
    recursively through containers.  Other values pass through unchanged
    (dataclasses stay plain dictionaries)."""
    if isinstance(value, str):
        return _NON_FINITE.get(value, value)
    if isinstance(value, dict):
        return {k: dejsonify(v) for k, v in value.items()}
    if isinstance(value, list):
        return [dejsonify(v) for v in value]
    return value


def result_to_dict(result: ExperimentResult) -> Dict[str, Any]:
    """A JSON-safe dictionary view of an experiment result."""
    return {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "description": result.description,
        "paper_expectation": result.paper_expectation,
        "tables": [
            {
                "caption": t.caption,
                "headers": list(t.headers),
                "rows": jsonify(t.rows),
            }
            for t in result.tables
        ],
        "data": jsonify(result.data),
        "timings": jsonify(result.timings),
    }


def load_result(path: Union[str, os.PathLike]) -> Dict[str, Any]:
    """Parse a written ``<id>.json`` back, restoring non-finite floats.

    The counterpart of the ``run_batch`` JSON output: infinite delays
    serialised as ``"inf"`` come back as ``math.inf``, so loaded series
    compare directly against freshly computed ones.
    """
    blob = json.loads(Path(path).read_text(encoding="utf-8"))
    return dejsonify(blob)


def _atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` atomically: readers see the old file or the new one,
    never a partially written result."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


#: Version stamp of the journal schema; bumped on incompatible changes.
#: v3 dropped v2's ``checkpoints`` ledger: mid-sweep progress lives in
#: the batch's cache as partial entries.  v1 and v2 journals still
#: resume; a v2 ledger is ignored.
JOURNAL_FORMAT_VERSION = 3

#: Journal versions :meth:`BatchJournal.open` can resume from.
_READABLE_JOURNAL_VERSIONS = frozenset({1, 2, JOURNAL_FORMAT_VERSION})

#: Journal statuses an experiment moves through.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

_JOURNAL_STATUSES = frozenset({PENDING, RUNNING, DONE, FAILED})


@dataclasses.dataclass
class BatchJournal:
    """The per-batch ``journal.json``: experiment-id -> status.

    Every transition is persisted atomically (temp file + ``os.replace``)
    so a batch killed at any instant leaves either the previous journal
    or the new one on disk — never a torn file.  ``open`` validates the
    format version and (on resume) that the scale matches the interrupted
    run, since mixing scales would silently blend incompatible outputs.
    """

    path: Path
    scale: str
    statuses: Dict[str, str]

    @classmethod
    def open(
        cls,
        path: Union[str, os.PathLike],
        *,
        scale: str,
        ids: Iterable[str],
        resume: bool = False,
    ) -> "BatchJournal":
        """Create a fresh journal, or reload an existing one for resume.

        With ``resume=True`` an existing journal is merged: known ids
        keep their recorded status (``running`` is demoted to ``failed``
        — the previous run died inside it), new ids start ``pending``.
        A scale or format mismatch raises ``ValueError`` rather than
        resuming into inconsistent outputs.  Without ``resume``, any
        existing journal is overwritten with a fresh all-pending one.
        """
        path = Path(path)
        statuses = {eid: PENDING for eid in ids}
        if resume and path.exists():
            blob = json.loads(path.read_text(encoding="utf-8"))
            version = blob.get("format_version")
            if version not in _READABLE_JOURNAL_VERSIONS:
                raise ValueError(
                    f"journal {path} has format_version {version!r}; "
                    f"this build writes {JOURNAL_FORMAT_VERSION}"
                )
            if blob.get("scale") != scale:
                raise ValueError(
                    f"journal {path} records scale {blob.get('scale')!r} "
                    f"but this run uses {scale!r}; resume with the same "
                    f"scale or point at a fresh output directory"
                )
            for eid, status in blob.get("experiments", {}).items():
                if eid not in statuses:
                    continue  # id not requested this time
                if status not in _JOURNAL_STATUSES:
                    raise ValueError(
                        f"journal {path} has unknown status {status!r} "
                        f"for {eid!r}"
                    )
                # A 'running' entry means the previous run died mid-way
                # through this experiment; its outputs are suspect.
                statuses[eid] = FAILED if status == RUNNING else status
        journal = cls(path=path, scale=scale, statuses=statuses)
        journal.write()
        return journal

    def status(self, experiment_id: str) -> str:
        return self.statuses.get(experiment_id, PENDING)

    def mark(self, experiment_id: str, status: str) -> None:
        if status not in _JOURNAL_STATUSES:
            raise ValueError(f"unknown journal status {status!r}")
        self.statuses[experiment_id] = status
        self.write()

    def done_ids(self) -> List[str]:
        return [e for e, s in self.statuses.items() if s == DONE]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "format_version": JOURNAL_FORMAT_VERSION,
            "scale": self.scale,
            "experiments": dict(self.statuses),
        }

    def write(self) -> None:
        _atomic_write_text(
            self.path,
            json.dumps(self.as_dict(), indent=1, sort_keys=True) + "\n",
        )


def summarize_batch(
    results: List[ExperimentResult],
    *,
    scale: ExperimentScale,
    ex: Execution,
    skipped: Optional[List[str]] = None,
) -> Dict[str, Any]:
    """The batch observability rollup written to ``batch_summary.json``.

    The knobs of ``ex`` (``jobs`` is the worker count its executor ran
    with; 1 without one),
    per-experiment phase timings (each experiment's own deltas, as filled
    in by :func:`~repro.experiments.figures.execute`), phase totals
    aggregated across the batch, the batch-wide cache hit/miss and pool
    counters of ``ex.cache`` and ``ex.executor`` (including retries,
    rebuilds, timeouts, and quarantines from the supervised executor),
    the executor's structured failure report, and — on resume — the list
    of experiments skipped because the journal already marked them done.
    """
    phase_totals: Dict[str, Dict[str, float]] = {}
    for result in results:
        for name, t in result.timings.get("phases", {}).items():
            total = phase_totals.setdefault(
                name, {"seconds": 0.0, "items": 0, "calls": 0}
            )
            total["seconds"] += t["seconds"]
            total["items"] += t["items"]
            total["calls"] += t["calls"]
    for total in phase_totals.values():
        total["seconds"] = round(total["seconds"], 6)
        total["items_per_second"] = round(
            total["items"] / total["seconds"] if total["seconds"] > 0 else 0.0,
            3,
        )
    cache, executor = ex.cache, ex.executor
    summary: Dict[str, Any] = {
        "scale": scale.name,
        "jobs": executor.effective_jobs if executor is not None else 1,
        "shards": ex.shards,
        "num_experiments": len(results),
        "total_seconds": round(
            sum(r.timings.get("total_seconds", 0.0) for r in results), 6
        ),
        "experiments": {
            r.experiment_id: r.timings for r in results
        },
        "phase_totals": phase_totals,
        "cache": None,
        "pool": None,
        "failures": None,
        "skipped": sorted(skipped) if skipped else [],
    }
    if cache is not None:
        summary["cache"] = dict(
            cache.stats.as_dict(),
            entries=len(cache),
            cache_dir=str(cache.cache_dir) if cache.cache_dir else None,
        )
    if executor is not None:
        summary["pool"] = executor.pool_stats.as_dict()
        if executor.failures:
            summary["failures"] = executor.failures.as_dict()
    return summary


def render_batch_summary(summary: Dict[str, Any]) -> str:
    """The terminal foot-lines for a batch summary."""
    lines = [
        f"[batch] {summary['num_experiments']} experiments in "
        f"{summary['total_seconds']:.2f}s (jobs={summary['jobs']})"
    ]
    cache = summary.get("cache")
    if cache is not None:
        where = (
            f", disk at {cache['cache_dir']}" if cache.get("cache_dir") else ""
        )
        line = (
            f"[batch] cache: {cache['hits']} hits, {cache['misses']} misses, "
            f"{cache['stale']} stale, {cache['stores']} stores "
            f"({cache['entries']} entries{where})"
        )
        if cache.get("partial_loads") or cache.get("partial_stores"):
            line += (
                f"; partial entries: {cache['partial_loads']} loads, "
                f"{cache['partial_stores']} stores"
            )
        if cache.get("disk_errors"):
            line += (
                f"; {cache['disk_errors']} disk errors (degraded to "
                f"memory-only)"
            )
        lines.append(line)
    pool = summary.get("pool")
    if pool is not None and pool.get("starts"):
        line = f"[batch] pool: {pool['starts']} starts"
        for counter in ("retries", "rebuilds", "timeouts", "quarantined"):
            if pool.get(counter):
                line += f", {pool[counter]} {counter}"
        lines.append(line)
    failures = summary.get("failures")
    if failures:
        quarantined = failures.get("quarantined", [])
        lines.append(
            f"[batch] failures: "
            f"{len(failures.get('chunk_failures', []))} chunk failures, "
            f"{len(quarantined)} quarantined"
            + (
                " ("
                + ", ".join(str(q.get("item")) for q in quarantined[:5])
                + (", ..." if len(quarantined) > 5 else "")
                + ")"
                if quarantined
                else ""
            )
        )
    skipped = summary.get("skipped")
    if skipped:
        lines.append(
            f"[batch] resume: skipped {len(skipped)} already-done "
            f"experiment(s): {', '.join(skipped)}"
        )
    per_exp = ", ".join(
        f"{eid}: {t.get('total_seconds', 0.0):.2f}s"
        for eid, t in summary.get("experiments", {}).items()
    )
    if per_exp:
        lines.append(f"[batch] {per_exp}")
    return "\n".join(lines)


def run_batch(
    out_dir: Union[str, os.PathLike],
    *,
    scale: ExperimentScale = BENCH,
    ids: Optional[Iterable[str]] = None,
    shards: int = 1,
    cache: Optional[SweepCache] = None,
    cache_dir: Optional[Union[str, os.PathLike]] = None,
    use_cache: bool = True,
    executor: Optional[ParallelExecutor] = None,
    resume: bool = False,
) -> List[Path]:
    """Run experiments and write ``<id>.txt`` + ``<id>.json`` per entry.

    ``executor``, the cache and ``shards`` are the
    :class:`~repro.experiments.execution.Execution` knobs (see
    :func:`~repro.experiments.figures.run_experiment`): every combination
    writes identical results, and invalid values raise ``ValueError``
    before the batch starts.

    One :class:`~repro.cache.SweepCache` spans the whole batch, and the
    results are bit-identical however it is set up.  The cache
    ``run_batch`` builds persists under ``cache_dir`` (default
    ``out_dir/cache``): the finished series, plus the partial entries a
    killed batch's sweeps resume from.  A ``cache`` passed in is used as
    is, to share one across batches; without a directory, as with
    ``use_cache=False`` (no cache at all), a batch resumes per
    experiment only.  One
    :class:`~repro.parallel.ParallelExecutor` runs every experiment
    (serial by default; pass one with ``jobs`` and the supervision knobs
    to fan the per-user work out).  Each of its parallel phases forks a
    pool and tears it down before returning, so no worker process
    outlives a phase.

    Progress is journalled to ``journal.json`` after every experiment
    transition; ``resume=True`` reloads it and skips experiments already
    marked done whose ``<id>.txt``/``<id>.json`` are still on disk (the
    journal's scale must match, or ``ValueError`` is raised).  If an
    experiment raises — including ``KeyboardInterrupt`` and strict-mode
    worker loss — it is marked failed, the journal and a
    ``batch_summary.json`` covering the completed prefix are still
    written, and the exception propagates to the caller.  Each
    experiment's JSON carries its own phase/cache/pool/failure deltas,
    and the final ``batch_summary.json`` rollup includes the executor's
    quarantine report.  All writes are atomic.  Returns the paths
    written.  The directory is created if missing.
    """
    ex = Execution(executor or ParallelExecutor(), cache, shards)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if cache is None and use_cache:
        cache = SweepCache(out / "cache" if cache_dir is None else cache_dir)
        ex = dataclasses.replace(ex, cache=cache)
    all_ids = list(ids) if ids is not None else list(experiment_ids())
    journal = BatchJournal.open(
        out / "journal.json", scale=scale.name, ids=all_ids, resume=resume
    )
    skipped = [
        eid
        for eid in all_ids
        if resume
        and journal.status(eid) == DONE
        and (out / f"{eid}.txt").exists()
        and (out / f"{eid}.json").exists()
    ]
    written: List[Path] = []
    results: List[ExperimentResult] = []
    try:
        for eid in all_ids:
            if eid in skipped:
                continue
            journal.mark(eid, RUNNING)
            try:
                result = execute(eid, scale, ex)
            except BaseException:
                journal.mark(eid, FAILED)
                raise
            results.append(result)
            txt_path = out / f"{eid}.txt"
            _atomic_write_text(txt_path, result.render() + "\n")
            json_path = out / f"{eid}.json"
            _atomic_write_text(
                json_path,
                json.dumps(result_to_dict(result), indent=1, sort_keys=True),
            )
            written.extend([txt_path, json_path])
            journal.mark(eid, DONE)
    finally:
        summary = summarize_batch(results, scale=scale, ex=ex, skipped=skipped)
        summary_path = out / "batch_summary.json"
        _atomic_write_text(
            summary_path,
            json.dumps(jsonify(summary), indent=1, sort_keys=True) + "\n",
        )
        written.append(summary_path)
    return written
