"""Span tracer for the end-to-end benchmark's traced passes.

The library is never edited: :func:`instrument` wraps public functions
and methods of ``repro`` at the attributes their callers look up (every
``repro.*`` module binding of a function, or the method on its class),
so each call into a layer opens a span.  A span records its name, start,
wall time, thread CPU time and the wall time of its child spans; a
layer's *self* time is its wall time minus its children's.

Layer totals (calls, wall, CPU, self, items) are kept per span name.  A
span nested inside another span of the same name adds only its self
time, so recursive or re-entrant layers are not counted twice.  Coarse
spans (``keep=True``) are also kept individually for the Chrome trace;
per-user spans (selection, evaluation, rollup) are only totalled.

Pool workers are forked from the traced process, so they inherit the
wrapped functions.  A worker starts from an empty tracer and, each time
its outermost span (one chunk) ends, appends that chunk's spans and
totals as one JSON line to ``worker-<pid>.jsonl`` in the pass's work
directory; :meth:`Tracer.merge_workers` folds those files into the
parent's totals.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

#: Per-name totals: [calls, wall_s, cpu_s, self_s, items].
CALLS, WALL, CPU, SELF, ITEMS = range(5)


class _Span:
    __slots__ = ("tracer", "name", "keep", "start", "cpu", "child", "items", "parent")

    def __init__(self, tracer: "Tracer", name: str, keep: bool):
        self.tracer = tracer
        self.name = name
        self.keep = keep
        self.items = 0

    def __enter__(self) -> "_Span":
        stack = self.tracer._stack()
        self.parent = stack[-1] if stack else None
        stack.append(self)
        self.child = 0.0
        self.cpu = time.thread_time()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        self.tracer._close(self, end - self.start, time.thread_time() - self.cpu)


class Tracer:
    """Collects spans for one benchmark pass (see the module docstring)."""

    enabled = True

    def __init__(self, work_dir: Path):
        self.work_dir = Path(work_dir)
        self.origin = time.perf_counter()
        self.root_pid = os.getpid()
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans: List[list] = []
        self.totals: Dict[str, list] = {}

    def _stack(self) -> List[_Span]:
        if os.getpid() != self.pid:
            # A forked pool worker: forget the parent's open spans and
            # totals, which belong to the parent's own report.
            self._reset()
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def span(self, name: str, keep: bool = True) -> _Span:
        return _Span(self, name, keep)

    def _close(self, span: _Span, wall: float, cpu: float) -> None:
        stack = self._stack()
        stack.pop()
        nested = False
        parent = span.parent
        if parent is not None:
            parent.child += wall
            while parent is not None and not nested:
                nested = parent.name == span.name
                parent = parent.parent
        with self._lock:
            total = self.totals.setdefault(span.name, [0, 0.0, 0.0, 0.0, 0])
            total[CALLS] += 1
            total[SELF] += wall - span.child
            if not nested:
                total[WALL] += wall
                total[CPU] += cpu
                total[ITEMS] += span.items
            if span.keep:
                self.spans.append(
                    [span.name, self.pid, threading.get_ident(),
                     span.start - self.origin, wall, cpu, span.child]
                )
        if not stack and self.pid != self.root_pid:
            self._flush_worker()

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` items to ``name`` without timing anything."""
        self._stack()
        with self._lock:
            total = self.totals.setdefault(name, [0, 0.0, 0.0, 0.0, 0])
            total[CALLS] += 1
            total[ITEMS] += n

    def _flush_worker(self) -> None:
        with self._lock:
            record = {"spans": self.spans, "totals": self.totals}
            self.spans, self.totals = [], {}
        path = self.work_dir / f"worker-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")

    def merge_workers(self) -> None:
        """Fold every worker's chunk records into this tracer."""
        for path in sorted(self.work_dir.glob("worker-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                self.spans.extend(record["spans"])
                for name, values in record["totals"].items():
                    total = self.totals.setdefault(name, [0, 0.0, 0.0, 0.0, 0])
                    for i, value in enumerate(values):
                        total[i] += value
            path.unlink()

    def total(self, name: str, field: int) -> float:
        return self.totals.get(name, [0, 0.0, 0.0, 0.0, 0])[field]

    def chrome_trace(self) -> dict:
        """The kept spans as Chrome trace-event JSON (opens in Perfetto)."""
        return {
            "displayTimeUnit": "ms",
            "traceEvents": [
                {
                    "name": name, "ph": "X", "pid": pid, "tid": tid,
                    "ts": round(start * 1e6, 3), "dur": round(wall * 1e6, 3),
                    "args": {"cpu_ms": round(cpu * 1e3, 3),
                             "self_ms": round((wall - child) * 1e3, 3)},
                }
                for name, pid, tid, start, wall, cpu, child in self.spans
            ],
        }

    def wrap(
        self,
        fn: Callable,
        name: str,
        *,
        keep: bool = False,
        items: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` inside a span; ``items(args, kwargs, result)`` counts work."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name, keep) as span:
                result = fn(*args, **kwargs)
                if items is not None:
                    span.items = items(args, kwargs, result)
                return result

        return wrapper


class _NullSpan:
    items = 0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


class NullTracer:
    """The tracer of untraced passes: spans cost one call and record nothing."""

    enabled = False
    _span = _NullSpan()

    def span(self, name: str, keep: bool = True) -> _NullSpan:
        return self._span


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every ``repro.*`` module attribute bound to ``original`` at
    ``replacement`` (callers look functions up in their own module)."""
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _patch_method(cls, attr: str, make: Callable[[Callable], Callable]) -> None:
    raw = cls.__dict__[attr]
    if isinstance(raw, (staticmethod, classmethod)):
        setattr(cls, attr, type(raw)(make(raw.__func__)))
    else:
        setattr(cls, attr, make(raw))


def instrument(tracer: Tracer) -> None:
    """Wrap the layer boundaries of ``repro`` (call before forking)."""
    import repro  # noqa: F401  (imports every layer that is rebound below)
    import repro.query.plane  # noqa: F401
    from repro.cache import SweepCache
    from repro.core import (
        AggregateMetrics,
        IncrementalGroupEvaluator,
        MaxAvPlacement,
        MostActivePlacement,
        PackedSchedules,
        RandomPlacement,
        evaluate_single,
        evaluate_user,
    )
    from repro.datasets import ShardedDataset, synthetic_facebook, synthetic_twitter
    from repro.onlinetime import compute_schedules, packed_schedules
    from repro.parallel import (
        ParallelExecutor,
        evaluate_users_chunk,
        select_sequences_chunk,
    )
    from repro.simulator import DecentralizedOSN, VectorizedReplay, replay_trace
    from repro.simulator.replay import replay_shards_chunk

    wrap = tracer.wrap

    def method(cls, attr, name, **kwargs):
        _patch_method(cls, attr, lambda fn: wrap(fn, name, **kwargs))

    def function(fn, name, **kwargs):
        _rebind(fn, wrap(fn, name, **kwargs))

    for fn in (synthetic_facebook, synthetic_twitter):
        function(fn, "datasets.synth", keep=True)
    method(ShardedDataset, "__init__", "datasets.sharded_init", keep=True)

    def shard_items(args, kwargs, dataset):
        tracer.count("datasets.shard_materialised", dataset.graph.num_users)
        shard = args[1] if len(args) > 1 else kwargs["shard"]
        return len(args[0].shard_users(shard))

    method(ShardedDataset, "shard", "datasets.shard_build", keep=True, items=shard_items)

    timed_schedules = wrap(compute_schedules, "onlinetime.schedules", keep=True)
    seen = set()

    @functools.wraps(compute_schedules)
    def schedules(dataset, model, *, seed=0):
        key = (id(dataset), model.cache_key(), seed)
        if key not in seen:
            seen.add(key)
            tracer.count("onlinetime.schedules_distinct")
        return timed_schedules(dataset, model, seed=seed)

    _rebind(compute_schedules, schedules)
    function(packed_schedules, "onlinetime.pack", keep=True)
    method(PackedSchedules, "from_schedules", "onlinetime.pack", keep=True)

    for cls in (MaxAvPlacement, MostActivePlacement, RandomPlacement):
        method(cls, "select", "placement.select")

    method(IncrementalGroupEvaluator, "__init__", "evaluation.evaluator_build")
    method(
        IncrementalGroupEvaluator, "evaluate_prefixes", "evaluation.kernel",
        items=lambda args, kwargs, result: len(result),
    )
    function(evaluate_user, "evaluation.kernel", items=lambda *_: 1)
    function(evaluate_single, "evaluation.single")
    for attr in ("from_users", "merge", "mean"):
        method(AggregateMetrics, attr, "evaluation.rollup")

    method(
        ParallelExecutor, "map_shared", "parallel.map", keep=True,
        items=lambda args, kwargs, result: len(result),
    )
    for fn in (evaluate_users_chunk, select_sequences_chunk, replay_shards_chunk):
        function(fn, "parallel.chunk", keep=True)

    method(SweepCache, "lookup", "cache.lookup")

    function(
        replay_trace, "simulator.replay", keep=True,
        items=lambda args, kwargs, outcome: outcome.events_replayed,
    )
    method(
        DecentralizedOSN, "run", "simulator.replay", keep=True,
        items=lambda args, kwargs, result: args[0].sim.events_executed,
    )
    method(
        VectorizedReplay, "run", "simulator.replay", keep=True,
        items=lambda args, kwargs, result: args[0].events_replayed,
    )
