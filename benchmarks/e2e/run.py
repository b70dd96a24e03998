"""End-to-end benchmark of the reproduction: four workloads, one command.

Run from the repository root (needs only the standard library and numpy)::

    python3 benchmarks/e2e/run.py --workload figures --seed 42 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py --workload all --seed 7
    python3 benchmarks/e2e/run.py --workload sharded --trace 1 --trace-file t.json
    python3 benchmarks/e2e/run.py --workload all --runs 10 --out a.jsonl
    python3 benchmarks/e2e/run.py compare a.jsonl [b.jsonl] [--json summary.json]

Workloads, metrics, units, directions and bounds are read from
``BENCHMARK.json`` at the repository root.  A run measures for
``--seconds`` seconds in benchmark passes (at least ``MIN_PASSES``).  A
pass is a pair of fresh Python processes pinned to one CPU: the
*measured* side runs the program in ``src/``, the *control* side the
same workload on a frozen copy of the program (``control.zip``).  The
two set up at the same time, then run the workload's operation at the
same time, again and again until the pass's share of the run is over
(once each, for a workload whose operation cannot repeat in one
process).  A side that finishes a step first keeps the CPU busy until
the other finishes, so the two share the CPU evenly throughout.

Sharing one CPU a few milliseconds at a time, both sides are slowed
alike by whatever slows that CPU on a shared host, so each pass
reports the measured side's times as ratios to the control's: set-up
wall seconds, and wall and CPU seconds per operation.  End-to-end
metrics are the median ratio over the passes times the control's own
seconds (``control.json``); at the commit that froze the control they
read those seconds.  With ``--trace 1`` the control is the program
itself, untraced, the measured side is traced, the two run one after
the other, and the run reports the per-layer metrics;
``trace.overhead_share`` is the median wall ratio minus one.

Outputs are checked before anything is reported: every operation of a
side must produce bit-identical outputs, the measured side's must match
the control's (ints exactly, floats within ``workloads.REL_TOL``), its
first pass runs the workload's oracle, and for seeds with a committed
reference (``reference/``) its outputs must match it.  A failed check
exits non-zero and prints no result.  The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK_ROOT = HERE / ".work"
REFERENCE_DIR = HERE / "reference"
CONTROL_ZIP = HERE / "control.zip"
CONTROL_SECONDS = HERE / "control.json"

#: Passes per run at least, so that set-up time is a median too.
MIN_PASSES = 3
#: Wall-clock budget of one run of one workload, in seconds.
RUN_BUDGET_S = 170.0
#: Per-layer metrics measured by the query client, taken from the
#: untraced side of a traced run.
CLIENT_METRICS = ("query.qps", "query.p50_ms", "query.p99_ms")


class BenchmarkError(Exception):
    """A pass failed or an output check did not hold."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def quartiles(values: List[float]) -> List[float]:
    """First quartile, median and third quartile, as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def spread(values: List[float]) -> float:
    """The interquartile distance as a share of the median."""
    q1, mid, q3 = quartiles(values)
    return (q3 - q1) / mid


# -- one side of a pass (runs in its own process) --------------------------


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _trace_layers(tracer, workload, op_wall: float, root_child: float) -> dict:
    """Per-layer metrics of one traced pass, from the span totals."""
    from repro.experiments import experiment_ids
    from tracing import CALLS, ITEMS, WALL

    def total(name, field=WALL):
        return tracer.total(name, field)

    map_s = total("parallel.map")
    replay_s = total("simulator.replay")
    if workload.clients > 1:
        coverage = total("query.request") / (workload.clients * op_wall)
    else:
        coverage = root_child / op_wall
    layers = {
        "datasets.synth_s": total("datasets.synth"),
        "datasets.sharded_init_s": total("datasets.sharded_init"),
        "datasets.shard_builds": total("datasets.shard_build", CALLS),
        "datasets.shard_build_s": total("datasets.shard_build"),
        "datasets.shard_owned_ratio": _ratio(
            total("datasets.shard_build", ITEMS),
            total("datasets.shard_materialised", ITEMS),
        ),
        "onlinetime.schedules_calls": total("onlinetime.schedules", CALLS),
        "onlinetime.schedules_distinct": total("onlinetime.schedules_distinct", ITEMS),
        "onlinetime.schedules_s": total("onlinetime.schedules"),
        "onlinetime.pack_s": total("onlinetime.pack"),
        "placement.select_s": total("placement.select"),
        "placement.users": total("placement.select", CALLS),
        "evaluation.evaluator_build_s": total("evaluation.evaluator_build"),
        "evaluation.kernel_s": total("evaluation.kernel"),
        "evaluation.cells": total("evaluation.kernel", ITEMS),
        "evaluation.rollup_s": total("evaluation.rollup"),
        "parallel.map_calls": total("parallel.map", CALLS),
        "parallel.map_s": map_s,
        "parallel.items": total("parallel.map", ITEMS),
        "parallel.efficiency": _ratio(total("parallel.chunk"), map_s),
        "cache.lookup_s": total("cache.lookup"),
        "simulator.replay_s": replay_s,
        "simulator.events": total("simulator.replay", ITEMS),
        "simulator.events_per_s": _ratio(total("simulator.replay", ITEMS), replay_s),
        "query.miss_s": total("evaluation.single"),
        "trace.coverage": coverage,
    }
    for eid in experiment_ids():
        layers[f"experiments.{eid}_s"] = total(f"experiments.{eid}")
    return layers


def _reference_errors(workload, args) -> List[str]:
    import workloads

    if args.size != "full":
        return []
    view = json.loads(workloads.canonical(workload.reference_view()))
    path = REFERENCE_DIR / f"{args.workload}-{args.seed}.json"
    if args.record:
        blob = {"workload": args.workload, "seed": args.seed,
                "params": workload.params, "outputs": view}
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(blob, sort_keys=True) + "\n", encoding="utf-8")
        return []
    if not path.exists():
        return []
    reference = json.loads(path.read_text(encoding="utf-8"))["outputs"]
    return workloads.compare_tree(reference, view)


def _fill() -> None:
    """A few tens of microseconds of interpreter work."""
    total = 0
    for i in range(500):
        total += i * i % 7


def _next_request(fill: bool) -> str:
    """The parent's next request.  With ``fill``, keep the CPU busy until
    it comes, so that the other side of the pass never has the CPU to
    itself: the two always share it evenly."""
    while fill and not select.select([sys.stdin], [], [], 0)[0]:
        _fill()
    return sys.stdin.readline().strip()


def worker_main(argv: List[str]) -> int:
    """One side of a pass: answers ``setup``, ``ops UNTIL`` and ``end``,
    one JSON line each, after a first line once the program is loaded."""
    parser = argparse.ArgumentParser(prog="run.py _worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--program", choices=("src", "control"), required=True)
    parser.add_argument("--cpu", type=int)
    parser.add_argument("--fill", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--trace-file", type=Path)
    args = parser.parse_args(argv)

    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    # Replies go to the parent on the original standard output; whatever
    # the program prints goes to standard error.
    replies = os.fdopen(os.dup(1), "w", encoding="utf-8")
    os.dup2(2, 1)

    def reply(value) -> None:
        replies.write(json.dumps(value) + "\n")
        replies.flush()

    sys.path.insert(0, str(ROOT / "src" if args.program == "src" else CONTROL_ZIP))
    import tracing

    tracer = tracing.Tracer(args.work) if args.trace else tracing.NullTracer()
    if args.trace:
        tracing.instrument(tracer)  # before workloads binds repro's functions
    import workloads

    workload = workloads.make(args.workload, args.seed, args.size)
    digests = set()
    # One operation per traced pass, so the layer totals are per operation.
    reply({"repeatable": workload.repeatable and not args.trace})
    while True:
        request = _next_request(args.fill)
        if request == "setup":
            cpu, start = _cpu_seconds(), time.perf_counter()
            with tracer.span("workload.setup"):
                workload.setup()
            reply([time.perf_counter() - start, _cpu_seconds() - cpu])
        elif request.startswith("ops "):
            # Operations until the given time.monotonic(), at least one.
            until = float(request.split()[1])
            timed = []
            while not timed or time.monotonic() < until:
                # Every operation starts from the heap the first one had, so
                # garbage collection does not cost later operations more.
                workload.prepare()
                gc.collect()
                cpu, start = _cpu_seconds(), time.perf_counter()
                with tracer.span("workload.op") as root:
                    workload.run(tracer)
                op_s = [time.perf_counter() - start, _cpu_seconds() - cpu]
                timed.append(op_s)
                outputs = workloads.canonical(workload.outputs())
                digests.add(hashlib.sha256(outputs.encode()).hexdigest())
            reply(timed)
        elif request == "end":
            break
        else:
            return 1  # the parent has gone
    workload.close()
    peak_kb = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    result = {
        "peak_rss_mb": peak_kb / 1024,
        "attempted": workload.attempted(),
        "failed": workload.failed(),
        "digest": sorted(digests)[0],
        "outputs": outputs,
        "layers": {**dict.fromkeys(workloads.COUNTERS, 0), **workload.layer_metrics()},
        "errors": [] if len(digests) == 1 else ["outputs differ between operations of a side"],
    }
    if args.trace:
        tracer.merge_workers()
        result["layers"].update(_trace_layers(tracer, workload, op_s[0], root.child))
        result["table"] = sorted(
            ([name, *values] for name, values in tracer.totals.items()),
            key=lambda row: -row[2],
        )
        if args.trace_file is not None:
            args.trace_file.write_text(json.dumps(tracer.chrome_trace()), encoding="utf-8")
    if args.check:
        result["errors"] += workload.check() + _reference_errors(workload, args)
    reply(result)
    return 0


# -- one run (the parent: starts passes, checks, reports) ------------------


class Worker:
    """The parent's handle on one side of a pass: a process in its own
    process group, killed with the group when the pass ends or the run's
    budget does."""

    def __init__(self, argv: List[str], work: Path, deadline: float):
        work.mkdir()
        self.deadline = deadline
        self.log = open(work / "stderr.txt", "w+", encoding="utf-8")
        env = dict(
            os.environ,
            TMPDIR=str(work),
            REPRO_SEGMENT_REGISTRY_DIR=str(work.parent / "segments"),
        )
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "_worker", "--work", str(work), *argv],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.log,
            text=True, env=env, cwd=ROOT, start_new_session=True,
        )

    def receive(self):
        timeout = self.deadline - time.monotonic()
        if timeout <= 0 or not select.select([self.proc.stdout], [], [], timeout)[0]:
            raise BenchmarkError(f"a pass outlived the {RUN_BUDGET_S:.0f} s run budget")
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            self.log.seek(0)
            raise BenchmarkError(
                f"a pass process exited with code {self.proc.returncode}:\n"
                + self.log.read()[-3000:]
            )
        return json.loads(line)

    def send(self, request: str) -> None:
        try:
            self.proc.stdin.write(request + "\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass  # receive() reports how the process ended

    def ask(self, request: str):
        self.send(request)
        return self.receive()

    def stop(self) -> None:
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=min(10.0, max(0.1, self.deadline - time.monotonic())))
        except subprocess.TimeoutExpired:
            pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)  # and any worker it left behind
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def _ask_all(workers: Dict[str, Worker], request: str, together: bool) -> dict:
    """Every side's answer to ``request``: asked of both at once, or of
    one side after the other."""
    if not together:
        return {side: worker.ask(request) for side, worker in workers.items()}
    for worker in workers.values():
        worker.send(request)
    return {side: worker.receive() for side, worker in workers.items()}


def run_pass(index: int, sides: Dict[str, List[str]], work: Path, *,
             together: bool, until: float, deadline: float) -> dict:
    """One pass: start both sides (``control`` and ``measured``), let both
    load, set both up, run operations until ``until`` (once each if the
    measured side's workload cannot repeat), and end both.  With
    ``together`` both sides take each step at once on the shared CPU;
    otherwise one after the other, the control first in even passes."""
    if not together and index % 2:
        sides = dict(reversed(sides.items()))
    workers: Dict[str, Worker] = {}
    try:
        for side, argv in sides.items():
            workers[side] = Worker(argv, work / f"{side}-{index}", deadline)
        # Both have loaded before either is timed.
        repeat = {side: w.receive() for side, w in workers.items()}["measured"]["repeatable"]
        setup = _ask_all(workers, "setup", together)
        ops = _ask_all(workers, f"ops {until if repeat else 0.0!r}", together)
        ends = _ask_all(workers, "end", together)
    finally:
        for worker in workers.values():
            worker.stop()

    def per_op(side: str, field: int) -> float:
        return statistics.fmean(op[field] for op in ops[side])

    return {
        "repeat": repeat,
        "setup": setup,
        "ops": ops,
        # The measured side's seconds over the control's: set-up wall
        # seconds, then wall and CPU seconds per operation.
        "ratios": [
            setup["measured"][0] / setup["control"][0],
            per_op("measured", 0) / per_op("control", 0),
            per_op("measured", 1) / per_op("control", 1),
        ],
        "control": ends["control"],
        "measured": ends["measured"],
    }


def _control_seconds(size: str, workload: str) -> Dict[str, float]:
    return json.loads(CONTROL_SECONDS.read_text(encoding="utf-8"))["seconds"][size][workload]


def _e2e(passes: List[dict], control_s: Dict[str, float]) -> Dict[str, float]:
    """The end-to-end metrics of some passes: the median over the passes
    of each ratio to the control, in the control's seconds, and the
    measured side's median peak RSS."""
    def ratio(i: int) -> float:
        return statistics.median(p["ratios"][i] for p in passes)

    return {
        "setup_s": ratio(0) * control_s["setup_s"],
        "wall_s": ratio(1) * control_s["op_s"],
        "cpu_s": ratio(2) * control_s["op_s"],
        "peak_rss_mb": statistics.median(p["measured"]["peak_rss_mb"] for p in passes),
    }


def _control_cpu(passes: List[dict]) -> Dict[str, float]:
    """The control's own median CPU seconds in a run, for set-up and per
    operation: about its seconds alone on the CPU (``control.json``)."""
    return {
        "setup_s": statistics.median(p["setup"]["control"][1] for p in passes),
        "op_s": statistics.median(op[1] for p in passes for op in p["ops"]["control"]),
    }


def _output_errors(passes: List[dict]) -> List[str]:
    errors = [e for p in passes for side in ("control", "measured") for e in p[side]["errors"]]
    for side in ("control", "measured"):
        if len({p[side]["digest"] for p in passes}) > 1:
            errors.append(f"{side} outputs differ between passes of the same seed")
    first = passes[0]
    if first["control"]["digest"] != first["measured"]["digest"]:
        sys.path.insert(0, str(ROOT / "src"))
        import workloads

        errors += [
            f"against the control: {error}"
            for error in workloads.compare_tree(
                json.loads(first["control"]["outputs"]),
                json.loads(first["measured"]["outputs"]),
            )
        ]
    return errors


def run_workload(
    spec: dict,
    workload: str,
    seed: int,
    *,
    seconds: float,
    traced: bool,
    size: str,
    record: bool = False,
    trace_file: Optional[Path] = None,
) -> dict:
    """One run: passes for ``seconds`` (at least MIN_PASSES), checked and
    reduced to the run's metrics.  Pass ``i`` of a repeatable workload runs
    operations until ``(i + 1) / MIN_PASSES`` of the run has passed; a
    workload that runs once per process starts passes while the last one
    would still fit."""
    control_s = _control_seconds(size, workload)
    # A traced pass runs its sides one after the other, so that the query
    # client's latencies are those of a CPU of its own.
    together = not traced
    cpu = min(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    common = ["--workload", workload, "--seed", str(seed), "--size", size]
    if cpu is not None:
        common += ["--cpu", str(cpu)]
    if together:
        common.append("--fill")
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    passes = []
    last_s = 0.0
    try:
        while (
            len(passes) < MIN_PASSES
            or (not passes[-1]["repeat"] and time.monotonic() - start + last_s <= seconds)
        ):
            first = not passes
            measured = common + ["--program", "src"]
            if traced:
                measured.append("--trace")
            if first:
                measured.append("--check")
            if first and record:
                measured.append("--record")
            if first and traced and trace_file is not None:
                measured += ["--trace-file", str(trace_file)]
            sides = {
                "control": common + ["--program", "src" if traced else "control"],
                "measured": measured,
            }
            began = time.monotonic()
            until = start + seconds * (len(passes) + 1) / MIN_PASSES
            passes.append(run_pass(len(passes), sides, work, together=together,
                                   until=until, deadline=deadline))
            last_s = time.monotonic() - began
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    errors = _output_errors(passes)
    if errors:
        raise BenchmarkError(
            f"{workload} seed {seed}: outputs are wrong:\n  " + "\n  ".join(errors[:20])
        )

    if traced:
        metrics = {
            name: statistics.median([p["measured"]["layers"][name] for p in passes])
            for name in passes[0]["measured"]["layers"]
        }
        for name in CLIENT_METRICS:
            metrics[name] = statistics.median([p["control"]["layers"][name] for p in passes])
        metrics["trace.overhead_share"] = statistics.median(p["ratios"][1] for p in passes) - 1.0
        wanted = spec["per_layer"]
    else:
        metrics = _e2e(passes, control_s)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise BenchmarkError(f"{workload}: no value for {', '.join(missing)}")
    return {
        "correct": True,
        "attempted": sum(p["measured"]["attempted"] for p in passes),
        "failed": sum(p["measured"]["failed"] for p in passes),
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
        },
        "control_cpu_s": _control_cpu(passes),
        "passes": passes,
    }


def _print_run(workload: str, seed: int, result: dict) -> None:
    passes = result["passes"]
    print(f"[{workload}] seed={seed} passes={len(passes)} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for i, p in enumerate(passes):
        setup, ops, ratios = p["setup"], p["ops"], p["ratios"]
        print(f"  pass {i}: ratios setup {ratios[0]:.4f} wall {ratios[1]:.4f} "
              f"cpu {ratios[2]:.4f}; set-up wall s {setup['measured'][0]:.3f} "
              f"(control {setup['control'][0]:.3f}); operation wall s "
              + " ".join(f"{op[0]:.3f}" for op in ops["measured"])
              + " (control " + " ".join(f"{op[0]:.3f}" for op in ops["control"]) + ")")
    table = passes[0]["measured"].get("table")
    if table:
        print(f"  {'span':32} {'calls':>8} {'wall_s':>9} {'self_s':>9} {'cpu_s':>9} {'items':>9}")
        for name, calls, wall, cpu, self_s, items in table:
            print(f"  {name:32} {calls:8d} {wall:9.3f} {self_s:9.3f} {cpu:9.3f} {items:9d}")
    for name, metric in result["metrics"].items():
        print(f"  {name:32} {metric['value']:14.6g} {metric['unit']}")


def bench_main(argv: List[str]) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        prog="run.py", description="End-to-end benchmark (see README.md)."
    )
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy inputs are for the harness tests")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, with seeds seed, seed+1, ...")
    parser.add_argument("--out", type=Path, help="append one JSON line per run")
    parser.add_argument("--trace-file", type=Path,
                        help="write the first traced pass as Chrome trace JSON "
                        "(with --workload all, one file per workload: NAME-WORKLOAD.json)")
    parser.add_argument("--record", action="store_true",
                        help="write the reference outputs instead of checking them")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.runs < 1:
        parser.error("--seconds and --runs must be positive")
    if args.record and args.size != "full":
        parser.error("references are recorded at --size full only")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    trace_file = args.trace_file.resolve() if args.trace_file else None

    workloads = names if args.workload == "all" else [args.workload]
    results = []
    for run in range(args.runs):
        seed = args.seed + run
        for workload in workloads:
            trace_path = trace_file
            if trace_file is not None and len(workloads) > 1:
                trace_path = trace_file.with_name(
                    f"{trace_file.stem}-{workload}{trace_file.suffix}"
                )
            try:
                result = run_workload(
                    spec, workload, seed, seconds=args.seconds,
                    traced=bool(args.trace), size=args.size,
                    record=args.record, trace_file=trace_path,
                )
            except BenchmarkError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            _print_run(workload, seed, result)
            del result["passes"]
            control_cpu_s = result.pop("control_cpu_s")
            results.append((workload, result))
            if args.out is not None:
                record = {"workload": workload, "seed": seed, "size": args.size,
                          "trace": args.trace, **result, "control_cpu_s": control_cpu_s}
                with open(args.out, "a", encoding="utf-8") as fh:
                    fh.write(json.dumps(record) + "\n")

    if len(results) == 1:
        final = results[0][1]
    else:
        values: Dict[str, List[float]] = {}
        units = {}
        for workload, result in results:
            for name, metric in result["metrics"].items():
                values.setdefault(f"{workload}.{name}", []).append(metric["value"])
                units[f"{workload}.{name}"] = metric["unit"]
        final = {
            "correct": True,
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {
                name: {"value": statistics.median(v), "unit": units[name]}
                for name, v in values.items()
            },
        }
    print(json.dumps(final))
    return 0


# -- comparing sets of runs ------------------------------------------------


def _load_runs(path: Path) -> Dict[str, Dict[int, dict]]:
    """Untraced run records by workload, then seed."""
    runs: Dict[str, Dict[int, dict]] = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        record = json.loads(line) if line.strip() else {"trace": None}
        if record["trace"] == 0:
            runs.setdefault(record["workload"], {})[record["seed"]] = record
    return runs


def verdict(a: List[float], b: List[float], pairs, better: str, bound: float) -> str:
    """The choosing-metrics rule for parent runs ``a`` and change runs ``b``.

    ``improved``: the change wins at least nine tenths of the ``pairs``
    (ties count for neither) and the medians differ by more than the
    parent's interquartile distance.  ``unresolved``: a side's spread is
    wider than the bound and not every change run beats every parent
    run.  ``regressed``: the change's median is worse by more than the
    bound.  Otherwise ``within bound``.
    """
    sign = 1.0 if better == "lower" else -1.0
    ma, mb = statistics.median(a), statistics.median(b)
    qa1, _, qa3 = quartiles(a)
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if (
        pairs
        and wins >= 0.9 * len(pairs)
        and sign * (mb - ma) < 0
        and abs(mb - ma) > qa3 - qa1
    ):
        return "improved"
    all_better = max(sign * y for y in b) < min(sign * x for x in a)
    if max(spread(a), spread(b)) > bound and not all_better:
        return "unresolved"
    if sign * (mb - ma) / ma > bound:
        return "regressed"
    return "within bound"


def machine_info() -> dict:
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "platform": platform.platform(),
    }


def compare_main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py compare",
        description="Summarise one set of runs, or compare a parent set A "
        "with a change set B (files written by --out).",
    )
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path, nargs="?")
    parser.add_argument("--json", type=Path, help="write the summary of A as JSON")
    args = parser.parse_args(argv)
    spec = load_spec()
    runs_a = _load_runs(args.a)
    runs_b = _load_runs(args.b) if args.b else {}
    regressed = False
    summary = {}
    header = f"{'workload':9} {'metric':12} {'n':>3} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}"
    print(header + ("  B median   change  verdict" if args.b else "  spread/bound"))
    for workload in sorted(runs_a):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for _, r in sorted(runs_a[workload].items())]
            q1, mid, q3 = quartiles(a)
            summary.setdefault(workload, {})[name] = {
                "n": len(a), "median": mid, "q1": q1, "q3": q3,
                "spread": spread(a), "unit": metric["unit"],
            }
            line = (f"{workload:9} {name:12} {len(a):3d} {mid:11.5g} {q1:11.5g} "
                    f"{q3:11.5g} {spread(a):7.3f} {bound:6.2f}")
            if not args.b:
                print(f"{line}  {spread(a) / bound:12.2f}")
                continue
            side_b = runs_b.get(workload, {})
            b = [r["metrics"][name]["value"] for _, r in sorted(side_b.items())]
            if not b:
                print(f"{line}  (no runs in B)")
                continue
            pairs = [
                (runs_a[workload][s]["metrics"][name]["value"],
                 side_b[s]["metrics"][name]["value"])
                for s in sorted(set(runs_a[workload]) & set(side_b))
            ]
            result = verdict(a, b, pairs, metric["better"], bound)
            regressed |= result == "regressed"
            print(f"{line}  {statistics.median(b):9.5g} {statistics.median(b) / mid - 1:+8.3f}  {result}")
    if args.json:
        blob = {"machine": machine_info(), "command": spec["command"],
                "run_seconds": spec["run_seconds"], "workloads": summary}
        args.json.write_text(json.dumps(blob, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 1 if regressed else 0


def main(argv: List[str]) -> int:
    if argv[:1] == ["_worker"]:
        return worker_main(argv[1:])
    if argv[:1] == ["compare"]:
        return compare_main(argv[1:])
    return bench_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
