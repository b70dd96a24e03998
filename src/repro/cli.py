"""Command-line interface.

Examples::

    repro-osn list
    repro-osn run fig3 --scale bench
    repro-osn run all --scale full --jobs 8 --output results.txt
    repro-osn batch out/ --scale bench --jobs 4
    repro-osn batch out/ --resume        # continue an interrupted batch
    repro-osn stats --dataset facebook --users 2000 --seed 7
    repro-osn generate --kind twitter --users 1000 --graph g.txt --trace t.txt
    repro-osn simulate --users 800 --degree 10 --k 3 --days 2
    repro-osn query --users 800 --policy maxav --k 3 --user 17 --user 42
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core import (
    CONREP,
    make_policy,
    placement_sequences,
    select_cohort,
)
from repro.datasets import (
    dataset_stats,
    synthetic_facebook,
    synthetic_twitter,
)
from repro.experiments import (
    Execution,
    execute,
    experiment_ids,
    format_table,
    get_scale,
    render_batch_summary,
    summarize_batch,
)
from repro.graph import write_graph
from repro.onlinetime import make_model, compute_schedules
from repro.simulator import ReplayConfig
from repro.simulator.replay import BACKENDS, PYTHON


def _build_dataset(kind: str, users: int, seed: int):
    if kind == "facebook":
        return synthetic_facebook(users, seed=seed)
    if kind == "twitter":
        return synthetic_twitter(users, seed=seed)
    raise ValueError(f"unknown dataset kind {kind!r}")


def _jobs_arg(value: str) -> int:
    jobs = int(value)
    if jobs < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 (0 = all CPUs), got {jobs}"
        )
    return jobs


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {parsed}")
    return parsed


def _positive_float(value: str) -> float:
    parsed = float(value)
    if parsed <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {parsed}")
    return parsed


def _probability(value: str) -> float:
    parsed = float(value)
    if not 0.0 <= parsed <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {parsed}")
    return parsed


def _executor_from_args(args: argparse.Namespace):
    """The executor of ``run`` and ``batch``: ``--jobs``, the supervision
    knobs, ``batch``'s ``--retry-attempts`` and the hidden soak-test
    ``--fault-*`` plan."""
    from repro.parallel import FaultInjector, ParallelExecutor, RetryPolicy

    injector = None
    if args.fault_crash or args.fault_hang or args.fault_error:
        injector = FaultInjector.random_faults(
            seed=args.fault_seed,
            crash=args.fault_crash,
            hang=args.fault_hang,
            error=args.fault_error,
            hang_seconds=args.fault_hang_seconds,
        )
    retry = RetryPolicy()
    attempts = getattr(args, "retry_attempts", None)  # a ``batch`` flag
    if attempts is not None:
        retry = RetryPolicy(max_attempts=attempts)
    return ParallelExecutor(
        jobs=args.jobs,
        chunk_timeout=args.chunk_timeout,
        strict=args.strict,
        retry=retry,
        fault_injector=injector,
    )


def _cmd_list(args: argparse.Namespace) -> int:
    print("Available experiments (paper artifact -> id):")
    for eid in experiment_ids():
        print(f"  {eid}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.cache import SweepCache

    scale = get_scale(args.scale)
    ids = experiment_ids() if args.experiment == "all" else [args.experiment]
    cache = None if args.no_cache else SweepCache(args.cache_dir)
    ex = Execution(_executor_from_args(args), cache, args.shards)
    out = open(args.output, "w") if args.output else sys.stdout
    results = []
    try:
        for eid in ids:
            result = execute(eid, scale, ex)
            results.append(result)
            print(result.render(), file=out)
            if args.plot:
                from repro.analysis import chart_from_table

                for table in result.tables:
                    try:
                        chart = chart_from_table(
                            table.headers, table.rows, title=table.caption
                        )
                    except (TypeError, ValueError):
                        continue  # non-numeric table (e.g. dataset names)
                    print(file=out)
                    print(chart, file=out)
            print(file=out)
        summary = summarize_batch(results, scale=scale, ex=ex)
        print(render_batch_summary(summary), file=out)
    finally:
        if args.output:
            out.close()
            print(f"wrote {args.output}")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    import json

    from repro.experiments import run_batch

    scale = get_scale(args.scale)
    executor = _executor_from_args(args)
    try:
        run_batch(
            args.out_dir,
            scale=scale,
            ids=args.ids or None,
            shards=args.shards,
            cache_dir=args.cache_dir,
            use_cache=not args.no_cache,
            executor=executor,
            resume=args.resume,
        )
    except KeyboardInterrupt:
        print(
            f"\ninterrupted; rerun with --resume to continue:\n"
            f"  repro-osn batch {args.out_dir} --scale {args.scale} --resume",
            file=sys.stderr,
        )
        return 130
    except Exception as exc:
        print(
            f"batch failed: {exc}\n"
            f"journal and partial summary are in {args.out_dir}; "
            f"rerun with --resume to retry the remaining experiments",
            file=sys.stderr,
        )
        return 1
    summary_path = f"{args.out_dir}/batch_summary.json"
    with open(summary_path, encoding="utf-8") as handle:
        summary = json.load(handle)
    print(render_batch_summary(summary))
    print(f"wrote {args.out_dir}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    dataset = _build_dataset(args.dataset, args.users, args.seed)
    stats = dataset_stats(dataset)
    rows = [stats.as_row()]
    print(
        format_table(
            (
                "name",
                "kind",
                "users",
                "edges",
                "avg degree",
                "activities",
                "acts/user",
                "span (days)",
            ),
            rows,
        )
    )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    dataset = _build_dataset(args.kind, args.users, args.seed)
    write_graph(dataset.graph, args.graph, header=dataset.notes)
    with open(args.trace, "w", encoding="utf-8") as handle:
        handle.write(f"# {dataset.name}: creator receiver timestamp\n")
        for act in dataset.trace:
            handle.write(f"{act.creator} {act.receiver} {act.timestamp:g}\n")
    print(
        f"wrote {dataset.graph.num_users} users to {args.graph} and "
        f"{len(dataset.trace)} activities to {args.trace}"
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from time import perf_counter

    from repro.cache import SweepCache, replay_cache_key
    from repro.onlinetime import packed_schedules
    from repro.parallel import ParallelExecutor
    from repro.simulator import replay_trace
    from repro.simulator.replay import NUMPY

    dataset = _build_dataset(args.dataset, args.users, args.seed)
    model = make_model(args.model)
    schedules = compute_schedules(dataset, model, seed=args.seed)
    users = select_cohort(dataset, args.degree, max_users=args.cohort)
    if not users:
        print(f"no users of degree {args.degree}; try --degree", file=sys.stderr)
        return 1
    sequences = placement_sequences(
        dataset,
        schedules,
        users,
        make_policy(args.policy),
        mode=CONREP,
        max_degree=args.k,
        seed=args.seed,
    )
    config = ReplayConfig(days=args.days)
    cache = cache_key = None
    if args.cache_dir:
        cache = SweepCache(cache_dir=args.cache_dir)
        cache_key = replay_cache_key(
            dataset,
            model,
            seed=args.seed,
            config=config,
            placements=sequences,
            tracked_profiles=users,
        )
    packed = (
        packed_schedules(dataset, model, seed=args.seed)
        if args.backend == NUMPY
        else None
    )
    start = perf_counter()
    outcome = replay_trace(
        dataset,
        schedules,
        sequences,
        config=config,
        tracked_profiles=users,
        backend=args.backend,
        shards=args.shards,
        executor=ParallelExecutor(jobs=args.jobs),
        packed=packed,
        cache=cache,
        cache_key=cache_key,
    )
    elapsed = perf_counter() - start
    stats = outcome.stats
    print(
        format_table(
            (
                "cohort users",
                "events",
                "write service",
                "read service",
                "mean delay (h)",
                "max delay (h)",
                "incomplete",
            ),
            [
                (
                    len(users),
                    outcome.events_replayed,
                    round(stats.write_service_rate(), 3),
                    round(stats.read_service_rate(), 3),
                    round(stats.mean_propagation_delay_hours, 2),
                    round(stats.max_propagation_delay_hours, 2),
                    stats.incomplete_updates,
                )
            ],
        )
    )
    rate = outcome.events_replayed / elapsed if elapsed > 0 else 0.0
    source = "cache" if outcome.cached else f"{outcome.shards} shard(s)"
    print(
        f"[replay] backend={outcome.backend} jobs={args.jobs} "
        f"via {source}: {outcome.events_replayed} events in "
        f"{elapsed:.2f}s ({rate:,.0f} events/s)"
    )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from time import perf_counter

    from repro.analysis import percentile
    from repro.cache import SweepCache
    from repro.query import QueryPlane
    from repro.resilience import Deadline, DegradationPolicy

    dataset = _build_dataset(args.dataset, args.users, args.seed)
    model = make_model(args.model)
    if args.user:
        cohort = args.user
    else:
        cohort = select_cohort(dataset, args.degree, max_users=args.cohort)
        if not cohort:
            print(
                f"no users of degree {args.degree}; try --degree",
                file=sys.stderr,
            )
            return 1
    policy = make_policy(args.policy)
    cache = SweepCache(cache_dir=args.cache_dir) if args.cache_dir else None
    plane = QueryPlane(
        dataset,
        model,
        mode=args.mode,
        seed=args.seed,
        cache=cache,
        degradation=DegradationPolicy(mode=args.degraded),
    )
    warm_start = perf_counter()
    plane.warm()
    warm_seconds = perf_counter() - warm_start

    def _deadline():
        if args.deadline_ms is None:
            return None
        return Deadline.after_ms(args.deadline_ms)

    rows = []
    latencies_ms: List[float] = []
    for user in cohort:
        start = perf_counter()
        outcome = plane.evaluate_resilient(
            user, policy, args.k, deadline=_deadline()
        )
        metrics = outcome.unwrap()
        latencies_ms.append((perf_counter() - start) * 1e3)
        rows.append(
            (
                user,
                " ".join(str(r) for r in metrics.replicas) or "-",
                round(metrics.availability, 4),
                round(metrics.aod_time, 4),
                round(metrics.aod_activity, 4),
                (
                    round(metrics.delay_hours_actual, 2)
                    if metrics.delay_hours_actual != float("inf")
                    else "inf"
                ),
                outcome.reason or "fresh",
            )
        )
    print(
        format_table(
            (
                "user",
                f"replicas (k={args.k})",
                "availability",
                "aod time",
                "aod activity",
                "delay (h)",
                "served",
            ),
            rows,
        )
    )
    # A second pass over the same queries measures the warm (cached) tier.
    warm_ms: List[float] = []
    for user in cohort:
        start = perf_counter()
        plane.evaluate_resilient(
            user, policy, args.k, deadline=_deadline()
        ).unwrap()
        warm_ms.append((perf_counter() - start) * 1e3)
    latencies_ms.sort()
    warm_ms.sort()
    stats = plane.stats()
    print(
        f"[query] {args.policy}/{args.mode}: "
        f"{len(cohort)} queries, warmup {warm_seconds:.2f}s; first-pass p50 "
        f"{percentile(latencies_ms, 50):.2f}ms p99 "
        f"{percentile(latencies_ms, 99):.2f}ms; repeat p50 "
        f"{percentile(warm_ms, 50):.3f}ms p99 "
        f"{percentile(warm_ms, 99):.3f}ms"
    )
    evaluators = stats["evaluators"]
    results = stats["results"]
    line = (
        f"[query] plane: {stats['queries']} queries, "
        f"{stats['result_hits']} result hits, "
        f"{stats['store_hits']} store hits; evaluators "
        f"{evaluators['entries']}, results "
        f"{results['entries']}/{results['max_entries']}"
    )
    for counter in ("stale_served", "fallback_served", "failed"):
        if stats.get(counter):
            line += f"; {stats[counter]} {counter.replace('_', ' ')}"
    print(line)
    return 0


def _add_supervision_args(parser: argparse.ArgumentParser) -> None:
    """Fault-tolerance knobs shared by ``run`` and ``batch``.

    The ``--fault-*`` flags are hidden: they inject deterministic worker
    crashes/hangs/errors for soak-testing the supervisor (CI uses them)
    and are not part of the user-facing surface.
    """
    parser.add_argument(
        "--chunk-timeout",
        type=_positive_float,
        default=None,
        metavar="SECONDS",
        help=(
            "deadline per work chunk; hung workers past it are killed, "
            "the pool is rebuilt, and the chunk retries (default: no "
            "deadline)"
        ),
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help=(
            "fail fast on the first worker failure instead of retrying "
            "and quarantining"
        ),
    )
    parser.add_argument(
        "--fault-crash", type=_probability, default=0.0, help=argparse.SUPPRESS
    )
    parser.add_argument(
        "--fault-hang", type=_probability, default=0.0, help=argparse.SUPPRESS
    )
    parser.add_argument(
        "--fault-error", type=_probability, default=0.0, help=argparse.SUPPRESS
    )
    parser.add_argument(
        "--fault-seed", type=int, default=0, help=argparse.SUPPRESS
    )
    parser.add_argument(
        "--fault-hang-seconds",
        type=_positive_float,
        default=60.0,
        help=argparse.SUPPRESS,
    )


def _add_execution_args(parser: argparse.ArgumentParser) -> None:
    """The scale and the :class:`~repro.experiments.Execution` knobs
    shared by ``run`` and ``batch``."""
    parser.add_argument("--scale", default="bench", choices=("bench", "full"))
    parser.add_argument(
        "--jobs",
        type=_jobs_arg,
        default=1,
        help=(
            "worker processes for the per-user sweep work "
            "(1 = serial, 0 = all CPUs; results are identical for any value)"
        ),
    )
    parser.add_argument(
        "--shards",
        type=_positive_int,
        default=1,
        help=(
            "process the data in this many pieces: above 1 the sweeps "
            "stream each dataset shard by shard, so only one shard "
            "view's graph/trace/schedules is in memory at a time "
            "(results are bit-identical for any value)"
        ),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-osn",
        description=(
            "Decentralized OSN replica-placement study "
            "(reproduction of Narendula et al., ICDCS 2012)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list available experiments")
    p_list.set_defaults(fn=_cmd_list)

    p_run = sub.add_parser("run", help="run an experiment (or 'all')")
    p_run.add_argument("experiment", help="experiment id or 'all'")
    _add_execution_args(p_run)
    p_run.add_argument(
        "--cache-dir",
        help=(
            "directory for the persistent sweep-result cache; entries are "
            "content-addressed, so reruns with identical inputs load "
            "bit-identical series instead of recomputing"
        ),
    )
    p_run.add_argument(
        "--no-cache",
        action="store_true",
        help=(
            "disable the in-memory sweep cache shared across the "
            "experiments of this run (results are identical either way)"
        ),
    )
    p_run.add_argument("--output", help="write the report to a file")
    p_run.add_argument(
        "--plot",
        action="store_true",
        help="also render each numeric table as an ASCII chart",
    )
    _add_supervision_args(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_batch = sub.add_parser(
        "batch",
        help="run experiments to an output directory (resumable)",
    )
    p_batch.add_argument(
        "out_dir",
        help=(
            "output directory: per-experiment <id>.txt/<id>.json, a "
            "journal.json progress record, and a batch_summary.json rollup"
        ),
    )
    p_batch.add_argument(
        "ids",
        nargs="*",
        help="experiment ids to run (default: all)",
    )
    _add_execution_args(p_batch)
    p_batch.add_argument(
        "--cache-dir",
        help=(
            "directory for the persistent sweep-result cache, which also "
            "holds the partial entries a killed sweep resumes from "
            "(default: OUT_DIR/cache)"
        ),
    )
    p_batch.add_argument(
        "--no-cache",
        action="store_true",
        help=(
            "disable the sweep cache (results are identical either way; "
            "--resume then restarts interrupted experiments from scratch)"
        ),
    )
    p_batch.add_argument(
        "--resume",
        action="store_true",
        help=(
            "continue an interrupted batch: skip experiments journal.json "
            "already marks done (outputs are bit-identical to an "
            "uninterrupted run)"
        ),
    )
    p_batch.add_argument(
        "--retry-attempts",
        type=_positive_int,
        default=None,
        metavar="N",
        help=(
            "attempts per work chunk before it is bisected and persistent "
            "failures are quarantined (default: 3)"
        ),
    )
    _add_supervision_args(p_batch)
    p_batch.set_defaults(fn=_cmd_batch)

    p_stats = sub.add_parser("stats", help="synthesise a dataset, print stats")
    p_stats.add_argument(
        "--dataset", default="facebook", choices=("facebook", "twitter")
    )
    p_stats.add_argument("--users", type=int, default=2000)
    p_stats.add_argument("--seed", type=int, default=0)
    p_stats.set_defaults(fn=_cmd_stats)

    p_gen = sub.add_parser("generate", help="write a synthetic dataset to disk")
    p_gen.add_argument(
        "--kind", default="facebook", choices=("facebook", "twitter")
    )
    p_gen.add_argument("--users", type=int, default=2000)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--graph", required=True, help="edge-list output path")
    p_gen.add_argument("--trace", required=True, help="trace output path")
    p_gen.set_defaults(fn=_cmd_generate)

    p_sim = sub.add_parser("simulate", help="run the discrete-event replay")
    p_sim.add_argument(
        "--dataset", default="facebook", choices=("facebook", "twitter")
    )
    p_sim.add_argument("--users", type=int, default=800)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--model", default="sporadic")
    p_sim.add_argument("--policy", default="maxav")
    p_sim.add_argument("--degree", type=int, default=10, help="cohort degree")
    p_sim.add_argument("--cohort", type=int, default=20, help="max cohort size")
    p_sim.add_argument("--k", type=int, default=3, help="replication degree")
    p_sim.add_argument("--days", type=int, default=2)
    p_sim.add_argument(
        "--jobs",
        type=_jobs_arg,
        default=1,
        help=(
            "worker processes replaying shards in parallel "
            "(1 = serial, 0 = all CPUs; results are identical for any "
            "value)"
        ),
    )
    p_sim.add_argument(
        "--shards",
        type=_positive_int,
        default=1,
        help=(
            "partition the tracked profiles into this many disjoint "
            "replica-group cohorts replayed independently and merged "
            "(results are bit-identical for any value)"
        ),
    )
    p_sim.add_argument(
        "--backend",
        default=PYTHON,
        choices=BACKENDS,
        help=(
            "replay engine: 'python' is the scalar DES oracle, 'numpy' "
            "the vectorized packed-plane replay (identical measurements, "
            "faster on large cohorts)"
        ),
    )
    p_sim.add_argument(
        "--cache-dir",
        help=(
            "directory for the persistent replay cache; outcomes are "
            "content-addressed by dataset/model/config/placements, so "
            "identical reruns load instead of replaying"
        ),
    )
    p_sim.set_defaults(fn=_cmd_simulate)

    p_query = sub.add_parser(
        "query",
        help="answer single-user placement queries on a warm plane",
    )
    p_query.add_argument(
        "--dataset", default="facebook", choices=("facebook", "twitter")
    )
    p_query.add_argument("--users", type=int, default=800)
    p_query.add_argument("--seed", type=int, default=0)
    p_query.add_argument("--model", default="sporadic")
    p_query.add_argument("--policy", default="maxav")
    p_query.add_argument(
        "--mode", default="conrep", choices=("conrep", "unconrep")
    )
    p_query.add_argument(
        "--user",
        type=int,
        action="append",
        help="query this user id (repeatable; default: a degree cohort)",
    )
    p_query.add_argument(
        "--degree",
        type=int,
        default=10,
        help="cohort degree when no --user is given",
    )
    p_query.add_argument(
        "--cohort", type=int, default=20, help="max cohort size"
    )
    p_query.add_argument("--k", type=int, default=3, help="replication degree")
    p_query.add_argument(
        "--cache-dir",
        help=(
            "directory for the persistent point-query cache; entries are "
            "content-addressed and shared with the batch plane, so "
            "repeated queries load bit-identical metrics"
        ),
    )
    p_query.add_argument(
        "--deadline-ms",
        type=_positive_float,
        default=None,
        metavar="MS",
        help=(
            "per-query latency budget; a query past it degrades per "
            "--degraded instead of blocking (default: no deadline)"
        ),
    )
    p_query.add_argument(
        "--degraded",
        default="refuse",
        choices=("refuse", "stale", "fallback"),
        help=(
            "what a failed or over-deadline query serves: 'refuse' "
            "raises (default), 'stale' serves the nearest stored "
            "lower-degree answer flagged as stale, 'fallback' retries "
            "without warm state (bit-identical) and only "
            "then falls back to stale; every degraded answer is "
            "flagged in the 'served' column"
        ),
    )
    p_query.set_defaults(fn=_cmd_query)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
