"""One registered experiment per table/figure of the paper's evaluation.

Each experiment is a function ``(scale, ex) -> ExperimentResult`` — an
:class:`~repro.experiments.config.ExperimentScale` and an
:class:`~repro.experiments.execution.Execution` — producing the same
rows/series the paper plots, plus raw data for programmatic shape
checks.  The degree-sweep panel figures (Figs. 3-7, 10, 11) are rows of
the :data:`PANELS` table rendered by :func:`run_panel`; the rest are
bespoke.  The registry at the bottom maps experiment ids (``table1``,
``fig2`` … ``fig11``, ``x1`` … ``x6``) to their functions; the benchmark
harness has one bench per entry.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.core import (
    CONREP,
    UNCONREP,
    SweepPoint,
    evaluate_user,
    make_policy,
    placement_sequences,
    sweep_grid,
    sweep_session_length,
    sweep_user_degree,
)
from repro.datasets import (
    PAPER_FACEBOOK_AVG_ACTIVITIES,
    PAPER_FACEBOOK_AVG_DEGREE,
    PAPER_FACEBOOK_USERS,
    PAPER_TWITTER_AVG_DEGREE,
    PAPER_TWITTER_USERS,
    dataset_stats,
    degree_distribution,
)
from repro.experiments.config import (
    BENCH,
    ExperimentScale,
    facebook_dataset,
    facebook_sharded,
    twitter_dataset,
    twitter_sharded,
)
from repro.experiments.execution import Execution
from repro.experiments.report import ExperimentResult
from repro.onlinetime import (
    FixedLengthModel,
    OnlineTimeModel,
    RandomLengthModel,
    SporadicModel,
    compute_schedules,
)
from repro.parallel import ParallelExecutor
from repro.simulator import DecentralizedOSN, ReplayConfig, replay_trace

if TYPE_CHECKING:  # imported lazily: repro.cache imports repro.core
    from repro.cache import SweepCache

#: Policy display order used throughout the paper's figures.
POLICY_ORDER: Tuple[str, ...] = ("maxav", "mostactive", "random")

#: The online-time models of the multi-panel figures, by panel name.
_MODELS: Dict[str, Callable[[], OnlineTimeModel]] = {
    "Sporadic": SporadicModel,
    "RandomLength": RandomLengthModel,
    "FixedLength-2h": lambda: FixedLengthModel(2),
    "FixedLength-8h": lambda: FixedLengthModel(8),
}


def _panel_models(
    names: Tuple[str, ...] = tuple(_MODELS),
) -> List[Tuple[str, OnlineTimeModel]]:
    return [(name, _MODELS[name]()) for name in names]


#: Replication degrees swept in Figs. 3-7 and 10-11.
DEGREES: Tuple[int, ...] = tuple(range(11))

#: Session lengths (seconds) swept in Fig. 8, log-spaced 100 s – 1e5 s.
SESSION_LENGTHS: Tuple[float, ...] = (100, 316, 1000, 3162, 10000, 31623, 86400)

_METRIC_LABELS = {
    "availability": "availability",
    "aod_time": "availability-on-demand-time",
    "aod_activity": "availability-on-demand-activity",
    "delay_hours_actual": "update propagation delay (hours)",
}


def _policies():
    return [make_policy(name) for name in POLICY_ORDER]


def _cohort(source, scale: ExperimentScale) -> List[int]:
    """The paper's degree-10 cohort, widening the degree window only if the
    (small, synthetic) dataset has no exact-degree users.

    ``source`` is a :class:`Dataset` or a :class:`ShardedDataset`; both
    list a degree bin's users sorted ascending, so the selected cohort is
    identical across sources.
    """
    for widen in range(4):
        users = source.users_with_degree(
            max(1, scale.cohort_degree - widen),
            max_degree=scale.cohort_degree + widen,
        )
        if users:
            if scale.max_cohort_users and len(users) > scale.max_cohort_users:
                users = users[: scale.max_cohort_users]
            return users
    name = getattr(source, "name", None) or (
        f"sharded {source.spec.kind} dataset"
    )
    raise RuntimeError(
        f"no users anywhere near degree {scale.cohort_degree} in {name}"
    )


def _source(kind: str, scale: ExperimentScale, ex: Execution):
    """The sweep input for a dataset kind: the eager dataset, or with
    ``shards > 1`` its :class:`ShardedDataset` (same series, bit for
    bit)."""
    facebook = kind == "facebook"
    if ex.shards > 1:
        sharded = facebook_sharded if facebook else twitter_sharded
        return sharded(scale, ex.shards)
    return facebook_dataset(scale) if facebook else twitter_dataset(scale)


def _knobs(scale: ExperimentScale, ex: Execution) -> Dict[str, Any]:
    """Keyword arguments for the sweeps: the scale's seed and repeat
    count plus the execution knobs."""
    return dict(
        seed=scale.seed,
        repeats=scale.repeats,
        executor=ex.executor,
        cache=ex.cache,
    )


def _rows(xs, sweep, metric: str) -> List[tuple]:
    """One table row per swept ``x``: ``x``, then each policy's
    ``metric`` (``None`` where the sweep has no aggregate)."""
    return [
        (x,)
        + tuple(
            None if agg is None else getattr(agg, metric)
            for agg in (sweep[name][i] for name in POLICY_ORDER)
        )
        for i, x in enumerate(xs)
    ]


def _series(sweep, fields) -> Dict[str, Dict[str, list]]:
    """Per policy, the raw series of each of ``fields``."""
    return {
        name: {f: [getattr(a, f) for a in sweep[name]] for f in fields}
        for name in POLICY_ORDER
    }


def _place(
    dataset, schedules, users, policy_name: str, scale, ex: Execution
) -> Dict[int, Tuple[int, ...]]:
    """Each user's k=3 ConRep selection — the x-series' placement."""
    return placement_sequences(
        dataset,
        schedules,
        users,
        make_policy(policy_name),
        mode=CONREP,
        max_degree=3,
        seed=scale.seed,
        executor=ex.executor,
    )


# ---------------------------------------------------------------------------
# Figures 3-7 (Facebook) and 10-11 (Twitter): degree-sweep panels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Panel:
    """One degree-sweep figure: a metric vs replication degree, one
    table per online-time model, one column per policy."""

    experiment_id: str
    title: str
    description: str
    expectation: str
    kind: str
    mode: str
    metric: str
    models: Tuple[str, ...] = tuple(_MODELS)


#: Series kept in each panel's ``data`` (the plotted metrics + replicas).
_PANEL_FIELDS: Tuple[str, ...] = (*_METRIC_LABELS, "mean_replicas_used")

PANELS: Tuple[Panel, ...] = (
    Panel(
        "fig3",
        "Facebook-ConRep: Availability (Fig. 3)",
        "Availability vs replication degree for the degree-10 cohort "
        "under all four online-time models, connected replicas.",
        "Availability rises and saturates; MaxAv dominates, MostActive "
        "beats Random; FixedLength-2h availability stays low.",
        "facebook",
        CONREP,
        "availability",
    ),
    Panel(
        "fig4",
        "Facebook-UnconRep: Availability (Fig. 4)",
        "Availability vs replication degree with unconnected replicas "
        "(third-party sync), FixedLength 2h and 8h panels.",
        "Higher achievable availability than the ConRep counterparts, "
        "since replica choice ignores time-connectivity.",
        "facebook",
        UNCONREP,
        "availability",
        models=("FixedLength-2h", "FixedLength-8h"),
    ),
    Panel(
        "fig5",
        "Facebook-ConRep: Availability-on-Demand-Time (Fig. 5)",
        "Fraction of the friends' combined online time the profile is "
        "reachable, vs replication degree.",
        "Reaches ~1 with few replicas under MaxAv; MostActive needs "
        "more, Random the most.",
        "facebook",
        CONREP,
        "aod_time",
    ),
    Panel(
        "fig6",
        "Facebook-ConRep: Availability-on-Demand-Activity (Fig. 6)",
        "Fraction of profile activities that found the profile "
        "reachable, vs replication degree.",
        "Higher than availability-on-demand-time at the same degree; "
        "MostActive performs notably well.",
        "facebook",
        CONREP,
        "aod_activity",
    ),
    Panel(
        "fig7",
        "Facebook-ConRep: Update Propagation Delay (Fig. 7)",
        "Worst-case update propagation delay (hours) vs replication "
        "degree — non-intuitively increasing with degree.",
        "Delay grows with replication degree; MaxAv incurs the highest "
        "delay; Sporadic delays are the lowest of the models.",
        "facebook",
        CONREP,
        "delay_hours_actual",
    ),
    Panel(
        "fig10",
        "Twitter-ConRep: Availability (Fig. 10)",
        "Availability vs replication degree on the Twitter dataset "
        "(replication on followers).",
        "Same trends as Facebook (Fig. 3).",
        "twitter",
        CONREP,
        "availability",
    ),
    Panel(
        "fig11",
        "Twitter-ConRep: Availability-on-Demand-Time (Fig. 11)",
        "Availability-on-demand-time on Twitter; unlike Facebook, the "
        "FixedLength-8h panel does not reach 1 because some followers "
        "are never time-connected to any replica.",
        "Same trends as Fig. 5, except FixedLength-8h saturates below "
        "1 due to disconnected followers.",
        "twitter",
        CONREP,
        "aod_time",
    ),
)


def run_panel(
    panel: Panel, scale: ExperimentScale, ex: Execution
) -> ExperimentResult:
    """Sweep every panel model over :data:`DEGREES` and add one table each.

    With a cache, sibling panels over the same (dataset, mode) share
    their sweeps by content address — fig3/5/6/7 (and fig10/11 on
    Twitter) compute each model's sweep once per batch and the rest slice
    their metric column from the cached series.
    """
    result = ExperimentResult(
        experiment_id=panel.experiment_id,
        title=panel.title,
        description=panel.description,
        paper_expectation=panel.expectation,
    )
    source = _source(panel.kind, scale, ex)
    users = _cohort(source, scale)
    models = _panel_models(panel.models)
    grid = sweep_grid(
        source,
        [SweepPoint(model, DEGREES, users) for _, model in models],
        _policies(),
        mode=panel.mode,
        **_knobs(scale, ex),
    )
    label = _METRIC_LABELS[panel.metric]
    for (panel_name, _), sweep in zip(models, grid):
        result.add_table(
            f"{panel_name}: {label} vs replication degree "
            f"({panel.mode}, {len(users)} cohort users)",
            ("degree",) + POLICY_ORDER,
            _rows(DEGREES, sweep, panel.metric),
        )
        result.data[panel_name] = _series(sweep, _PANEL_FIELDS)
    result.data["degrees"] = list(DEGREES)
    return result


# ---------------------------------------------------------------------------
# Table 1 and Figure 2: dataset characterisation
# ---------------------------------------------------------------------------


def table1_dataset_stats(
    scale: ExperimentScale, ex: Execution
) -> ExperimentResult:
    """§IV-A in-text dataset statistics, measured vs paper."""
    result = ExperimentResult(
        experiment_id="table1",
        title="Filtered dataset statistics (§IV-A)",
        description=(
            "Synthetic substitutes are generated to match the paper's "
            "filtered trace statistics; this table reports both."
        ),
        paper_expectation=(
            f"Facebook: {PAPER_FACEBOOK_USERS} users, avg degree "
            f"{PAPER_FACEBOOK_AVG_DEGREE}, avg activities "
            f"{PAPER_FACEBOOK_AVG_ACTIVITIES}; Twitter: "
            f"{PAPER_TWITTER_USERS} users, avg degree "
            f"{PAPER_TWITTER_AVG_DEGREE}."
        ),
    )
    rows = []
    for ds, paper_users, paper_degree in (
        (facebook_dataset(scale), PAPER_FACEBOOK_USERS, PAPER_FACEBOOK_AVG_DEGREE),
        (twitter_dataset(scale), PAPER_TWITTER_USERS, PAPER_TWITTER_AVG_DEGREE),
    ):
        stats = dataset_stats(ds)
        rows.append(
            (
                stats.name,
                stats.num_users,
                round(stats.average_degree, 1),
                stats.num_activities,
                round(stats.average_activities_per_user, 1),
                paper_users,
                paper_degree,
            )
        )
        result.data[stats.kind] = stats
    result.add_table(
        "Measured (this run) vs paper-reported (full-trace) statistics",
        (
            "dataset",
            "users",
            "avg degree",
            "activities",
            "acts/user",
            "paper users",
            "paper degree",
        ),
        rows,
    )
    return result


def fig2_degree_distribution(
    scale: ExperimentScale, ex: Execution
) -> ExperimentResult:
    """Fig. 2: user degree distribution of both datasets."""
    result = ExperimentResult(
        experiment_id="fig2",
        title="User degree distribution (Fig. 2)",
        description=(
            "Number of users per degree (friends for Facebook, followers "
            "for Twitter); heavy-tailed in both datasets."
        ),
        paper_expectation="Monotone-decreasing heavy tail for both datasets.",
    )
    fb = dict(degree_distribution(facebook_dataset(scale)))
    tw = dict(degree_distribution(twitter_dataset(scale)))
    # A dataset the §IV-A filter empties renders as all-zero counts.
    max_degree = min(50, max([*fb, *tw], default=1))
    rows = [
        (d, fb.get(d, 0), tw.get(d, 0)) for d in range(1, max_degree + 1)
    ]
    result.add_table(
        f"Users per degree (1..{max_degree}; tail truncated for display)",
        ("degree", "facebook users", "twitter users"),
        rows,
    )
    result.data["facebook"] = fb
    result.data["twitter"] = tw
    return result


# ---------------------------------------------------------------------------
# Figures 8-9: Facebook session length and user degree
# ---------------------------------------------------------------------------


def fig8_session_length(
    scale: ExperimentScale, ex: Execution
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig8",
        title="Facebook-ConRep: Effect of Sporadic session length (Fig. 8)",
        description=(
            "All four metrics at replication degree 3 as the Sporadic "
            "session length sweeps 100 s to ~1e5 s (log scale)."
        ),
        paper_expectation=(
            "Longer sessions raise availability (→1 above ~1e4 s) and all "
            "on-demand metrics, and sharply cut the propagation delay."
        ),
    )
    source = _source("facebook", scale, ex)
    sweep = sweep_session_length(
        source,
        SESSION_LENGTHS,
        _policies(),
        mode=CONREP,
        k=3,
        users=_cohort(source, scale),
        **_knobs(scale, ex),
    )
    for metric, label in _METRIC_LABELS.items():
        result.add_table(
            f"{label} vs session length (replication degree 3)",
            ("session (s)",) + POLICY_ORDER,
            _rows(SESSION_LENGTHS, sweep, metric),
        )
    result.data["session_lengths"] = list(SESSION_LENGTHS)
    result.data["sweep"] = _series(sweep, _METRIC_LABELS)
    return result


def fig9_user_degree(
    scale: ExperimentScale, ex: Execution
) -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig9",
        title="Facebook-ConRep: Effect of user degree (Fig. 9)",
        description=(
            "Availability and propagation delay for user degrees 1..10 "
            "under Sporadic, replication degree = user degree (all friends "
            "allowed)."
        ),
        paper_expectation=(
            "Availability grows with user degree and is equal across "
            "policies (all friends allowed); MaxAv uses fewer replicas and "
            "thus sees lower delay."
        ),
    )
    user_degrees = list(range(1, 11))
    sweep = sweep_user_degree(
        _source("facebook", scale, ex),
        SporadicModel(),
        _policies(),
        mode=CONREP,
        user_degrees=user_degrees,
        max_users_per_degree=scale.max_cohort_users,
        **_knobs(scale, ex),
    )
    fields = ("availability", "delay_hours_actual", "mean_replicas_used")
    for field, caption in zip(
        fields,
        (
            "availability vs user degree (Sporadic, max replication)",
            "update propagation delay (hours) vs user degree",
            "replicas actually used vs user degree",
        ),
    ):
        result.add_table(
            caption,
            ("user degree",) + POLICY_ORDER,
            _rows(user_degrees, sweep, field),
        )
    result.data["user_degrees"] = user_degrees
    result.data["sweep"] = {
        name: [
            None if agg is None else {f: getattr(agg, f) for f in fields}
            for agg in sweep[name]
        ]
        for name in POLICY_ORDER
    }
    return result


# ---------------------------------------------------------------------------
# X1: DES cross-validation
# ---------------------------------------------------------------------------


def x1_des_validation(
    scale: ExperimentScale, ex: Execution
) -> ExperimentResult:
    """Replay a placed cohort in the discrete-event simulator and compare
    the empirical measurements against the closed-form metrics."""
    result = ExperimentResult(
        experiment_id="x1",
        title="DES cross-validation (simulator vs closed form)",
        description=(
            "For the degree-10 cohort under FixedLength-8h and MaxAv "
            "(k=3), the trace is replayed in the discrete-event simulator; "
            "empirical availability / write service rate should match the "
            "analytic availability / availability-on-demand-activity, and "
            "the empirical worst delay must respect the analytic bound."
        ),
        paper_expectation=(
            "Simulation and analysis agree (the paper's simulator computes "
            "exactly these quantities)."
        ),
    )
    dataset = facebook_dataset(scale)
    model = FixedLengthModel(8)
    schedules = compute_schedules(dataset, model, seed=scale.seed)
    users = _cohort(dataset, scale)
    sequences = _place(dataset, schedules, users, "maxav", scale, ex)
    osn = DecentralizedOSN(
        dataset,
        schedules,
        sequences,
        config=ReplayConfig(days=3, sample_every=600, replay_reads=False),
        tracked_profiles=users,
    )
    stats = osn.run()

    rows = []
    deltas = []
    worst_bound = 0.0
    for user in users:
        analytic = evaluate_user(dataset, schedules, user, sequences[user])
        emp_avail = stats.availability_of(user)
        emp_writes = (
            stats.write_service_rate(user) if user in stats.writes else None
        )
        rows.append(
            (
                user,
                len(sequences[user]),
                round(analytic.availability, 3),
                round(emp_avail, 3),
                round(analytic.aod_activity, 3),
                None if emp_writes is None else round(emp_writes, 3),
                round(analytic.delay_hours_actual, 2)
                if not math.isinf(analytic.delay_hours_actual)
                else math.inf,
            )
        )
        deltas.append(abs(emp_avail - analytic.availability))
        if not math.isinf(analytic.delay_hours_actual):
            worst_bound = max(worst_bound, analytic.delay_hours_actual)
    result.add_table(
        "Per-user analytic vs empirical",
        (
            "user",
            "replicas",
            "avail (analytic)",
            "avail (DES)",
            "aod-act (analytic)",
            "write rate (DES)",
            "delay bound (h)",
        ),
        rows,
    )
    result.add_table(
        "Aggregate agreement",
        ("max |avail delta|", "worst DES delay (h)", "analytic bound (h)"),
        [
            (
                round(max(deltas), 4) if deltas else 0.0,
                round(stats.max_propagation_delay_hours, 2),
                round(worst_bound, 2),
            )
        ],
    )
    result.data["max_avail_delta"] = max(deltas) if deltas else 0.0
    result.data["worst_des_delay"] = stats.max_propagation_delay_hours
    result.data["analytic_bound"] = worst_bound
    result.data["incomplete_updates"] = stats.incomplete_updates
    return result


def x2_expected_unexpected(
    scale: ExperimentScale, ex: Execution
) -> ExperimentResult:
    """§IV-B: the expected/unexpected split of profile activity.

    Under each online-time model, part of the activity on a user's profile
    falls inside the creator's modelled online time (*expected*) and part
    outside (*unexpected*); availability-on-demand-activity serves both.
    This experiment quantifies the split and the service rate of each
    part, at replication degree 3 under MaxAv.
    """
    result = ExperimentResult(
        experiment_id="x2",
        title="Expected vs unexpected activity (§IV-B)",
        description=(
            "Per online-time model: fraction of profile activity whose "
            "creator was himself online at that instant (expected), and "
            "the served fraction of each part (MaxAv, k=3, ConRep)."
        ),
        paper_expectation=(
            "Sporadic makes all activity expected by construction; "
            "continuous windows leave an unexpected remainder whose "
            "service 'will have positive effect on the users' when it is "
            "nonetheless available."
        ),
    )
    dataset = facebook_dataset(scale)
    users = _cohort(dataset, scale)
    rows = []
    for panel_name, model in _panel_models():
        schedules = compute_schedules(dataset, model, seed=scale.seed)
        sequences = _place(dataset, schedules, users, "maxav", scale, ex)
        per_user = [
            evaluate_user(dataset, schedules, u, sequences[u])
            for u in users
        ]
        n = len(per_user)
        expected_frac = sum(m.expected_activity_fraction for m in per_user) / n
        served_expected = sum(m.aod_activity_expected for m in per_user) / n
        served_unexpected = (
            sum(m.aod_activity_unexpected for m in per_user) / n
        )
        overall = sum(m.aod_activity for m in per_user) / n
        rows.append(
            (
                panel_name,
                round(expected_frac, 3),
                round(served_expected, 3),
                round(served_unexpected, 3),
                round(overall, 3),
            )
        )
        result.data[panel_name] = {
            "expected_fraction": expected_frac,
            "served_expected": served_expected,
            "served_unexpected": served_unexpected,
            "aod_activity": overall,
        }
    result.add_table(
        "Expected/unexpected activity split and service (MaxAv, k=3)",
        (
            "model",
            "expected fraction",
            "served | expected",
            "served | unexpected",
            "aod-activity",
        ),
        rows,
    )
    return result


def x3_observed_vs_actual_delay(
    scale: ExperimentScale, ex: Execution
) -> ExperimentResult:
    """§II-C3: the observed propagation delay vs the actual one.

    The paper asserts the delay a friend *experiences* (his offline time
    excluded) "would be much lower" than the end-to-end worst case; this
    experiment puts numbers on that claim across the degree sweep.
    """
    result = ExperimentResult(
        experiment_id="x3",
        title="Observed vs actual propagation delay (§II-C3)",
        description=(
            "Facebook-ConRep, MaxAv: worst-case actual delay vs the "
            "observed delay (receiver offline time excluded), per "
            "replication degree and online-time model."
        ),
        paper_expectation=(
            "Observed delay is a small fraction of the actual delay for "
            "session-based schedules."
        ),
    )
    source = _source("facebook", scale, ex)
    users = _cohort(source, scale)
    models = _panel_models()
    grid = sweep_grid(
        source,
        [SweepPoint(model, DEGREES, users) for _, model in models],
        [make_policy("maxav")],
        mode=CONREP,
        **_knobs(scale, ex),
    )
    for (panel_name, _), point in zip(models, grid):
        sweep = point["maxav"]
        rows = []
        for i, k in enumerate(DEGREES):
            actual = sweep[i].delay_hours_actual
            observed = sweep[i].delay_hours_observed
            ratio = observed / actual if actual else 0.0
            rows.append(
                (k, round(actual, 2), round(observed, 2), round(ratio, 3))
            )
        result.add_table(
            f"{panel_name}: actual vs observed delay (hours, MaxAv)",
            ("degree", "actual", "observed", "observed/actual"),
            rows,
        )
        result.data[panel_name] = {
            "actual": [a.delay_hours_actual for a in sweep],
            "observed": [a.delay_hours_observed for a in sweep],
        }
    return result


def x4_hosting_fairness(
    scale: ExperimentScale, ex: Execution
) -> ExperimentResult:
    """§II-B1: fairness of the hosting load across the whole network.

    The paper requires that replica selection "ensure fairness among the
    replicas by balancing the storage and communication overhead ...
    uniformly" but never measures it.  Here every user of the network
    places k=3 replicas with each policy and the resulting hosting-load
    distribution is summarised by Jain's index, the Gini coefficient, the
    maximum load, and the share carried by the busiest decile.
    """
    result = ExperimentResult(
        experiment_id="x4",
        title="Hosting-load fairness across the network (§II-B1)",
        description=(
            "All users place k=3 replicas (Sporadic, ConRep); the load a "
            "node carries is the number of foreign profiles it hosts."
        ),
        paper_expectation=(
            "No measurement in the paper; structurally, coverage-greedy "
            "MaxAv concentrates load on long-online hubs (least fair), "
            "Random inherits the degree heavy tail (hubs sit in many "
            "candidate sets), and MostActive spreads best because "
            "favourite interaction partners are personal."
        ),
    )
    from repro.core.fairness import fairness_report

    dataset = facebook_dataset(scale)
    model = SporadicModel()
    schedules = compute_schedules(dataset, model, seed=scale.seed)
    everyone = sorted(dataset.graph.users())
    rows = []
    for policy_name in POLICY_ORDER:
        sequences = _place(
            dataset, schedules, everyone, policy_name, scale, ex
        )
        report = fairness_report(sequences, all_hosts=everyone)
        rows.append(
            (
                policy_name,
                report.total_load,
                round(report.mean_load, 2),
                report.max_load,
                round(report.jain, 3),
                round(report.gini, 3),
                round(report.top_decile_share, 3),
            )
        )
        result.data[policy_name] = report
    result.add_table(
        "Hosting-load fairness (k=3, whole network)",
        (
            "policy",
            "total load",
            "mean",
            "max",
            "jain",
            "gini",
            "top-10% share",
        ),
        rows,
    )
    return result


def x5_owner_notification(
    scale: ExperimentScale, ex: Execution
) -> ExperimentResult:
    """§II requirement: the owner should receive updates on his profile
    even when they arrive while he is offline.

    The DES replay measures, per policy, how long it takes an activity
    that landed on some replica to reach the *owner's own store* — the
    moment the owner can see it — plus the fraction the owner had not yet
    seen when the run ended.
    """
    result = ExperimentResult(
        experiment_id="x5",
        title="Owner notification delay (§II requirement)",
        description=(
            "FixedLength-8h schedules, k=3, three-day replay: time from an "
            "activity landing on the replica group until the owner's own "
            "node holds it."
        ),
        paper_expectation=(
            "Replication makes offline-received activity reach the owner "
            "within a day-scale delay; smarter placement (better overlap "
            "with the owner) shortens it."
        ),
    )
    dataset = facebook_dataset(scale)
    model = FixedLengthModel(8)
    schedules = compute_schedules(dataset, model, seed=scale.seed)
    users = _cohort(dataset, scale)
    rows = []
    for policy_name in POLICY_ORDER:
        sequences = _place(dataset, schedules, users, policy_name, scale, ex)
        stats = DecentralizedOSN(
            dataset,
            schedules,
            sequences,
            config=ReplayConfig(days=3, sample_every=0, replay_reads=False),
            tracked_profiles=users,
        ).run()
        delivered = len(stats.owner_delivery_delays_hours)
        total = delivered + stats.undelivered_to_owner
        rows.append(
            (
                policy_name,
                total,
                round(delivered / total, 3) if total else 1.0,
                round(stats.mean_owner_delivery_delay_hours, 2),
                round(stats.max_owner_delivery_delay_hours, 2),
            )
        )
        result.data[policy_name] = {
            "delivered": delivered,
            "total": total,
            "mean_delay_hours": stats.mean_owner_delivery_delay_hours,
            "max_delay_hours": stats.max_owner_delivery_delay_hours,
        }
    result.add_table(
        "Owner notification (k=3, FixedLength-8h, 3-day replay)",
        (
            "policy",
            "updates",
            "delivered to owner",
            "mean delay (h)",
            "max delay (h)",
        ),
        rows,
    )
    return result


# ---------------------------------------------------------------------------
# X6: sharded DES replay
# ---------------------------------------------------------------------------


def x6_scaled_replay(
    scale: ExperimentScale, ex: Execution
) -> ExperimentResult:
    """Full-feature DES replay through the sharded replay pipeline.

    The only experiment that routes the simulator through
    :func:`repro.simulator.replay_trace`, so the execution knobs reach
    the DES layer: it replays on the python DES, ``shards`` splits the
    profile cohort into disjoint replica-group shards fanned over the
    executor, and a ``cache`` memoises the merged statistics under a
    content address that deliberately excludes both knobs — every
    combination is bit-identical to the serial scalar oracle.
    """
    result = ExperimentResult(
        experiment_id="x6",
        title="Sharded DES replay (service rates at scale)",
        description=(
            "FixedLength-8h schedules, MaxAv k=3, three-day replay with "
            "availability sampling, read replay and owner tracking, run "
            "through the sharded/vectorized replay pipeline."
        ),
        paper_expectation=(
            "Identical measurements for every (jobs, shards, backend) "
            "combination; the empirical service rates and delays echo the "
            "closed-form §II-C metrics at replica degree 3."
        ),
    )
    dataset = facebook_dataset(scale)
    model = FixedLengthModel(8)
    schedules = compute_schedules(dataset, model, seed=scale.seed)
    users = _cohort(dataset, scale)
    sequences = _place(dataset, schedules, users, "maxav", scale, ex)
    config = ReplayConfig(days=3, sample_every=900, replay_reads=True)
    cache_key = None
    if ex.cache is not None:
        from repro.cache import replay_cache_key

        cache_key = replay_cache_key(
            dataset,
            model,
            seed=scale.seed,
            config=config,
            placements=sequences,
            tracked_profiles=users,
        )
    outcome = replay_trace(
        dataset,
        schedules,
        sequences,
        config=config,
        tracked_profiles=users,
        shards=ex.shards,
        executor=ex.executor,
        cache=ex.cache,
        cache_key=cache_key,
    )
    stats = outcome.stats
    result.add_table(
        "Replay execution",
        ("backend", "shards", "events replayed", "served from cache"),
        [
            (
                outcome.backend,
                outcome.shards,
                outcome.events_replayed,
                outcome.cached,
            )
        ],
    )
    mean_avail = (
        sum(stats.availability_of(u) for u in users) / len(users)
        if users
        else 0.0
    )
    result.add_table(
        "Cohort measurements (k=3, FixedLength-8h)",
        (
            "profiles",
            "mean availability",
            "write service rate",
            "read service rate",
            "mean propagation delay (h)",
            "mean read staleness",
            "consistent profiles",
        ),
        [
            (
                stats.tracked_profiles,
                round(mean_avail, 3),
                round(stats.write_service_rate(), 3),
                round(stats.read_service_rate(), 3),
                round(stats.mean_propagation_delay_hours, 2),
                round(stats.mean_read_staleness, 2),
                f"{stats.consistent_profiles}/{stats.tracked_profiles}",
            )
        ],
    )
    result.data["backend"] = outcome.backend
    result.data["shards"] = outcome.shards
    result.data["cached"] = outcome.cached
    result.data["events_replayed"] = outcome.events_replayed
    result.data["mean_availability"] = mean_avail
    result.data["write_service_rate"] = stats.write_service_rate()
    result.data["read_service_rate"] = stats.read_service_rate()
    result.data["mean_propagation_delay_hours"] = (
        stats.mean_propagation_delay_hours
    )
    result.data["mean_read_staleness"] = stats.mean_read_staleness
    result.data["incomplete_updates"] = stats.incomplete_updates
    return result


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: An experiment: ``(scale, ex) -> ExperimentResult``.
Experiment = Callable[[ExperimentScale, Execution], ExperimentResult]

_BESPOKE: Dict[str, Experiment] = {
    "table1": table1_dataset_stats,
    "fig2": fig2_degree_distribution,
    "fig8": fig8_session_length,
    "fig9": fig9_user_degree,
    "x1": x1_des_validation,
    "x2": x2_expected_unexpected,
    "x3": x3_observed_vs_actual_delay,
    "x4": x4_hosting_fairness,
    "x5": x5_owner_notification,
    "x6": x6_scaled_replay,
}

_PAPER_ORDER: Tuple[str, ...] = (
    "table1",
    *(f"fig{i}" for i in range(2, 12)),
    *(f"x{i}" for i in range(1, 7)),
)

_BY_ID: Dict[str, Experiment] = {
    **_BESPOKE,
    **{p.experiment_id: functools.partial(run_panel, p) for p in PANELS},
}

#: Experiment id -> experiment, in paper order.
EXPERIMENTS: Dict[str, Experiment] = {eid: _BY_ID[eid] for eid in _PAPER_ORDER}


def experiment_ids() -> List[str]:
    """All registered experiment ids, in paper order."""
    return list(EXPERIMENTS)


def run_experiment(
    experiment_id: str,
    scale: ExperimentScale = BENCH,
    *,
    jobs: int = 1,
    executor: Optional[ParallelExecutor] = None,
    cache: Optional["SweepCache"] = None,
    shards: int = 1,
) -> ExperimentResult:
    """Run one experiment by id at the given scale.

    The keyword arguments are the :class:`Execution` knobs (invalid
    values raise :class:`ValueError` before any work); every combination
    gives bit-identical output.  Without an ``executor`` one with
    ``jobs`` workers is built for this call.
    """
    if executor is None:
        executor = ParallelExecutor(jobs=jobs)
    return execute(experiment_id, scale, Execution(executor, cache, shards))


def execute(
    experiment_id: str, scale: ExperimentScale, ex: Execution
) -> ExperimentResult:
    """Run one experiment under ``ex`` and stamp ``result.timings``.

    The timings hold this experiment's own deltas: wall time, the knobs,
    per-phase throughput and pool counters of ``ex.executor`` (a serial
    one is built if it is ``None``), plus cache hits/misses and failure
    reports when there are any.  ``run_batch`` serialises them into the
    experiment's JSON.
    """
    try:
        fn = EXPERIMENTS[experiment_id]
    except KeyError:
        raise ValueError(
            f"unknown experiment {experiment_id!r}; choose from "
            f"{experiment_ids()}"
        ) from None
    if ex.executor is None:
        ex = dataclasses.replace(ex, executor=ParallelExecutor())
    executor, cache = ex.executor, ex.cache
    timing_mark = executor.snapshot_timings()
    pool_mark = executor.pool_stats.snapshot()
    failure_mark = executor.failures.snapshot()
    cache_mark = cache.stats.snapshot() if cache is not None else None
    start = perf_counter()
    result = fn(scale, ex)
    result.timings = {
        "total_seconds": round(perf_counter() - start, 6),
        "jobs": executor.effective_jobs,
        "shards": ex.shards,
        "phases": executor.timings_since(timing_mark),
        "pool": executor.pool_stats.since(pool_mark),
    }
    if cache is not None:
        result.timings["cache"] = cache.stats.since(cache_mark)
    failure_delta = executor.failures.since(failure_mark)
    if failure_delta:
        result.timings["failures"] = failure_delta.as_dict()
    return result
