"""The Facebook dataset: real-file loader and synthetic substitute.

The paper uses the Facebook New Orleans dataset of Viswanath et al.
(WOSN'09): 63 731 users and 876 994 wall posts, filtered down to 13 884
users with ≥10 wall posts each (average degree ≈ 41, ≈50 activities/user).

Two entry points:

* :func:`load_facebook_dataset` parses the original distribution files
  (``facebook-links.txt`` + ``facebook-wall.txt``), so the pipeline runs
  on the real trace when the user has it;
* :func:`synthetic_facebook` builds a statistically matched substitute
  (power-law friendship graph, lognormal activity volume, diurnal
  wall-post timestamps, skewed partner choice) at any scale.
"""

from __future__ import annotations

from typing import Optional

from repro.datasets.filters import filter_dataset
from repro.datasets.schema import Activity, ActivityTrace, Dataset
from repro.datasets.sharding import SyntheticSpec
from repro.datasets.synthesis import TraceParams, synthesize_wall_trace
from repro.graph.io import PathOrFile, open_for_read, read_friendship_graph

#: Filtered-dataset statistics reported in the paper (§IV-A), used by the
#: dataset-statistics bench as the reference column.
PAPER_FACEBOOK_USERS = 13884
PAPER_FACEBOOK_AVG_DEGREE = 41.0
PAPER_FACEBOOK_AVG_ACTIVITIES = 50.0

#: Degree-distribution exponent that, at paper scale, yields an average
#: degree in the right region while keeping the low-degree mass visible in
#: the paper's Fig. 2.
_DEGREE_ALPHA = 1.35


def load_facebook_wall_trace(source: PathOrFile) -> ActivityTrace:
    """Parse the ``facebook-wall.txt`` format.

    Each line is ``wall_owner poster timestamp`` — the wall owner is the
    activity's *receiver*, the poster its *creator*.  Comment lines start
    with ``#``.
    """
    handle, owned = open_for_read(source)
    try:
        activities = []
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 3:
                raise ValueError(
                    f"line {lineno}: expected 'owner poster timestamp'"
                )
            receiver, creator, timestamp = (
                int(parts[0]),
                int(parts[1]),
                float(parts[2]),
            )
            activities.append(
                Activity(timestamp=timestamp, creator=creator, receiver=receiver)
            )
        return ActivityTrace(activities)
    finally:
        if owned:
            handle.close()


def load_facebook_dataset(
    links_source: PathOrFile,
    wall_source: PathOrFile,
    *,
    min_activities: int = 10,
) -> Dataset:
    """Load and filter the real Facebook New Orleans dataset.

    Applies the paper's pipeline: drop users with fewer than
    ``min_activities`` created wall posts, take the induced subgraph, and
    drop activities touching removed users.
    """
    graph = read_friendship_graph(links_source)
    trace = load_facebook_wall_trace(wall_source)
    for act in trace:
        graph.add_user(act.creator)
        graph.add_user(act.receiver)
    dataset = Dataset(
        name="facebook-new-orleans",
        kind="facebook",
        graph=graph,
        trace=trace,
        notes="real trace (Viswanath et al., WOSN'09)",
    )
    return filter_dataset(dataset, min_activities=min_activities)


def synthetic_facebook(
    num_users: int = 2000,
    *,
    seed: int = 0,
    params: Optional[TraceParams] = None,
    min_activities: int = 10,
    degree_alpha: float = _DEGREE_ALPHA,
    max_degree: Optional[int] = None,
    graph_layout: str = "legacy",
) -> Dataset:
    """Build a synthetic Facebook-like dataset and run the paper's filter.

    Defaults are sized for seconds-scale experiments; pass
    ``num_users=PAPER_FACEBOOK_USERS`` for a paper-scale run.  The result
    is a pure function of ``(num_users, seed, params)``.  ``max_degree``
    caps the degree-sequence support (million-user runs want an explicit
    cap; ``None`` keeps the generator's ``num_users ** 0.75`` default).
    ``graph_layout`` selects the friendship-graph generator: ``"legacy"``
    (sequential configuration model) or ``"stream"`` (per-user proposal
    streams — the shard-native layout, whose rows any shard can rebuild
    without replaying other users).
    """
    spec = SyntheticSpec(
        "facebook",
        num_users,
        seed,
        params,
        min_activities,
        degree_alpha,
        max_degree,
        graph_layout,
    )
    graph = spec.build_graph()
    trace = synthesize_wall_trace(graph, spec.resolved_params(), seed)
    dataset = Dataset(
        name=f"synthetic-facebook-{num_users}",
        kind="facebook",
        graph=graph,
        trace=trace,
        notes=(
            "synthetic substitute for the Facebook New Orleans trace "
            f"(seed={seed})"
        ),
    )
    return filter_dataset(dataset, min_activities=min_activities)
