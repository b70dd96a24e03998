"""The Twitter dataset: real-file loader and synthetic substitute.

The paper uses a simplified version of the Galuba et al. (WOSN'10) trace:
158 324 tweets by 23 162 users over two weeks (10–24 Sep 2009), filtered to
14 933 users with ≥10 tweets and at least one follower present in the data
(average follower count ≈ 76).  Profiles are replicated on *followers*.

Entry points mirror the Facebook module: :func:`load_twitter_dataset` for
real files (an edge list of follows plus a tweet file), and
:func:`synthetic_twitter` for the matched synthetic substitute.
"""

from __future__ import annotations

from typing import Optional

from repro.datasets.filters import filter_dataset
from repro.datasets.schema import Activity, ActivityTrace, Dataset
from repro.datasets.sharding import SyntheticSpec
from repro.datasets.synthesis import TraceParams, synthesize_tweet_trace
from repro.graph.io import PathOrFile, open_for_read, read_follower_graph

#: Filtered-dataset statistics reported in the paper (§IV-A).
PAPER_TWITTER_USERS = 14933
PAPER_TWITTER_AVG_DEGREE = 76.0

_DEGREE_ALPHA = 1.35


def load_tweet_trace(source: PathOrFile) -> ActivityTrace:
    """Parse a tweet file: each line ``creator receiver timestamp``.

    The receiver is the user the tweet is directed at (mention/reply
    target), matching the paper's 'a tweet has a receiver, a creator, and
    a timestamp'.
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
                    f"line {lineno}: expected 'creator receiver timestamp'"
                )
            activities.append(
                Activity(
                    timestamp=float(parts[2]),
                    creator=int(parts[0]),
                    receiver=int(parts[1]),
                )
            )
        return ActivityTrace(activities)
    finally:
        if owned:
            handle.close()


def load_twitter_dataset(
    follows_source: PathOrFile,
    tweets_source: PathOrFile,
    *,
    min_activities: int = 10,
) -> Dataset:
    """Load and filter a real Twitter trace (follows edge list + tweets)."""
    graph = read_follower_graph(follows_source)
    trace = load_tweet_trace(tweets_source)
    for act in trace:
        graph.add_user(act.creator)
        graph.add_user(act.receiver)
    dataset = Dataset(
        name="twitter-galuba",
        kind="twitter",
        graph=graph,
        trace=trace,
        notes="real trace (Galuba et al., WOSN'10)",
    )
    return filter_dataset(
        dataset, min_activities=min_activities, require_candidates=True
    )


def synthetic_twitter(
    num_users: int = 2000,
    *,
    seed: int = 0,
    params: Optional[TraceParams] = None,
    min_activities: int = 10,
    degree_alpha: float = _DEGREE_ALPHA,
    max_degree: Optional[int] = None,
    graph_layout: str = "legacy",
) -> Dataset:
    """Build a synthetic Twitter-like dataset and run the paper's filter.

    The follower graph has a heavy-tailed follower distribution; tweets are
    directed at followees over the trace's two-week window, so a user's
    received activity is created by his followers (his replica candidates).
    ``max_degree`` caps the follower-count support (``None`` keeps the
    generator's default).  ``graph_layout`` selects ``"legacy"``
    (sequential generator) or ``"stream"`` (per-user proposal streams —
    the shard-native layout).
    """
    spec = SyntheticSpec(
        "twitter",
        num_users,
        seed,
        params,
        min_activities,
        degree_alpha,
        max_degree,
        graph_layout,
    )
    graph = spec.build_graph()
    trace = synthesize_tweet_trace(graph, spec.resolved_params(), seed)
    dataset = Dataset(
        name=f"synthetic-twitter-{num_users}",
        kind="twitter",
        graph=graph,
        trace=trace,
        notes=(
            "synthetic substitute for the Galuba et al. Twitter trace "
            f"(seed={seed})"
        ),
    )
    return filter_dataset(
        dataset, min_activities=min_activities, require_candidates=True
    )
