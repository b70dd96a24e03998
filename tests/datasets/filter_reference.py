"""Round-by-round reference for the §IV-A filter.

The plain reading of the paper's pipeline: each round drops every user
with fewer than ``min_activities`` created activities in the current
trace (and, with ``require_candidates``, every user left without a
replica candidate), then restricts the graph and the trace to the
survivors.  Rounds repeat until one drops nobody.  Production resolves
the same fixed point with one array kernel
(:func:`repro.datasets.filters.surviving_mask`) and restricts once; the
property tests hold the two equal.
"""

from typing import Set, Tuple

from repro.datasets.schema import Dataset


def reference_filter(
    dataset: Dataset,
    *,
    min_activities: int = 10,
    require_candidates: bool = False,
) -> Tuple[Dataset, int]:
    """The filtered dataset and the number of rounds that dropped users.

    Expects a trace among graph users only (what every builder and
    loader produces).
    """
    graph = dataset.graph
    trace = dataset.trace
    rounds = 0
    while True:
        keep: Set[int] = set()
        for user in graph.users():
            if trace.activity_count(user) < min_activities:
                continue
            if require_candidates and not graph.replica_candidates(user):
                continue
            keep.add(user)
        if len(keep) == graph.num_users:
            break
        graph = graph.subgraph(keep)
        trace = trace.restricted_to(keep)
        rounds += 1
    filtered = Dataset(
        name=dataset.name,
        kind=dataset.kind,
        graph=graph,
        trace=trace,
        notes=dataset.notes
        + (
            f" | filtered: min_activities={min_activities}"
            + (", require_candidates" if require_candidates else "")
        ),
    )
    return filtered, rounds
