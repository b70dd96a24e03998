"""The per-degree reference for the incremental sweep engine.

Production sweeps evaluate every prefix degree of a user's selection
sequence in one forward pass
(:func:`repro.parallel.worker.evaluate_user_cell`).  The oracle here
recomputes the same cell the slow way: each policy selects with a fresh
placement context (no shared overlap cache), and every swept degree is
evaluated from scratch by :func:`repro.core.metrics.evaluate_user`.  The
two must agree float for float.

:func:`oracle_sweeps` swaps the oracle in for the production kernel, so
any sweep entry point (``sweep_grid``, the figure experiments, the batch
runner) can be run through it and compared with its production result.
"""

import contextlib
from typing import Iterator

import repro.parallel.worker as worker
from repro.core.metrics import evaluate_user
from repro.core.placement.base import PlacementContext
from repro.graph.social_graph import UserId
from repro.parallel.worker import SweepPayload, UserCell
from repro.seeding import derive_rng


def naive_user_cell(payload: SweepPayload, user: UserId) -> UserCell:
    """One user's sweep cell, every degree evaluated on its own."""
    cell: UserCell = {}
    for policy in payload.policies:
        ctx = PlacementContext(
            dataset=payload.dataset,
            schedules=payload.schedules,
            user=user,
            mode=payload.mode,
            rng=derive_rng(payload.seed, policy.name, user),
        )
        sequence = policy.select(ctx, payload.max_degree)
        cell[policy.name] = tuple(
            evaluate_user(
                payload.dataset,
                payload.schedules,
                user,
                sequence[:k],
                allowed_degree=k,
                mode=payload.mode,
            )
            for k in payload.degrees
        )
    return cell


@contextlib.contextmanager
def oracle_sweeps(enabled: bool = True) -> Iterator[None]:
    """Route every sweep's per-user work through :func:`naive_user_cell`.

    Serial executors call the patched kernel directly; a worker pool
    sees it only if it forks inside the block.  With ``enabled`` false
    nothing changes, so a test can take the reference as a parameter.
    """
    if not enabled:
        yield
        return
    production = worker.evaluate_user_cell
    worker.evaluate_user_cell = naive_user_cell
    try:
        yield
    finally:
        worker.evaluate_user_cell = production
