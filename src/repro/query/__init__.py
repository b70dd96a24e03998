"""Interactive query plane: warm, low-latency point queries.

The batch plane (:mod:`repro.core.evaluation`, :mod:`repro.experiments`)
answers whole-cohort sweeps; this package answers *single-user*
questions — "place replicas for user X at degree k", "what
availability/AOD does X get under policy P" — at interactive latency:

* :class:`QueryPlane` keeps schedules, per-user
  incremental evaluators and selection sequences resident between
  queries, with bounded LRUs and an optional shared
  :class:`~repro.cache.SweepCache` content-address store;
* its resilient entry point (``evaluate_resilient``) adds per-request
  :class:`~repro.resilience.Deadline` budgets, a fallback recompute
  without the warm state, and stale-if-error serving — every
  degraded answer flagged via
  :class:`~repro.resilience.DegradedResult`.

Answers are bit-identical to the batch path by construction: every
query routes through the same per-user kernel the sweeps fan out.
"""

from repro.core.metrics import metrics_from_payload, metrics_to_payload
from repro.query.plane import QueryPlane

__all__ = [
    "QueryPlane",
    "metrics_from_payload",
    "metrics_to_payload",
]
