"""The resilience layer: degrade gracefully instead of falling over.

The paper's availability study assumes a serving plane that keeps
answering when parts of it fail; this package holds the runtime
primitives that make our own compute plane behave that way:

* :class:`Deadline` / :class:`DeadlineExceeded` — per-request time
  budgets with an injectable clock
  (:mod:`repro.resilience.deadline`);
* :class:`DegradationPolicy` / :class:`DegradedResult` — what a failed
  request may degrade to (``refuse`` / ``stale`` / ``fallback``), and
  the structured marker every degraded answer carries
  (:mod:`repro.resilience.degradation`).

None of this changes any float: deadlines and the fallback decide
*whether* and *where* an answer is computed, and the degradation
markers say *what kind* of answer was served.  Bit-identity of
everything actually computed is asserted by the chaos harness in
``tests/resilience``.
"""

from repro.resilience.deadline import Deadline, DeadlineExceeded
from repro.resilience.degradation import (
    DEGRADED_MODES,
    FALLBACK,
    REFUSE,
    STALE,
    DegradationPolicy,
    DegradedResult,
)

__all__ = [
    "DEGRADED_MODES",
    "Deadline",
    "DeadlineExceeded",
    "DegradationPolicy",
    "DegradedResult",
    "FALLBACK",
    "REFUSE",
    "STALE",
]
