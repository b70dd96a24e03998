"""Degradation policies and structured degraded-result markers.

A DOSN keeps serving profiles when parts of it fail; what changes is the
*quality* of the answer, and that change must be explicit.  Three modes,
in increasing permissiveness:

* ``refuse`` — any failure or blown deadline raises to the caller
  (fail-fast; the pre-existing behaviour);
* ``stale`` — on failure, serve the best previously stored answer from
  the content-addressed store, flagged ``stale``;
* ``fallback`` — additionally retry the failed compute from the
  schedules alone, without the plane's warm state (bit-identical to the
  warm path by the query plane's determinism contract), flagged
  ``fallback``; staleness remains the last resort.

Every degraded answer is wrapped in a :class:`DegradedResult` carrying
an explicit ``degraded`` flag plus the reason — callers can always tell
a first-class answer from a degraded one, which is what makes degraded
serving honest instead of silently wrong.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = [
    "REFUSE",
    "STALE",
    "FALLBACK",
    "DEGRADED_MODES",
    "DegradationPolicy",
    "DegradedResult",
]

REFUSE = "refuse"
STALE = "stale"
FALLBACK = "fallback"

DEGRADED_MODES = (REFUSE, STALE, FALLBACK)


@dataclass(frozen=True)
class DegradationPolicy:
    """What the serving path may do when the first-class answer fails."""

    mode: str = REFUSE

    def __post_init__(self) -> None:
        if self.mode not in DEGRADED_MODES:
            raise ValueError(
                f"degraded mode must be one of {DEGRADED_MODES}, "
                f"got {self.mode!r}"
            )

    @property
    def allow_stale(self) -> bool:
        """May stored answers be served past failures/deadlines?"""
        return self.mode in (STALE, FALLBACK)

    @property
    def allow_fallback(self) -> bool:
        """May failed computes retry without the warm state?"""
        return self.mode == FALLBACK


@dataclass(frozen=True)
class DegradedResult:
    """One query outcome with its degradation provenance.

    ``value`` is the answer (``None`` when the request failed outright);
    ``degraded`` flags any answer that did not come from the first-class
    path; ``reason`` is ``None`` for fresh answers, ``"stale"`` /
    ``"fallback"`` for degraded ones and ``"error"`` for failures;
    ``error`` carries the exception of a failed request so batch callers
    can re-raise it for exactly the caller that asked.
    """

    value: Any
    degraded: bool = False
    reason: Optional[str] = None
    detail: str = ""
    error: Optional[BaseException] = field(default=None, compare=False)

    @property
    def ok(self) -> bool:
        return self.error is None

    @classmethod
    def fresh(cls, value: Any) -> "DegradedResult":
        return cls(value=value)

    @classmethod
    def stale(cls, value: Any, detail: str = "") -> "DegradedResult":
        return cls(value=value, degraded=True, reason=STALE, detail=detail)

    @classmethod
    def fallback(cls, value: Any, detail: str = "") -> "DegradedResult":
        return cls(value=value, degraded=True, reason=FALLBACK, detail=detail)

    @classmethod
    def failed(
        cls, error: BaseException, detail: str = ""
    ) -> "DegradedResult":
        return cls(
            value=None,
            degraded=True,
            reason="error",
            detail=detail,
            error=error,
        )

    def unwrap(self) -> Any:
        """The value, re-raising the recorded error for failures."""
        if self.error is not None:
            raise self.error
        return self.value
