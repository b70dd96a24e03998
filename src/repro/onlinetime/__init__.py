"""Online-time models: Sporadic, FixedLength, RandomLength (paper §IV-C).

Use :func:`make_model` to build a model from its registry name, e.g.::

    make_model("sporadic")                   # 20-minute sessions
    make_model("sporadic", session_seconds=3600)
    make_model("fixedlength", hours=2)
    make_model("randomlength")
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.onlinetime.base import (
    OnlineTimeModel,
    ScheduleMemo,
    Schedules,
    clear_schedule_cache,
    compute_schedules,
    packed_schedules,
    schedule_memo,
    schedule_of,
    user_rng,
)
from repro.onlinetime.explicit import (
    ExplicitScheduleModel,
    load_session_log,
    sessions_to_schedule,
)
from repro.onlinetime.continuous import (
    FIXED_LENGTH_CHOICES_HOURS,
    RANDOM_LENGTH_RANGE_HOURS,
    FixedLengthModel,
    RandomLengthModel,
    best_window_start,
)
from repro.onlinetime.sporadic import DEFAULT_SESSION_SECONDS, SporadicModel

_REGISTRY: Dict[str, Callable[..., OnlineTimeModel]] = {
    "explicit": ExplicitScheduleModel,
    "sporadic": SporadicModel,
    "fixedlength": FixedLengthModel,
    "randomlength": RandomLengthModel,
}


def make_model(name: str, **kwargs) -> OnlineTimeModel:
    """Build an online-time model by registry name."""
    try:
        factory = _REGISTRY[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown online-time model {name!r}; choose from "
            f"{sorted(_REGISTRY)}"
        ) from None
    return factory(**kwargs)


def model_names() -> list:
    """Registered model names."""
    return sorted(_REGISTRY)


__all__ = [
    "DEFAULT_SESSION_SECONDS",
    "ExplicitScheduleModel",
    "FIXED_LENGTH_CHOICES_HOURS",
    "FixedLengthModel",
    "OnlineTimeModel",
    "RANDOM_LENGTH_RANGE_HOURS",
    "RandomLengthModel",
    "ScheduleMemo",
    "Schedules",
    "SporadicModel",
    "best_window_start",
    "clear_schedule_cache",
    "compute_schedules",
    "load_session_log",
    "make_model",
    "model_names",
    "packed_schedules",
    "schedule_memo",
    "schedule_of",
    "sessions_to_schedule",
    "user_rng",
]
