"""The Sporadic online-time model (paper §IV-C1).

"The user is online several times a day sporadically, and each appearance
can be seen as a session.  We consider sessions of fixed length with each
user activity performed at a random point in the corresponding session
duration."

Each activity the user *created* spawns one session of ``session_length``
seconds containing the activity instant at a uniformly random offset; the
user's daily schedule is the union of all sessions, projected onto the
periodic day.  The paper's default session length is 20 minutes (a
conservative choice between the Orkut and Facebook measurements it cites);
Fig. 8 sweeps the length from 100 s to 10⁵ s.
"""

from __future__ import annotations

from repro.datasets.schema import Dataset
from repro.graph.social_graph import UserId
from repro.onlinetime.base import OnlineTimeModel, user_rng
from repro.timeline.day import DAY_SECONDS, MINUTE_SECONDS
from repro.timeline.intervals import IntervalSet

#: The paper's default session length: 20 minutes.
DEFAULT_SESSION_SECONDS = 20 * MINUTE_SECONDS


class SporadicModel(OnlineTimeModel):
    """Fixed-length sessions around each created activity."""

    def __init__(self, session_seconds: float = DEFAULT_SESSION_SECONDS):
        if session_seconds <= 0:
            raise ValueError("session_seconds must be positive")
        if session_seconds > DAY_SECONDS:
            raise ValueError("session_seconds cannot exceed one day")
        self.session_seconds = session_seconds
        self.name = "sporadic"

    def schedule(self, user: UserId, dataset: Dataset, seed: int) -> IntervalSet:
        # One uniform offset per created activity, in trace order.  The
        # activity's second of day is read as ``timestamp % DAY_SECONDS``,
        # the float operation ``Activity.second_of_day`` performs, without
        # the property call.
        random = user_rng(seed, user).random
        length = self.session_seconds
        day = DAY_SECONDS
        sessions = []
        append = sessions.append
        for act in dataset.trace.created_by(user):
            start = act.timestamp % day - random() * length
            append((start, start + length))
        return IntervalSet(sessions)

    def describe(self) -> str:
        return f"sporadic(session={self.session_seconds:g}s)"
