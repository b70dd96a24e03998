"""Peer nodes cycling online/offline on their daily schedules.

A :class:`PeerNode` owns a daily :class:`~repro.timeline.intervals.
IntervalSet` schedule and, when attached to a :class:`~repro.simulator.
kernel.Simulator`, fires *online*/*offline* transitions at every interval
boundary of every simulated day.  Observers (the OSN runtime's anti-
entropy and read replay) subscribe to the transitions.  The OSN runtime
attaches only the nodes a measurement observes and counts the
transitions of the others with :func:`transition_event_count`.  It
queues the attached nodes' :meth:`PeerNode.transition_events` together
with the rest of its initial events in one heap build.

Transition priorities are arranged so that at an instant where a node
goes online and an activity is delivered, the transition runs first —
half-open ``[start, end)`` semantics match ``IntervalSet.contains``.
"""

from __future__ import annotations

from typing import Callable, Iterator, List

from repro.graph.social_graph import UserId
from repro.simulator.kernel import Event, Simulator
from repro.timeline.day import DAY_SECONDS
from repro.timeline.intervals import IntervalSet

#: Event priorities at an identical instant: offline transitions first
#: (an interval ending at t does not cover t — half-open), then online
#: transitions (an interval starting at t covers t), then ordinary
#: deliveries/syncs, which therefore observe the correct node states.
PRIORITY_OFFLINE = -2
PRIORITY_ONLINE = -1
PRIORITY_DEFAULT = 0

TransitionCallback = Callable[["PeerNode"], None]


def day_transitions(schedule: IntervalSet, days: int, base_day: int = 0):
    """Yield each ``(t_on, t_off)`` transition pair of ``days`` simulated
    days (plus the wrap copy of day ``days``), in scheduling order.

    This is the single definition of the absolute transition instants:
    ``day * DAY_SECONDS + endpoint`` in this exact float arithmetic.
    :meth:`PeerNode.attach` schedules kernel events from it and the
    vectorized replay engine derives its event streams from the same
    values, so both paths agree on every instant bit-for-bit.
    """
    for day in range(base_day, base_day + days + 1):
        offset = day * DAY_SECONDS
        for iv_start, iv_end in schedule.intervals:
            yield offset + iv_start, offset + iv_end


def transition_event_count(schedule: IntervalSet, days: int) -> int:
    """How many transition events a node attached at time 0 fires in a
    ``days``-day run: the instants of :func:`day_transitions` at or
    before the horizon ``days * DAY_SECONDS``.

    Endpoints lie in ``[0, DAY_SECONDS]``, so each of the ``days`` whole
    days fires both transitions of every interval.  Of the wrap copy
    (day ``days``) only an interval opening at midnight lands on the
    horizon itself; the loop checks that in the kernel's float
    arithmetic.  So the count is ``2 * intervals * days``, plus one if
    the first interval opens at midnight.
    """
    intervals = schedule.intervals
    count = 2 * len(intervals) * days
    horizon = days * DAY_SECONDS
    for t_on, t_off in day_transitions(schedule, 0, base_day=days):
        if t_on > horizon:
            break
        count += 1 + (t_off <= horizon)
    return count


class PeerNode:
    """One user's machine in the decentralized OSN."""

    def __init__(self, user: UserId, schedule: IntervalSet):
        self.user = user
        self.schedule = schedule
        self.online = False
        self._on_online: List[TransitionCallback] = []
        self._on_offline: List[TransitionCallback] = []

    def __repr__(self) -> str:
        state = "online" if self.online else "offline"
        return f"PeerNode({self.user}, {state})"

    # -- subscriptions -----------------------------------------------------

    def subscribe_online(self, callback: TransitionCallback) -> None:
        self._on_online.append(callback)

    def subscribe_offline(self, callback: TransitionCallback) -> None:
        self._on_offline.append(callback)

    # -- schedule-driven lifecycle ------------------------------------------

    def is_scheduled_online(self, time: float) -> bool:
        """Whether the daily schedule covers the given absolute time."""
        return self.schedule.contains(time)

    def attach(self, sim: Simulator, days: int) -> None:
        """Schedule the online/offline transitions of ``days`` days.

        If the schedule covers the simulation start instant the node comes
        online immediately (via an online event at the start time).
        Transitions past the end of the last day are not queued: a run of
        ``days`` days stops there, so they would never fire.
        """
        for time, priority, fn, _args in self.transition_events(sim.now, days):
            sim.schedule_at(time, fn, priority=priority)

    def transition_events(self, start: float, days: int) -> Iterator[Event]:
        """The ``(time, priority, fn, args)`` events :meth:`attach` queues
        for a kernel standing at ``start``, in scheduling order.

        The OSN runtime chains these for every active node into one
        :meth:`~repro.simulator.kernel.Simulator.schedule_many` call, so
        the whole initial queue costs one heap build.
        """
        base_day = int(start // DAY_SECONDS)
        horizon = (base_day + days) * DAY_SECONDS
        go_online, go_offline = self._go_online, self._go_offline
        for t_on, t_off in day_transitions(self.schedule, days, base_day):
            if t_on > horizon:
                break
            if t_off <= start:
                continue
            if t_on >= start:
                yield t_on, PRIORITY_ONLINE, go_online, ()
            elif not self.online:
                # Interval already in progress at attach time.
                yield start, PRIORITY_ONLINE, go_online, ()
            if t_off <= horizon:
                yield t_off, PRIORITY_OFFLINE, go_offline, ()

    def _go_online(self) -> None:
        if self.online:
            return
        self.online = True
        for callback in self._on_online:
            callback(self)

    def _go_offline(self) -> None:
        if not self.online:
            return
        self.online = False
        for callback in self._on_offline:
            callback(self)
