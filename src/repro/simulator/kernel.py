"""A small discrete-event simulation kernel.

The paper's evaluation is trace-driven: a simulator replays user activity
against computed online schedules and measures the efficiency metrics.
This kernel is the engine for our replay: a time-ordered event queue with
deterministic tie-breaking (equal-time events fire in priority, then
insertion order), cancellable handles, and a bounded run loop.

It is deliberately synchronous and single-threaded — determinism matters
more than throughput here.  The replay keeps the queue small instead:
:class:`~repro.simulator.osn.DecentralizedOSN` queues only the
transitions of nodes a measurement can observe, none past the horizon,
and counts every other node's transitions in closed form.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

#: Queue entries are plain ``(time, priority, seq, handle)`` tuples —
#: ``seq`` is unique per entry, so comparisons never reach the handle.
_QueueEntry = Tuple[float, int, int, "EventHandle"]


class EventHandle:
    """A scheduled callback; cancel() prevents it from firing."""

    __slots__ = ("fn", "args", "cancelled")

    def __init__(self, fn: Callable[..., None], args: Tuple[Any, ...]):
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class SimulationError(RuntimeError):
    """Raised on kernel misuse (e.g. scheduling into the past)."""


class Simulator:
    """Time-ordered event executor.

    Usage::

        sim = Simulator()
        sim.schedule_at(10.0, hello, "world")
        sim.run(until=100.0)
    """

    def __init__(self, start_time: float = 0.0):
        self._now = start_time
        self._queue: List[_QueueEntry] = []
        self._counter = itertools.count()
        self._events_executed = 0

    @property
    def now(self) -> float:
        """Current simulation time (seconds)."""
        return self._now

    @property
    def events_executed(self) -> int:
        return self._events_executed

    @property
    def pending(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return len(self._queue)

    def schedule_at(
        self,
        time: float,
        fn: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute ``time``.

        Lower ``priority`` fires first among same-time events (e.g. node
        *online* transitions run before activity deliveries at the same
        instant).
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before now ({self._now})"
            )
        handle = EventHandle(fn, args)
        heapq.heappush(
            self._queue, (time, priority, next(self._counter), handle)
        )
        return handle

    def schedule_in(
        self,
        delay: float,
        fn: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``fn(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.schedule_at(self._now + delay, fn, *args, priority=priority)

    def step(self) -> bool:
        """Execute the next non-cancelled event; False when queue is empty."""
        while self._queue:
            time, _priority, _seq, handle = heapq.heappop(self._queue)
            if handle.cancelled:
                continue
            self._now = time
            handle.fn(*handle.args)
            self._events_executed += 1
            return True
        return False

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> None:
        """Run until the queue drains, ``until`` is passed, or
        ``max_events`` more events have executed."""
        executed = 0
        while self._queue:
            head = self._queue[0]
            if head[3].cancelled:
                heapq.heappop(self._queue)
                continue
            if until is not None and head[0] > until:
                break
            if max_events is not None and executed >= max_events:
                break
            self.step()
            executed += 1
        if until is not None and self._now < until:
            self._now = until
