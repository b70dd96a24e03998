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

Firing order is the total order of ``(time, priority, seq)``, and
``seq`` is unique, so it does not depend on the heap's layout: the
initial events of a replay are queued by one :meth:`Simulator.
schedule_many` call (one heap build) and fire exactly as the same
:meth:`Simulator.schedule_at` calls would.

Only :meth:`Simulator.schedule_at`/:meth:`Simulator.schedule_in` events
carry an :class:`EventHandle`, because only they can be cancelled.  The
bulk events of :meth:`Simulator.schedule_many` — a replay's transitions,
activities and first sample, nearly all of its queue — sit on the heap
as bare ``(time, priority, seq, fn, args)`` tuples.  With no handle
beside each tuple, a replay's long-lived heap holds one object fewer
per event, and triggers fewer cyclic garbage collections.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable, Iterable, List, Optional, Tuple

#: Queue entries are plain ``(time, priority, seq, fn, args)`` tuples —
#: ``seq`` is unique per entry, so comparisons never reach ``fn``.  A
#: cancellable event has ``fn`` None and its :class:`EventHandle` in
#: the ``args`` slot.
_QueueEntry = Tuple[float, int, int, Optional[Callable[..., None]], Any]

#: An event for :meth:`Simulator.schedule_many`: ``(time, priority, fn,
#: args)``.
Event = Tuple[float, int, Callable[..., None], Tuple[Any, ...]]


class EventHandle:
    """A cancellable scheduled callback; cancel() prevents it from firing.

    :meth:`Simulator.schedule_at` and :meth:`Simulator.schedule_in`
    return one; :meth:`Simulator.schedule_many` events have none.
    """

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
            self._queue, (time, priority, next(self._counter), None, handle)
        )
        return handle

    def schedule_many(self, events: Iterable[Event]) -> None:
        """Queue ``(time, priority, fn, args)`` events with one heap build.

        Sequence numbers are taken in iteration order, so the events
        fire exactly as the same :meth:`schedule_at` calls would.  The
        heap is rebuilt once over the whole queue, so this suits one
        large batch, not a few events at a time.  The events get no
        :class:`EventHandle`, so they cannot be cancelled.
        """
        queue = self._queue
        counter = self._counter
        now = self._now
        try:
            for time, priority, fn, args in events:
                if time < now:
                    raise SimulationError(
                        f"cannot schedule at {time} before now ({now})"
                    )
                queue.append((time, priority, next(counter), fn, args))
        finally:
            heapq.heapify(queue)

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
            time, _priority, _seq, fn, args = heapq.heappop(self._queue)
            if fn is None:
                if args.cancelled:
                    continue
                fn, args = args.fn, args.args
            self._now = time
            fn(*args)
            self._events_executed += 1
            return True
        return False

    def run(
        self, until: Optional[float] = None, max_events: Optional[int] = None
    ) -> None:
        """Run until the queue drains, ``until`` is passed, or
        ``max_events`` more events have executed.

        Cancelled events at the head are dropped even when the run stops
        there; the first live event past a limit stays queued.
        """
        queue = self._queue
        heappop = heapq.heappop
        horizon = math.inf if until is None else until
        budget = math.inf if max_events is None else max_events
        executed = 0
        while queue:
            entry = heappop(queue)
            time, _priority, _seq, fn, args = entry
            if fn is None:
                if args.cancelled:
                    continue
                fn, args = args.fn, args.args
            if time > horizon or executed >= budget:
                # Pop order is the total order of the unique keys, so
                # pushing the entry back leaves the firing order as it was.
                heapq.heappush(queue, entry)
                break
            self._now = time
            fn(*args)
            self._events_executed += 1
            executed += 1
        if until is not None and self._now < until:
            self._now = until
