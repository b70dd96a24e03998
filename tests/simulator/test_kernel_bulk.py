"""Property suite: one heap build and the folded run loop.

:meth:`Simulator.schedule_many` queues many events with one heap build,
and :meth:`Simulator.run` pops each event once.  The reference queues
every event with its own :meth:`Simulator.schedule_at` call and runs
the loop the kernel had before: peek at the head, drop it if cancelled,
stop at ``until``/``max_events``, else :meth:`Simulator.step`.  Both
must fire the same callbacks in the same order at the same instants —
same-instant priority ties, cancelled handles, events spawned and
cancelled while running, and runs resumed after a stop included — and
end with the same clock, queue length and event count.
"""

import heapq
from typing import List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator import SimulationError, Simulator


def _reference_run(
    sim: Simulator, until: Optional[float] = None, max_events: Optional[int] = None
) -> None:
    """``Simulator.run`` as it was, one ``step()`` per event."""
    executed = 0
    while sim._queue:
        head = sim._queue[0]
        if head[4].cancelled:
            heapq.heappop(sim._queue)
            continue
        if until is not None and head[0] > until:
            break
        if max_events is not None and executed >= max_events:
            break
        sim.step()
        executed += 1
    if until is not None and sim._now < until:
        sim._now = until


#: ``(time, priority, spawn, cancel)``: a spawning event queues a
#: follow-up ``spawn`` seconds later (0 gives a same-instant tie); a
#: cancelling one cancels the ``cancel``-th handle taken so far.
_event = st.tuples(
    st.integers(0, 8).map(float),
    st.integers(-2, 1),
    st.one_of(st.none(), st.integers(0, 3).map(float)),
    st.one_of(st.none(), st.integers(0, 30)),
)
_runs = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(0, 14).map(float)),
        st.one_of(st.none(), st.integers(0, 12)),
    ),
    min_size=1,
    max_size=3,
)


class _World:
    """One simulator plus the log of what fired, when."""

    def __init__(self, bulk: bool):
        self.bulk = bulk
        self.sim = Simulator()
        self.log: List = []
        self.handles: List = []

    def fire(self, label, spawn, cancel) -> None:
        self.log.append((label, self.sim.now))
        if cancel is not None and self.handles:
            self.handles[cancel % len(self.handles)].cancel()
        if spawn is not None:
            self.handles.append(
                self.sim.schedule_in(spawn, self.fire, ("spawn", label), None, None)
            )

    def queue(self, before, bulk, after, cancelled) -> None:
        for i, (time, priority, spawn, cancel) in enumerate(before):
            self.handles.append(
                self.sim.schedule_at(
                    time, self.fire, ("before", i), spawn, cancel, priority=priority
                )
            )
        events = [
            (time, priority, self.fire, (("bulk", i), spawn, cancel))
            for i, (time, priority, spawn, cancel) in enumerate(bulk)
        ]
        if self.bulk:
            self.sim.schedule_many(events)
        else:
            for time, priority, fn, args in events:
                self.sim.schedule_at(time, fn, *args, priority=priority)
        for i, (time, priority, spawn, cancel) in enumerate(after):
            self.handles.append(
                self.sim.schedule_at(
                    time, self.fire, ("after", i), spawn, cancel, priority=priority
                )
            )
        for k in cancelled:
            if self.handles:
                self.handles[k % len(self.handles)].cancel()

    def run(self, until, max_events) -> None:
        if self.bulk:
            self.sim.run(until=until, max_events=max_events)
        else:
            _reference_run(self.sim, until=until, max_events=max_events)

    def state(self):
        sim = self.sim
        return self.log, sim.now, sim.pending, sim.events_executed


@settings(max_examples=300, deadline=None)
@given(
    before=st.lists(_event, max_size=8),
    bulk=st.lists(_event, max_size=25),
    after=st.lists(_event, max_size=8),
    cancelled=st.lists(st.integers(0, 30), max_size=5),
    runs=_runs,
)
def test_bulk_queue_and_folded_run_match_per_event_scheduling(
    before, bulk, after, cancelled, runs
):
    fast, ref = _World(bulk=True), _World(bulk=False)
    for world in (fast, ref):
        world.queue(before, bulk, after, cancelled)
    for until, max_events in runs:
        fast.run(until, max_events)
        ref.run(until, max_events)
        assert fast.state() == ref.state()


def test_schedule_many_rejects_the_past_and_keeps_the_heap():
    sim = Simulator(start_time=10.0)
    fired = []
    with pytest.raises(SimulationError):
        sim.schedule_many(
            [(12.0, 0, fired.append, ("b",)), (5.0, 0, fired.append, ("x",))]
        )
    sim.schedule_at(11.0, fired.append, "a")
    sim.run()
    assert fired == ["a", "b"]
