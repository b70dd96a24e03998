"""Tests for PeerNode schedule-driven online/offline transitions."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simulator import PeerNode, Simulator, transition_event_count
from repro.timeline import DAY_SECONDS, HOUR_SECONDS, IntervalSet


def _hours(start, end):
    return IntervalSet([(start * HOUR_SECONDS, end * HOUR_SECONDS)])


class TestTransitions:
    def test_comes_online_and_offline(self):
        sim = Simulator()
        node = PeerNode(1, _hours(2, 4))
        log = []
        node.subscribe_online(lambda n: log.append(("on", sim.now)))
        node.subscribe_offline(lambda n: log.append(("off", sim.now)))
        node.attach(sim, days=1)
        sim.run(until=DAY_SECONDS)
        assert ("on", 2 * HOUR_SECONDS) in log
        assert ("off", 4 * HOUR_SECONDS) in log

    def test_online_state_between_transitions(self):
        sim = Simulator()
        node = PeerNode(1, _hours(2, 4))
        node.attach(sim, days=1)
        states = []
        sim.schedule_at(3 * HOUR_SECONDS, lambda: states.append(node.online))
        sim.schedule_at(5 * HOUR_SECONDS, lambda: states.append(node.online))
        sim.run(until=DAY_SECONDS)
        assert states == [True, False]

    def test_daily_repetition(self):
        sim = Simulator()
        node = PeerNode(1, _hours(2, 4))
        ons = []
        node.subscribe_online(lambda n: ons.append(sim.now))
        node.attach(sim, days=3)
        sim.run(until=3 * DAY_SECONDS)
        assert len(ons) == 3
        assert ons[1] - ons[0] == DAY_SECONDS

    def test_multiple_intervals_per_day(self):
        sim = Simulator()
        node = PeerNode(1, IntervalSet([(0, 100), (200, 300)]))
        transitions = []
        node.subscribe_online(lambda n: transitions.append(("on", sim.now)))
        node.subscribe_offline(lambda n: transitions.append(("off", sim.now)))
        node.attach(sim, days=1)
        sim.run(until=DAY_SECONDS - 1)
        assert transitions[:4] == [
            ("on", 0.0),
            ("off", 100.0),
            ("on", 200.0),
            ("off", 300.0),
        ]

    def test_empty_schedule_never_online(self):
        sim = Simulator()
        node = PeerNode(1, IntervalSet.empty())
        node.attach(sim, days=2)
        sim.run(until=2 * DAY_SECONDS)
        assert node.online is False
        assert sim.events_executed == 0

    def test_half_open_boundary(self):
        """At the exact end instant the node is already offline; at the
        start instant it is online (transition priorities)."""
        sim = Simulator()
        node = PeerNode(1, _hours(2, 4))
        node.attach(sim, days=1)
        at_start, at_end = [], []
        sim.schedule_at(2 * HOUR_SECONDS, lambda: at_start.append(node.online))
        sim.schedule_at(4 * HOUR_SECONDS, lambda: at_end.append(node.online))
        sim.run(until=DAY_SECONDS)
        assert at_start == [True]
        assert at_end == [False]

    def test_is_scheduled_online_periodic(self):
        node = PeerNode(1, _hours(2, 4))
        assert node.is_scheduled_online(DAY_SECONDS + 3 * HOUR_SECONDS)
        assert not node.is_scheduled_online(DAY_SECONDS + 5 * HOUR_SECONDS)

    def test_attach_mid_interval_comes_online_immediately(self):
        sim = Simulator(start_time=3 * HOUR_SECONDS)
        node = PeerNode(1, _hours(2, 4))
        node.attach(sim, days=1)
        states = []
        sim.schedule_at(3.5 * HOUR_SECONDS, lambda: states.append(node.online))
        sim.run(until=DAY_SECONDS)
        assert states == [True]


_ENDPOINTS = st.one_of(
    st.just(0),
    st.just(DAY_SECONDS),
    st.integers(0, DAY_SECONDS),
    st.floats(0, DAY_SECONDS, allow_nan=False),
)


class TestTransitionEventCount:
    """The closed form against the kernel actually running the node."""

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(st.tuples(_ENDPOINTS, _ENDPOINTS), max_size=6),
        days=st.integers(1, 4),
    )
    @example(pairs=[], days=1)
    @example(pairs=[(0, 3600)], days=2)
    @example(pairs=[(82800, DAY_SECONDS)], days=3)
    @example(pairs=[(0, 3600), (3600, 7200), (82800, DAY_SECONDS)], days=4)
    @example(pairs=[(0, DAY_SECONDS)], days=1)
    def test_matches_attach_and_run(self, pairs, days):
        # ``(a, b)`` with ``a > b`` wraps midnight: an interval at 0
        # plus one ending at DAY_SECONDS; touching pairs coalesce.
        schedule = IntervalSet(pairs)
        sim = Simulator()
        node = PeerNode(1, schedule)
        node.attach(sim, days)
        sim.run(until=days * DAY_SECONDS)
        assert transition_event_count(schedule, days) == sim.events_executed
        assert sim.pending == 0  # nothing was queued past the horizon
