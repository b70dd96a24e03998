"""The one-pass ConRep delay bounds equal the two reference passes.

:meth:`IncrementalAPSP.delay_bounds_seconds` reads the diameter and the
observed bound off each receiver's largest wait, with a ``min(colmax,
measure)`` shortcut for receivers whose waits all stay under a day.  It
must return exactly ``(diameter_seconds(), worst_observed_seconds())``
— compared with ``==``, not approximately — on every member set:
multi-day shortest paths (a receiver's largest wait reaches a full day,
so the shortcut must not be taken), disconnected pairs (``inf``),
never-online members (zero measure), and int as well as float endpoints.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.connectivity import IncrementalAPSP, ReplicaGroup, group_apsp
from repro.timeline import DAY_SECONDS, IntervalSet


def _reference(apsp, schedules):
    return apsp.diameter_seconds(), apsp.worst_observed_seconds(schedules)


def _assert_bounds_equal(apsp, schedules):
    got = apsp.delay_bounds_seconds(schedules)
    want = _reference(apsp, schedules)
    assert got == want, f"one-pass={got!r} reference={want!r}"


def _endpoint(draw, lo, hi, floats):
    """An int endpoint, or a float on a 1/7-second grid (not
    representable in binary, so rounding drift would show)."""
    if floats:
        return draw(st.integers(min_value=lo * 7, max_value=hi * 7)) / 7.0
    return draw(st.integers(min_value=lo, max_value=hi))


@st.composite
def member_schedules(draw, min_members=2, max_members=7):
    """Random schedules: 0-2 intervals each (empty = never online)."""
    floats = draw(st.booleans())
    n = draw(st.integers(min_value=min_members, max_value=max_members))
    schedules = {}
    for member in range(n):
        pairs = []
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            start = _endpoint(draw, 0, DAY_SECONDS - 2, floats)
            length = _endpoint(draw, 1, 6 * 3600, floats)
            pairs.append((start, min(start + length, DAY_SECONDS)))
        schedules[member] = IntervalSet(pairs, wrap=False)
    return schedules


@st.composite
def chains(draw):
    """Members whose windows overlap only their neighbours', briefly: a
    path graph whose end-to-end waits span several days.  Optionally one
    member is never online (disconnecting the chain) or the windows have
    float endpoints."""
    floats = draw(st.booleans())
    n = draw(st.integers(min_value=3, max_value=7))
    step = DAY_SECONDS // n
    schedules = {}
    for member in range(n):
        start = member * step
        overlap = _endpoint(draw, 1, 600, floats)
        end = min(start + step + overlap, DAY_SECONDS)
        schedules[member] = IntervalSet([(start, end)], wrap=False)
    if draw(st.booleans()):
        schedules[draw(st.integers(min_value=0, max_value=n - 1))] = (
            IntervalSet.empty()
        )
    return schedules


def _group_apsp(schedules):
    members = sorted(schedules)
    return group_apsp(
        ReplicaGroup(
            owner=members[0], replicas=tuple(members[1:]), schedules=schedules
        )
    )


@st.composite
def weighted_apsps(draw):
    """An APSP over arbitrary edge weights (int or float, zero allowed,
    some pairs left unconnected) with arbitrary receiver measures —
    beyond what schedules produce, to cover every branch."""
    floats = draw(st.booleans())
    n = draw(st.integers(min_value=1, max_value=7))
    apsp = IncrementalAPSP()
    schedules = {}
    for node in range(n):
        weights = {}
        for other in apsp.nodes:
            if draw(st.booleans()):
                weights[other] = _endpoint(draw, 0, 2 * DAY_SECONDS, floats)
        apsp.insert(node, weights)
        if draw(st.integers(min_value=0, max_value=4)) == 0:
            schedules[node] = IntervalSet.empty()
        else:
            start = _endpoint(draw, 0, DAY_SECONDS - 2, floats)
            end = _endpoint(draw, 1, DAY_SECONDS, floats)
            schedules[node] = IntervalSet([(start, end)])
    return apsp, schedules


@settings(max_examples=200, deadline=None)
@given(member_schedules())
def test_random_groups(schedules):
    _assert_bounds_equal(_group_apsp(schedules), schedules)


@settings(max_examples=150, deadline=None)
@given(chains())
def test_multi_day_chains(schedules):
    _assert_bounds_equal(_group_apsp(schedules), schedules)


@settings(max_examples=200, deadline=None)
@given(weighted_apsps())
def test_arbitrary_weights(instance):
    apsp, schedules = instance
    _assert_bounds_equal(apsp, schedules)


@settings(max_examples=100, deadline=None)
@given(weighted_apsps())
def test_distances_are_symmetric(instance):
    """The one pass reads receiver ``j``'s column as row ``j``."""
    apsp, _ = instance
    for a in apsp.nodes:
        for b in apsp.nodes:
            assert apsp.distance(a, b) == apsp.distance(b, a)


class TestCases:
    """Fixed instances pinning each case the property tests draw."""

    def _chain(self, n, overlap):
        step = DAY_SECONDS // n
        return {
            m: IntervalSet(
                [(m * step, min(m * step + step + overlap, DAY_SECONDS))],
                wrap=False,
            )
            for m in range(n)
        }

    def test_multi_day_column_takes_the_per_pair_formula(self):
        schedules = self._chain(4, 60)
        apsp = _group_apsp(schedules)
        diameter, observed = apsp.delay_bounds_seconds(schedules)
        assert diameter >= 2 * DAY_SECONDS
        # The shortcut would cap every column at its measure.
        assert observed > max(s.measure for s in schedules.values())
        assert (diameter, observed) == _reference(apsp, schedules)

    def test_float_endpoints(self):
        schedules = self._chain(5, 100 / 7)
        _assert_bounds_equal(_group_apsp(schedules), schedules)

    def test_disconnected_pair_is_inf(self):
        schedules = {
            0: IntervalSet([(0, 3600)]),
            1: IntervalSet([(7200, 10800)]),
        }
        apsp = _group_apsp(schedules)
        assert apsp.delay_bounds_seconds(schedules) == (math.inf, math.inf)
        _assert_bounds_equal(apsp, schedules)

    def test_zero_measure_member(self):
        schedules = {0: IntervalSet([(0, 3600)]), 1: IntervalSet.empty()}
        _assert_bounds_equal(_group_apsp(schedules), schedules)
        apsp = IncrementalAPSP()
        apsp.insert(0, {})
        apsp.insert(1, {0: 1800})
        assert apsp.delay_bounds_seconds(schedules) == (1800, 1800)
        _assert_bounds_equal(apsp, schedules)

    def test_fewer_than_two_nodes(self):
        apsp = IncrementalAPSP()
        assert apsp.delay_bounds_seconds({}) == (0.0, 0.0)
        apsp.insert(0, {})
        schedules = {0: IntervalSet([(0, 3600)])}
        assert apsp.delay_bounds_seconds(schedules) == (0.0, 0.0)
        _assert_bounds_equal(apsp, schedules)
