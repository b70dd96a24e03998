"""Unit and property tests for the packed NumPy timeline kernels.

Every kernel in :mod:`repro.timeline.packed` carries an oracle-equivalence
contract against the scalar :class:`IntervalSet` scans; these tests check
it with exact equality — integer endpoints for the duration-sum kernels
(where the contract holds), arbitrary 1/7-second endpoints for the
comparison-only kernels (where it holds unconditionally).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.timeline import DAY_SECONDS, IntervalSet
from repro.timeline.packed import (
    BACKENDS,
    NUMPY,
    PYTHON,
    PackedSchedules,
    batch_contains,
    batch_wait_until,
    check_backend,
    creator_online_flags,
    endpoints_integral,
)


def _interval_sets(draw, *, integral, max_intervals=3, allow_wrap=True):
    """A random IntervalSet; integral endpoints or a 1/7-second grid."""
    pairs = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_intervals))):
        if integral:
            start = draw(st.integers(min_value=0, max_value=DAY_SECONDS - 1))
            length = draw(st.integers(min_value=1, max_value=10 * 3600))
        else:
            start = draw(st.integers(0, 7 * (DAY_SECONDS - 1))) / 7.0
            length = draw(st.integers(7, 7 * 10 * 3600)) / 7.0
        if allow_wrap:
            pairs.append((start, (start + length) % DAY_SECONDS))
        else:
            pairs.append((start, min(start + length, DAY_SECONDS)))
    return IntervalSet(pairs)


@st.composite
def integral_schedules(draw):
    """A users->IntervalSet mapping with integer endpoints (wraps split)."""
    n = draw(st.integers(min_value=0, max_value=6))
    return {u: _interval_sets(draw, integral=True) for u in range(n)}


@st.composite
def fractional_sets(draw):
    return _interval_sets(draw, integral=False)


class TestPackedStructure:
    def test_round_trip_rows(self):
        schedules = {
            5: IntervalSet([(10, 20), (30, 40)]),
            2: IntervalSet.empty(),
            9: IntervalSet.full_day(),
        }
        packed = PackedSchedules.from_schedules(schedules)
        assert packed.users == (5, 2, 9)  # insertion order preserved
        assert len(packed) == 3
        for user, sched in schedules.items():
            starts, ends = packed.row_slice(user)
            assert [tuple(p) for p in zip(starts, ends)] == list(
                sched.intervals
            )
        assert packed.row_index(5) == 0
        assert packed.row_index(404) == -1
        starts, ends = packed.row_slice(404)
        assert starts.size == 0 and ends.size == 0

    @given(schedules=integral_schedules())
    @settings(max_examples=50, deadline=None)
    def test_measures_match_scalar(self, schedules):
        packed = PackedSchedules.from_schedules(schedules)
        for i, u in enumerate(packed.users):
            assert packed.measures[i] == schedules[u].measure

    def test_exact_flag(self):
        assert PackedSchedules.from_schedules(
            {0: IntervalSet([(0, 3600)])}
        ).exact
        assert not PackedSchedules.from_schedules(
            {0: IntervalSet([(0.5, 3600)])}
        ).exact
        # An empty packing is (vacuously) exact.
        assert PackedSchedules.from_schedules({}).exact

    def test_endpoints_integral(self):
        assert endpoints_integral(IntervalSet([(0, 3600)]))
        assert endpoints_integral(IntervalSet.empty())
        assert not endpoints_integral(IntervalSet([(100.0, 3600.5)]))

    def test_check_backend(self):
        assert check_backend(PYTHON) == PYTHON
        assert check_backend(NUMPY) == NUMPY
        assert set(BACKENDS) == {PYTHON, NUMPY}
        with pytest.raises(ValueError):
            check_backend("cuda")


class TestOverlapKernels:
    @given(schedules=integral_schedules(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_overlap_row_equals_merge_scan(self, schedules, data):
        packed = PackedSchedules.from_schedules(schedules)
        assert packed.exact
        users = list(schedules) + [404]  # unknown user: never online
        a = data.draw(st.sampled_from(users)) if users else 404
        row = packed.overlap_row(a, users)
        empty = IntervalSet.empty()
        a_sched = schedules.get(a, empty)
        for u, got in zip(users, row):
            assert got == a_sched.overlap(schedules.get(u, empty))

    @given(schedules=integral_schedules(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_overlap_against_reference_set(self, schedules, data):
        packed = PackedSchedules.from_schedules(schedules)
        ref = data.draw(integral_schedules())
        reference = IntervalSet.union_all(ref.values())
        users = list(schedules)
        got = packed.overlap_against(reference, users)
        for u, value in zip(users, got):
            assert value == reference.overlap(schedules[u])

    def test_overlap_row_empty_cases(self):
        packed = PackedSchedules.from_schedules(
            {0: IntervalSet([(0, 3600)]), 1: IntervalSet.empty()}
        )
        assert packed.overlap_row(0, []).size == 0
        assert list(packed.overlap_row(1, [0, 1])) == [0.0, 0.0]
        assert list(packed.overlap_row(0, [1, 404])) == [0.0, 0.0]

    def test_full_day_and_wrap(self):
        wrap = IntervalSet([(23 * 3600, 3600)])  # 23:00-01:00, split
        schedules = {0: IntervalSet.full_day(), 1: wrap}
        packed = PackedSchedules.from_schedules(schedules)
        assert packed.overlap_row(0, [1])[0] == wrap.measure == 2 * 3600
        assert packed.overlap_row(1, [0])[0] == 2 * 3600


class TestPointKernels:
    @given(schedules=integral_schedules(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_count_points_matches_contains(self, schedules, data):
        packed = PackedSchedules.from_schedules(schedules)
        points = sorted(
            data.draw(
                st.lists(
                    st.integers(0, 7 * (DAY_SECONDS - 1)).map(lambda v: v / 7.0),
                    max_size=12,
                )
            )
        )
        users = list(schedules) + [404]
        counts = packed.count_points_in_rows(
            users, np.asarray(points, dtype=np.float64)
        )
        empty = IntervalSet.empty()
        for u, got in zip(users, counts):
            sched = schedules.get(u, empty)
            assert got == sum(1 for p in points if sched.contains(p))

    @given(sched=fractional_sets(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_batch_contains_and_wait(self, sched, data):
        instants = np.asarray(
            data.draw(
                st.lists(
                    st.integers(0, 7 * 3 * DAY_SECONDS).map(lambda v: v / 7.0),
                    max_size=12,
                )
            ),
            dtype=np.float64,
        )
        contains = batch_contains(sched, instants)
        waits = batch_wait_until(sched, instants)
        for t, c, w in zip(instants, contains, waits):
            assert bool(c) == sched.contains(t)
            assert w == sched.wait_until(t)  # inf for the empty set

    def test_boundary_semantics(self):
        sched = IntervalSet([(100, 200)], wrap=False)
        instants = np.asarray([99.0, 100.0, 199.0, 200.0])
        assert list(batch_contains(sched, instants)) == [
            False,
            True,
            True,
            False,
        ]
        assert list(batch_wait_until(sched, instants)) == [
            1.0,
            0.0,
            0.0,
            DAY_SECONDS - 200.0 + 100.0,
        ]

    def test_wait_on_empty_schedule_is_inf(self):
        waits = batch_wait_until(IntervalSet.empty(), np.asarray([0.0, 5.0]))
        assert all(math.isinf(w) for w in waits)

    def test_creator_online_flags(self):
        schedules = {
            1: IntervalSet([(0, 3600)]),
            2: IntervalSet([(7200, 10800)]),
        }
        packed = PackedSchedules.from_schedules(schedules)
        creators = [1, 2, 1, 3]
        instants = np.asarray([100.0, 100.0, 5000.0, 100.0])
        flags = creator_online_flags(packed, creators, instants)
        empty = IntervalSet.empty()
        want = [
            schedules.get(c, empty).contains(t)
            for c, t in zip(creators, instants)
        ]
        assert list(flags) == want


@st.composite
def fractional_schedules(draw):
    """A users->IntervalSet mapping on the 1/7-second grid (inexact)."""
    n = draw(st.integers(min_value=0, max_value=6))
    return {u: _interval_sets(draw, integral=False) for u in range(n)}


class TestPairKernels:
    """The row-set containment variant: one answer per aligned
    ``(user_i, instant_i)`` pair, oracle-equal to the scalar scan."""

    @given(schedules=fractional_schedules(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_contains_pairs_matches_scalar(self, schedules, data):
        # Comparison-only kernel: exact for ANY endpoints, so the
        # property must hold on fractional schedules too.
        packed = PackedSchedules.from_schedules(schedules)
        users = list(schedules) + [404]
        pairs = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(users),
                    st.integers(0, 7 * 3 * DAY_SECONDS).map(lambda v: v / 7.0),
                ),
                max_size=16,
            )
        )
        flags = packed.contains_pairs(
            [u for u, _ in pairs],
            np.asarray([t for _, t in pairs], dtype=np.float64),
        )
        empty = IntervalSet.empty()
        for (u, t), got in zip(pairs, flags):
            assert bool(got) == schedules.get(u, empty).contains(t)

    def test_empty_pair_batches(self):
        packed = PackedSchedules.from_schedules({0: IntervalSet([(0, 10)])})
        assert packed.contains_pairs([], np.asarray([])).shape == (0,)

    def test_all_empty_schedules(self):
        # Users exist but every row is empty: zero stored endpoints.
        packed = PackedSchedules.from_schedules(
            {0: IntervalSet.empty(), 1: IntervalSet.empty()}
        )
        flags = packed.contains_pairs([0, 1, 9], np.asarray([0.0, 5.0, 9.0]))
        assert list(flags) == [False, False, False]

    def test_creator_online_flags_routes_through_contains_pairs(self):
        # Same-creator repeats and t > DAY both hit the vectorised path.
        schedules = {1: IntervalSet([(0.5, 3600.5)])}
        packed = PackedSchedules.from_schedules(schedules)
        creators = [1, 1, 1, 2]
        instants = np.asarray(
            [100.0, DAY_SECONDS + 100.0, 3600.5, 100.0]
        )
        flags = creator_online_flags(packed, creators, instants)
        assert list(flags) == [True, True, False, False]
