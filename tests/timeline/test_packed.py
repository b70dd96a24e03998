"""Unit tests for the packed schedule layout.

:class:`PackedSchedules` is read row by row by the vectorized DES replay;
each row must hold exactly the user's canonical intervals, and unknown
users must read as never online.
"""

from repro.timeline import IntervalSet
from repro.timeline.packed import PackedSchedules


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
