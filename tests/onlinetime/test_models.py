"""Tests for the three online-time models."""

import random

import pytest

from repro.datasets import Activity, ActivityTrace, Dataset
from repro.graph import SocialGraph
from repro.onlinetime import (
    DEFAULT_SESSION_SECONDS,
    FixedLengthModel,
    RandomLengthModel,
    SporadicModel,
    best_window_start,
    compute_schedules,
    make_model,
    model_names,
    user_rng,
)
from repro.timeline import DAY_SECONDS, HOUR_SECONDS, IntervalSet


def _dataset(activities):
    """Minimal two-user facebook dataset carrying the given activities."""
    g = SocialGraph()
    g.add_edge(1, 2)
    return Dataset("t", "facebook", g, ActivityTrace(activities))


def _act(t, creator=1, receiver=2):
    return Activity(timestamp=t, creator=creator, receiver=receiver)


class TestUserRng:
    def test_stable_per_user(self):
        assert user_rng(7, 1).random() == user_rng(7, 1).random()

    def test_differs_across_users_and_seeds(self):
        assert user_rng(7, 1).random() != user_rng(7, 2).random()
        assert user_rng(7, 1).random() != user_rng(8, 1).random()


class TestSporadic:
    def test_activity_instant_inside_session(self):
        ds = _dataset([_act(3 * HOUR_SECONDS)])
        model = SporadicModel()
        for seed in range(20):
            sched = model.schedule(1, ds, seed)
            assert sched.contains(3 * HOUR_SECONDS)
            assert sched.measure == DEFAULT_SESSION_SECONDS

    def test_sessions_union(self):
        # Two far-apart activities -> two disjoint sessions.
        ds = _dataset([_act(2 * HOUR_SECONDS), _act(14 * HOUR_SECONDS)])
        sched = SporadicModel().schedule(1, ds, 0)
        assert sched.measure == 2 * DEFAULT_SESSION_SECONDS

    def test_overlapping_sessions_merge(self):
        ds = _dataset([_act(3600), _act(3660)])  # one minute apart
        sched = SporadicModel().schedule(1, ds, 0)
        assert sched.measure < 2 * DEFAULT_SESSION_SECONDS

    def test_no_activity_means_never_online(self):
        ds = _dataset([_act(100, creator=1)])
        assert SporadicModel().schedule(2, ds, 0).is_empty

    def test_session_wrapping_midnight(self):
        ds = _dataset([_act(10)])  # just after midnight
        sched = SporadicModel(3600).schedule(1, ds, 0)
        assert sched.measure == pytest.approx(3600)
        assert sched.contains(10)

    def test_negative_start_wraps_past_midnight(self):
        # Regression: an activity just after midnight with a random offset
        # larger than its second-of-day gives a *negative* session start
        # (act.second_of_day - offset < 0).  IntervalSet must wrap that
        # session around midnight, keeping the full length and covering
        # both the end of the previous day and the start of this one.
        length = 3600.0
        ds = _dataset([_act(10)])
        wrapped = 0
        for seed in range(50):
            sched = SporadicModel(length).schedule(1, ds, seed)
            offset = user_rng(seed, 1).random() * length
            assert sched.measure == pytest.approx(length)
            assert sched.contains(10)
            if offset > 10:  # start was negative
                wrapped += 1
                start = (10 - offset) % DAY_SECONDS
                assert sched.contains(start + 1)  # tail of previous day
                assert sched.contains(0)  # midnight itself is covered
                assert not sched.contains(start - 1)
        assert wrapped > 0  # the regression path was actually exercised

    def test_custom_session_length(self):
        ds = _dataset([_act(7 * HOUR_SECONDS)])
        sched = SporadicModel(100).schedule(1, ds, 0)
        assert sched.measure == 100

    def test_multi_day_activities_project_to_one_day(self):
        ds = _dataset([_act(3600), _act(DAY_SECONDS + 3600)])
        sched = SporadicModel().schedule(1, ds, 0)
        # Both activities are at 01:00 of their day; sessions overlap there.
        assert sched.measure < 2 * DEFAULT_SESSION_SECONDS

    def test_validation(self):
        with pytest.raises(ValueError):
            SporadicModel(0)
        with pytest.raises(ValueError):
            SporadicModel(DAY_SECONDS + 1)

    def test_matches_second_of_day_sessions(self):
        # The schedule reads ``timestamp % DAY_SECONDS`` directly; it must
        # equal sessions built from ``second_of_day``, negative and
        # multi-day timestamps included, endpoint types too.
        times = [-0.25, -DAY_SECONDS - 7, 0, 10, 3 * DAY_SECONDS + 3599.5,
                 DAY_SECONDS - 1e-9, 45000.125, 45000.125]
        ds = _dataset([_act(t) for t in times])
        for length in (100, 1200.0, 7 * HOUR_SECONDS, DAY_SECONDS):
            for seed in range(5):
                rng = user_rng(seed, 1)
                sessions = []
                for act in ds.trace.created_by(1):
                    start = act.second_of_day - rng.random() * length
                    sessions.append((start, start + length))
                want = IntervalSet(sessions)
                got = SporadicModel(length).schedule(1, ds, seed)
                assert got == want
                assert [tuple(map(type, p)) for p in got] == [
                    tuple(map(type, p)) for p in want
                ]

    def test_deterministic_per_seed(self):
        ds = _dataset([_act(5000), _act(60000)])
        model = SporadicModel()
        assert model.schedule(1, ds, 3) == model.schedule(1, ds, 3)
        assert model.schedule(1, ds, 3) != model.schedule(1, ds, 4)


class TestBestWindowStart:
    def test_covers_cluster(self):
        instants = [100, 200, 300, 50000]
        start = best_window_start(instants, 1000)
        assert start == 100  # anchored at first point of the dense cluster

    def test_circular_cluster_across_midnight(self):
        instants = [DAY_SECONDS - 100, DAY_SECONDS - 50, 20, 40000]
        start = best_window_start(instants, 300)
        window_points = [
            p
            for p in instants
            if (p - start) % DAY_SECONDS <= 300
        ]
        assert len(window_points) == 3

    def test_empty_falls_back_to_evening(self):
        start = best_window_start([], 2 * HOUR_SECONDS)
        assert start == 19 * HOUR_SECONDS  # 20:00 centre - 1h

    def test_single_instant(self):
        assert best_window_start([42.0], 100) == 42.0

    @staticmethod
    def _two_pointer(instants, length):
        """The classic two-pointer sweep the bisection replaced."""
        if not instants:
            return (20 * HOUR_SECONDS - length / 2) % DAY_SECONDS
        points = sorted(x % DAY_SECONDS for x in instants)
        n = len(points)
        extended = points + [p + DAY_SECONDS for p in points]
        best_start, best_count = points[0], 0
        j = 0
        for i in range(n):
            if j < i:
                j = i
            while j < i + n and extended[j] <= points[i] + length:
                j += 1
            if j - i > best_count:
                best_count = j - i
                best_start = points[i]
        return best_start

    def test_matches_two_pointer_sweep(self):
        # Clustered, duplicated, integer, boundary and negative instants,
        # with lengths from zero to a full day: same start, same type,
        # the same earliest window on every tie.
        rng = random.Random(11)
        lengths = (0, 1, 100, 0.5, 2 * HOUR_SECONDS, 7.25 * HOUR_SECONDS,
                   DAY_SECONDS - 1, DAY_SECONDS)
        for trial in range(300):
            n = rng.randrange(1, 40)
            instants = []
            for _ in range(n):
                kind = rng.randrange(5)
                if kind == 0:
                    instants.append(rng.randrange(DAY_SECONDS))
                elif kind == 1:
                    instants.append(rng.choice((0, 0.0, DAY_SECONDS - 1e-9)))
                elif kind == 2 and instants:
                    instants.append(rng.choice(instants))
                elif kind == 3:
                    instants.append(rng.uniform(-3 * DAY_SECONDS, 0))
                else:
                    instants.append(rng.gauss(20 * HOUR_SECONDS, 3600))
            for length in lengths:
                got = best_window_start(instants, length)
                want = self._two_pointer(instants, length)
                assert type(got) is type(want)
                assert got == want, (trial, length)


class TestFixedLength:
    def test_measure_is_window_length(self):
        ds = _dataset([_act(10 * HOUR_SECONDS)])
        for hours in (2, 4, 6, 8):
            sched = FixedLengthModel(hours).schedule(1, ds, 0)
            assert sched.measure == hours * HOUR_SECONDS

    def test_window_covers_activity_majority(self):
        acts = [_act(14 * HOUR_SECONDS + i * 60) for i in range(10)]
        acts.append(_act(2 * HOUR_SECONDS))
        sched = FixedLengthModel(2).schedule(1, _dataset(acts), 0)
        assert sched.contains(14 * HOUR_SECONDS + 5 * 60)
        assert not sched.contains(2 * HOUR_SECONDS)

    def test_deterministic_no_seed_effect(self):
        ds = _dataset([_act(3600 * i) for i in range(1, 6)])
        model = FixedLengthModel(4)
        assert model.schedule(1, ds, 0) == model.schedule(1, ds, 99)

    def test_24h_window_is_full_day(self):
        ds = _dataset([_act(100)])
        assert FixedLengthModel(24).schedule(1, ds, 0).measure == DAY_SECONDS

    @pytest.mark.parametrize(
        "times",
        [
            # -1e-12 % DAY_SECONDS rounds to DAY_SECONDS itself; its second
            # of day must still anchor the earliest of the tied windows.
            [-1e-12, 50000],
            [-0.25, -DAY_SECONDS - 7, 10, 3 * DAY_SECONDS + 3599.5, 45000.125],
        ],
    )
    def test_matches_second_of_day_window(self, times):
        ds = _dataset([_act(t) for t in times])
        instants = [act.second_of_day for act in ds.trace.created_by(1)]
        for hours in (0.01, 2, 8):
            length = hours * HOUR_SECONDS
            start = best_window_start(instants, length)
            want = IntervalSet.from_interval(start, start + length)
            assert FixedLengthModel(hours).schedule(1, ds, 0) == want

    def test_validation(self):
        with pytest.raises(ValueError):
            FixedLengthModel(0)
        with pytest.raises(ValueError):
            FixedLengthModel(25)

    def test_name_carries_hours(self):
        assert FixedLengthModel(2).name == "fixedlength-2h"


class TestRandomLength:
    def test_length_in_range(self):
        ds = _dataset([_act(10 * HOUR_SECONDS)])
        model = RandomLengthModel()
        for seed in range(10):
            sched = model.schedule(1, ds, seed)
            assert 2 * HOUR_SECONDS <= sched.measure <= 8 * HOUR_SECONDS

    def test_lengths_vary_across_users(self):
        acts = [_act(3600, creator=1), _act(3600, creator=2, receiver=1)]
        ds = _dataset(acts)
        m = RandomLengthModel()
        lengths = {m.schedule(u, ds, 0).measure for u in (1, 2)}
        assert len(lengths) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomLengthModel(0, 8)
        with pytest.raises(ValueError):
            RandomLengthModel(9, 8)


class TestRegistry:
    def test_names(self):
        assert model_names() == [
            "explicit",
            "fixedlength",
            "randomlength",
            "sporadic",
        ]

    def test_make_model_with_kwargs(self):
        model = make_model("fixedlength", hours=2)
        assert isinstance(model, FixedLengthModel)
        assert model.hours == 2
        assert isinstance(make_model("SPORADIC"), SporadicModel)

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            make_model("diurnal")

    def test_describe(self):
        assert "2" in make_model("fixedlength", hours=2).describe()
        assert "sporadic" in make_model("sporadic").describe()
        assert "randomlength" in make_model("randomlength").describe()


class TestComputeSchedules:
    def test_covers_all_users(self):
        acts = [_act(3600 + i, creator=1) for i in range(3)]
        ds = _dataset(acts)
        schedules = compute_schedules(ds, SporadicModel(), seed=0)
        assert set(schedules) == {1, 2}
        assert schedules[2].is_empty

    def test_memoised_per_model_config_and_seed(self):
        ds = _dataset([_act(3600, creator=1)])
        first = compute_schedules(ds, SporadicModel(), seed=0)
        # Same config + seed returns the cached dict, even for a distinct
        # (but equivalent) model instance.
        assert compute_schedules(ds, SporadicModel(), seed=0) is first
        assert compute_schedules(ds, SporadicModel(), seed=1) is not first
        assert compute_schedules(ds, SporadicModel(600), seed=0) is not first
        assert compute_schedules(ds, FixedLengthModel(2), seed=0) is not first

    def test_cache_can_be_cleared(self):
        from repro.onlinetime import clear_schedule_cache

        ds = _dataset([_act(3600, creator=1)])
        first = compute_schedules(ds, SporadicModel(), seed=0)
        clear_schedule_cache(ds)
        fresh = compute_schedules(ds, SporadicModel(), seed=0)
        assert fresh is not first
        assert fresh == first  # same contents, recomputed


class TestPackedSchedules:
    def test_memoised_per_model_config_and_seed(self):
        from repro.onlinetime import packed_schedules

        ds = _dataset([_act(3600, creator=1)])
        first = packed_schedules(ds, SporadicModel(), seed=0)
        assert packed_schedules(ds, SporadicModel(), seed=0) is first
        assert packed_schedules(ds, SporadicModel(), seed=1) is not first
        assert packed_schedules(ds, SporadicModel(600), seed=0) is not first

    def test_matches_ad_hoc_packing(self):
        from repro.onlinetime import packed_schedules
        from repro.timeline.packed import PackedSchedules

        ds = _dataset([_act(3600 + i, creator=1) for i in range(4)])
        schedules = compute_schedules(ds, SporadicModel(), seed=2)
        memoised = packed_schedules(ds, SporadicModel(), seed=2)
        ad_hoc = PackedSchedules.from_schedules(schedules)
        for user in schedules:
            for mine, theirs in zip(
                memoised.row_slice(user), ad_hoc.row_slice(user)
            ):
                assert mine.tolist() == theirs.tolist()

    def test_clear_drops_both_memos(self):
        from repro.onlinetime import clear_schedule_cache, packed_schedules

        ds = _dataset([_act(3600, creator=1)])
        schedules = compute_schedules(ds, SporadicModel(), seed=0)
        packed = packed_schedules(ds, SporadicModel(), seed=0)
        clear_schedule_cache(ds)
        assert compute_schedules(ds, SporadicModel(), seed=0) is not schedules
        assert packed_schedules(ds, SporadicModel(), seed=0) is not packed
