"""Tests for the deterministic fault injector."""

import pickle

import pytest

from repro.parallel.faults import (
    CHUNK_KINDS,
    CRASH,
    DISK_KINDS,
    ENOSPC,
    ERROR,
    FAULT_KINDS,
    HANG,
    POISON_QUERY,
    QUERY_KINDS,
    SLOW_IO,
    TORN_WRITE,
    FaultInjector,
    FaultRule,
    InjectedFault,
)


class TestFaultRule:
    def test_kind_validated(self):
        with pytest.raises(ValueError):
            FaultRule("explode")
        with pytest.raises(ValueError):
            FaultRule("shm-leak")  # nothing allocates shared memory

    def test_times_validated(self):
        with pytest.raises(ValueError):
            FaultRule(ERROR, times=0)
        FaultRule(ERROR, times=None)  # poison is legal

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            FaultRule(ERROR, probability=1.5)

    def test_item_matching(self):
        rule = FaultRule(ERROR, items=frozenset({7}))
        assert rule.matches([5, 6, 7], attempt=0, seed=0)
        assert not rule.matches([5, 6], attempt=0, seed=0)

    def test_any_chunk_matches_everything(self):
        rule = FaultRule(ERROR)
        assert rule.matches([1], attempt=0, seed=0)
        assert rule.matches([], attempt=0, seed=0)

    def test_times_bounds_attempts(self):
        rule = FaultRule(ERROR, times=2)
        assert rule.matches([1], attempt=0, seed=0)
        assert rule.matches([1], attempt=1, seed=0)
        assert not rule.matches([1], attempt=2, seed=0)

    def test_poison_faults_every_attempt(self):
        rule = FaultRule(ERROR, times=None)
        assert all(rule.matches([1], attempt=a, seed=0) for a in range(50))

    def test_probability_is_deterministic_in_seed(self):
        rule = FaultRule(ERROR, probability=0.5, times=None)
        draws_a = [rule.matches([i], 0, seed=3) for i in range(64)]
        draws_b = [rule.matches([i], 0, seed=3) for i in range(64)]
        assert draws_a == draws_b
        assert any(draws_a) and not all(draws_a)  # actually thinned
        draws_c = [rule.matches([i], 0, seed=4) for i in range(64)]
        assert draws_a != draws_c  # seed actually participates


class TestFaultInjector:
    def test_first_matching_rule_wins(self):
        injector = FaultInjector(
            rules=(
                FaultRule(CRASH, items=frozenset({1})),
                FaultRule(ERROR),
            )
        )
        assert injector.fault_for([1, 2], 0) == CRASH
        assert injector.fault_for([2, 3], 0) == ERROR
        assert injector.fault_for([2, 3], 1) is None

    def test_once_constructor(self):
        injector = FaultInjector.once(crash={1}, hang={2}, error={3})
        assert injector.fault_for([1], 0) == CRASH
        assert injector.fault_for([2], 0) == HANG
        assert injector.fault_for([3], 0) == ERROR
        assert injector.fault_for([4], 0) is None
        assert injector.fault_for([1], 1) is None  # once only

    def test_once_any_chunk(self):
        injector = FaultInjector.once(any_chunk=CRASH)
        assert injector.fault_for([99], 0) == CRASH
        assert injector.fault_for([99], 1) is None

    def test_poison_constructor(self):
        injector = FaultInjector.poison(ERROR, [5])
        assert all(injector.fault_for([5], a) == ERROR for a in range(10))
        assert injector.fault_for([6], 0) is None

    def test_random_faults_deterministic(self):
        a = FaultInjector.random_faults(seed=1, crash=0.3, error=0.3)
        b = FaultInjector.random_faults(seed=1, crash=0.3, error=0.3)
        plan_a = [a.fault_for([i], 0) for i in range(100)]
        plan_b = [b.fault_for([i], 0) for i in range(100)]
        assert plan_a == plan_b
        assert CRASH in plan_a and None in plan_a

    def test_error_fault_raises(self):
        injector = FaultInjector.once(error={1})
        with pytest.raises(InjectedFault):
            injector.apply([1], 0)
        injector.apply([1], 1)  # cleared after the first attempt

    def test_serial_path_ignores_crash_and_hang(self):
        # in_worker=False must never kill or stall the calling process.
        injector = FaultInjector.once(crash={1}, hang={2})
        injector.apply([1], 0, in_worker=False)
        injector.apply([2], 0, in_worker=False)
        with pytest.raises(InjectedFault):
            FaultInjector.once(error={3}).apply([3], 0, in_worker=False)

    def test_hang_seconds_validated(self):
        with pytest.raises(ValueError):
            FaultInjector(hang_seconds=0)

    def test_picklable(self):
        # The injector rides the pool initializer to worker processes.
        injector = FaultInjector.once(crash={1}, error={2}, seed=9)
        clone = pickle.loads(pickle.dumps(injector))
        assert clone == injector
        assert clone.fault_for([1], 0) == CRASH


class TestFaultSites:
    """Site-filtered dispatch: each injection site sees only its kinds."""

    def test_kind_taxonomy_partitions_fault_kinds(self):
        sites = CHUNK_KINDS + DISK_KINDS + QUERY_KINDS
        assert sorted(sites) == sorted(FAULT_KINDS)
        assert len(set(sites)) == len(sites)  # disjoint

    def test_fault_for_filters_by_site(self):
        injector = FaultInjector(
            rules=(
                FaultRule(TORN_WRITE, times=None),
                FaultRule(ERROR, times=None),
            )
        )
        # None = back-compat: every rule considered, first match wins.
        assert injector.fault_for([1], 0) == TORN_WRITE
        assert injector.fault_for([1], 0, CHUNK_KINDS) == ERROR
        assert injector.fault_for([1], 0, DISK_KINDS) == TORN_WRITE
        assert injector.fault_for([1], 0, QUERY_KINDS) is None

    def test_chunk_apply_ignores_disk_and_query_rules(self):
        injector = FaultInjector(
            rules=(
                FaultRule(TORN_WRITE, times=None),
                FaultRule(POISON_QUERY, times=None),
            )
        )
        injector.apply([1], 0)  # must not raise: wrong site

    def test_disk_fault_matches_on_cache_key(self):
        injector = FaultInjector(
            rules=(FaultRule(ENOSPC, items=frozenset({"deadbeef"}), times=1),)
        )
        assert injector.disk_fault("deadbeef", 0) == ENOSPC
        assert injector.disk_fault("deadbeef", 1) is None  # times=1
        assert injector.disk_fault("cafe", 0) is None

    def test_raise_enospc_is_a_real_oserror(self):
        import errno

        with pytest.raises(OSError) as info:
            FaultInjector().raise_enospc("/tmp/x")
        assert info.value.errno == errno.ENOSPC


class TestPoisonQueries:
    def test_times_one_poisons_only_the_primary_attempt(self):
        injector = FaultInjector.poison_queries([7], times=1)
        with pytest.raises(InjectedFault):
            injector.apply_query(7, 0)
        injector.apply_query(7, 1)  # fallback retry recovers
        injector.apply_query(8, 0)  # other users untouched

    def test_times_none_poisons_every_attempt(self):
        injector = FaultInjector.poison_queries([7])
        for attempt in range(3):
            with pytest.raises(InjectedFault):
                injector.apply_query(7, attempt)

    def test_poison_query_never_fires_at_the_chunk_site(self):
        injector = FaultInjector.poison_queries([7])
        injector.apply([7], 0)  # chunk site: inert
        assert injector.disk_fault("7", 0) is None


class TestDiskFaults:
    def test_constructor_builds_only_requested_rules(self):
        injector = FaultInjector.disk_faults(torn=1.0, slow=1.0)
        kinds = {rule.kind for rule in injector.rules}
        assert kinds == {TORN_WRITE, SLOW_IO}
        assert injector.disk_fault("k", 0) in (TORN_WRITE, SLOW_IO)

    def test_plan_is_deterministic_in_seed(self):
        a = FaultInjector.disk_faults(torn=0.4, enospc=0.4, seed=2)
        b = FaultInjector.disk_faults(torn=0.4, enospc=0.4, seed=2)
        keys = [f"key-{i}" for i in range(64)]
        plan_a = [a.disk_fault(k, 0) for k in keys]
        assert plan_a == [b.disk_fault(k, 0) for k in keys]
        assert any(plan_a) and None in plan_a

    def test_slow_io_seconds_rides_the_injector(self):
        injector = FaultInjector.disk_faults(slow=1.0, slow_io_seconds=0.2)
        assert injector.slow_io_seconds == 0.2
