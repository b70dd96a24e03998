"""Tests for the replica time-connectivity graph and delay metrics.

Includes the paper's own worked example (Fig. 1): three replicas v1, v2,
v3 where v1 overlaps v2 by d1 hours, v2 overlaps v3 by d2 hours, and v1
does not overlap v3 — the update propagation delay must come out at
48 − d1 − d2 hours.
"""

import math
import random

import pytest

from repro.core import (
    IncrementalAPSP,
    OverlapCache,
    ReplicaGroup,
    actual_propagation_delay_hours,
    connectivity_edges,
    group_apsp,
    is_connected,
    member_edge_weights,
    observed_propagation_delay_hours,
    shortest_path_lengths,
    unconrep_propagation_delay_hours,
)
from repro.timeline import DAY_SECONDS, HOUR_SECONDS, IntervalSet


def _hours(start, end):
    return IntervalSet([(start * HOUR_SECONDS, end * HOUR_SECONDS)])


def _group(owner_sched, replica_scheds):
    schedules = {0: owner_sched}
    replicas = []
    for i, sched in enumerate(replica_scheds, start=1):
        schedules[i] = sched
        replicas.append(i)
    return ReplicaGroup(owner=0, replicas=tuple(replicas), schedules=schedules)


class TestReplicaGroup:
    def test_members_include_owner_first(self):
        g = _group(_hours(0, 1), [_hours(1, 2)])
        assert g.members == (0, 1)
        assert g.replication_degree == 1

    def test_union_schedule(self):
        g = _group(_hours(0, 1), [_hours(2, 3)])
        assert g.union_schedule().measure == 2 * HOUR_SECONDS

    def test_missing_schedule_rejected(self):
        with pytest.raises(ValueError):
            ReplicaGroup(owner=0, replicas=(1,), schedules={0: _hours(0, 1)})

    def test_owner_listed_as_replica_rejected(self):
        with pytest.raises(ValueError):
            ReplicaGroup(
                owner=0, replicas=(0,), schedules={0: _hours(0, 1)}
            )


class TestConnectivityEdges:
    def test_edge_weight_is_day_minus_overlap(self):
        g = _group(_hours(0, 4), [_hours(2, 6)])  # overlap 2h
        edges = connectivity_edges(g)
        assert edges[0][1] == DAY_SECONDS - 2 * HOUR_SECONDS
        assert edges[1][0] == edges[0][1]

    def test_no_edge_without_overlap(self):
        g = _group(_hours(0, 2), [_hours(5, 7)])
        edges = connectivity_edges(g)
        assert edges[0] == {}
        assert edges[1] == {}


class TestShortestPaths:
    def test_direct_and_multi_hop(self):
        edges = {0: {1: 5.0}, 1: {0: 5.0, 2: 7.0}, 2: {1: 7.0}}
        dist = shortest_path_lengths(edges, 0)
        assert dist == {0: 0.0, 1: 5.0, 2: 12.0}

    def test_unreachable_is_inf(self):
        edges = {0: {}, 1: {}}
        dist = shortest_path_lengths(edges, 0)
        assert dist[1] == math.inf

    def test_prefers_cheaper_indirect_path(self):
        edges = {
            0: {1: 10.0, 2: 1.0},
            1: {0: 10.0, 2: 1.0},
            2: {0: 1.0, 1: 1.0},
        }
        dist = shortest_path_lengths(edges, 0)
        assert dist[1] == 2.0


class TestIsConnected:
    def test_chain_is_connected(self):
        g = _group(_hours(0, 3), [_hours(2, 5), _hours(4, 7)])
        assert is_connected(g)

    def test_disconnected_group(self):
        g = _group(_hours(0, 1), [_hours(10, 11)])
        assert not is_connected(g)

    def test_singleton_connected(self):
        g = _group(_hours(0, 1), [])
        assert is_connected(g)


class TestActualDelay:
    def test_paper_fig1_example(self):
        # v1 = owner [0,4], v2 [3,8] (d1 = 1h), v3 [7,10] (d2 = 1h),
        # v1 and v3 do not overlap.
        g = _group(_hours(0, 4), [_hours(3, 8), _hours(7, 10)])
        d1 = d2 = 1
        expected = 48 - d1 - d2
        assert actual_propagation_delay_hours(g) == pytest.approx(expected)

    def test_single_member_zero(self):
        assert actual_propagation_delay_hours(_group(_hours(0, 1), [])) == 0.0

    def test_two_members(self):
        g = _group(_hours(0, 4), [_hours(2, 6)])  # overlap 2h
        assert actual_propagation_delay_hours(g) == pytest.approx(22.0)

    def test_disconnected_is_inf(self):
        g = _group(_hours(0, 1), [_hours(10, 11)])
        assert actual_propagation_delay_hours(g) == math.inf

    def test_more_overlap_less_delay(self):
        small = _group(_hours(0, 4), [_hours(3, 7)])  # 1h overlap
        big = _group(_hours(0, 4), [_hours(1, 5)])  # 3h overlap
        assert actual_propagation_delay_hours(big) < actual_propagation_delay_hours(
            small
        )

    def test_triangle_uses_shortest_paths(self):
        # All three pairwise overlap 1h -> direct edges of 23h each; the
        # diameter is a single edge, not a 2-hop path.
        g = _group(
            _hours(0, 2),
            [_hours(1, 3), _hours(1.5, 2.5)],
        )
        assert actual_propagation_delay_hours(g) <= 23.5


class TestObservedDelay:
    def test_observed_leq_actual(self):
        g = _group(_hours(0, 4), [_hours(3, 8), _hours(7, 10)])
        assert observed_propagation_delay_hours(g) <= actual_propagation_delay_hours(
            g
        )

    def test_observed_counts_only_online_time(self):
        # Actual delay 22h; receiver online 4h/day -> observed at most 4h.
        g = _group(_hours(0, 4), [_hours(2, 6)])
        assert observed_propagation_delay_hours(g) <= 4.0
        assert observed_propagation_delay_hours(g) > 0.0

    def test_singleton_zero(self):
        assert observed_propagation_delay_hours(_group(_hours(0, 1), [])) == 0.0

    def test_disconnected_inf(self):
        g = _group(_hours(0, 1), [_hours(10, 11)])
        assert observed_propagation_delay_hours(g) == math.inf


class TestIncrementalAPSP:
    def _random_graph(self, rng, n):
        """Random symmetric positive weights with some edges missing."""
        weights = {}
        for i in range(n):
            for j in range(i):
                if rng.random() < 0.6:
                    weights[(i, j)] = rng.random() * 100.0 + 1.0
        return weights

    def test_matches_dijkstra_on_random_graphs(self):
        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(1, 8)
            weights = self._random_graph(rng, n)
            apsp = IncrementalAPSP()
            for i in range(n):
                apsp.insert(
                    i,
                    {j: w for (a, j), w in weights.items() if a == i},
                )
            edges = {i: {} for i in range(n)}
            for (i, j), w in weights.items():
                edges[i][j] = w
                edges[j][i] = w
            for src in range(n):
                dist = shortest_path_lengths(edges, src)
                for dst in range(n):
                    assert apsp.distance(src, dst) == pytest.approx(
                        dist[dst]
                    ) or (
                        apsp.distance(src, dst) == math.inf
                        and dist[dst] == math.inf
                    )

    def test_insertion_order_is_recorded(self):
        apsp = IncrementalAPSP()
        apsp.insert("b", {})
        apsp.insert("a", {"b": 3.0})
        assert apsp.nodes == ("b", "a")
        assert len(apsp) == 2
        assert apsp.distance("a", "b") == 3.0

    def test_duplicate_insert_rejected(self):
        apsp = IncrementalAPSP()
        apsp.insert(0, {})
        with pytest.raises(ValueError):
            apsp.insert(0, {})

    def test_new_node_bridges_old_components(self):
        # 0 and 1 start disconnected; 2 connects them with 1 + 2 = 3.
        apsp = IncrementalAPSP()
        apsp.insert(0, {})
        apsp.insert(1, {})
        assert apsp.distance(0, 1) == math.inf
        apsp.insert(2, {0: 1.0, 1: 2.0})
        assert apsp.distance(0, 1) == 3.0
        assert apsp.distance(1, 0) == 3.0
        assert apsp.diameter_seconds() == 3.0

    def test_diameter_trivial_cases(self):
        apsp = IncrementalAPSP()
        assert apsp.diameter_seconds() == 0.0
        apsp.insert(0, {})
        assert apsp.diameter_seconds() == 0.0

    def test_prefix_state_equals_rebuild(self):
        """The engine's bit-identity hinge: the state after k insertions
        must equal a from-scratch build over the first k nodes, exactly."""
        rng = random.Random(3)
        n = 7
        weights = self._random_graph(rng, n)
        running = IncrementalAPSP()
        for k in range(n):
            running.insert(
                k, {j: w for (a, j), w in weights.items() if a == k}
            )
            rebuilt = IncrementalAPSP()
            for i in range(k + 1):
                rebuilt.insert(
                    i, {j: w for (a, j), w in weights.items() if a == i}
                )
            for i in range(k + 1):
                for j in range(k + 1):
                    assert running.distance(i, j) == rebuilt.distance(i, j)

    def test_group_apsp_matches_connectivity_edges(self):
        g = _group(_hours(0, 4), [_hours(3, 8), _hours(7, 10)])
        apsp = group_apsp(g)
        edges = connectivity_edges(g)
        for src in g.members:
            dist = shortest_path_lengths(edges, src)
            for dst in g.members:
                assert apsp.distance(src, dst) == dist[dst]

    def test_member_edge_weights_skip_disjoint(self):
        g = _group(_hours(0, 4), [_hours(2, 6), _hours(10, 12)])
        cache = OverlapCache(g.schedules)
        weights = member_edge_weights(cache, 2, (0, 1))
        assert weights == {}  # replica 2 overlaps nobody
        weights = member_edge_weights(cache, 1, (0,))
        assert weights == {0: DAY_SECONDS - 2 * HOUR_SECONDS}


class TestOverlapCache:
    def test_matches_direct_overlap_and_memoizes(self):
        schedules = {0: _hours(0, 4), 1: _hours(2, 6)}
        cache = OverlapCache(schedules)
        direct = schedules[0].overlap(schedules[1])
        assert cache.overlap(0, 1) == direct
        assert cache.overlap(1, 0) == direct  # symmetric key
        assert len(cache._cache) == 1
        assert cache.overlaps(0, 1)

    def test_missing_user_counts_as_never_online(self):
        cache = OverlapCache({0: _hours(0, 4)})
        assert cache.overlap(0, 99) == 0.0
        assert not cache.overlaps(0, 99)
        assert cache.schedule_of(99).is_empty


class TestOverlapCacheEviction:
    def _schedules(self, n=8):
        return {u: _hours(u % 12, u % 12 + 4 + (u % 3)) for u in range(n)}

    def test_bounded_matches_unbounded_everywhere(self):
        schedules = self._schedules()
        unbounded = OverlapCache(schedules)
        bounded = OverlapCache(schedules, max_rows=2)
        users = sorted(schedules)
        for a in users:
            for b in users:
                assert bounded.overlap(a, b) == unbounded.overlap(a, b)
        assert len(bounded) <= 2
        assert bounded.evictions > 0
        assert unbounded.evictions == 0

    def test_evicted_then_refilled_entry_is_bit_identical(self):
        # The eviction-correctness regression: force an entry out, touch
        # enough other pairs to be sure it is gone, then re-ask — the
        # recomputed value must equal the original float bit for bit.
        schedules = self._schedules()
        cache = OverlapCache(schedules, max_rows=2)
        original = cache.overlap(0, 1)
        for a in range(2, 8):
            for b in range(a + 1, 8):
                cache.overlap(a, b)
        assert len(cache) == 2
        refilled = cache.overlap(0, 1)
        assert refilled == original
        assert refilled == schedules[0].overlap(schedules[1])

    def test_lru_order_recency_not_insertion(self):
        schedules = self._schedules(4)
        cache = OverlapCache(schedules, max_rows=2)
        cache.overlap(0, 1)
        cache.overlap(0, 2)
        cache.overlap(0, 1)  # touch: (0,1) is now most recent
        cache.overlap(0, 3)  # evicts (0,2), not (0,1)
        evictions = cache.evictions
        assert evictions == 1
        cache.overlap(0, 1)  # still resident: no new eviction
        assert cache.evictions == evictions

    def test_unbounded_default_has_no_lru_machinery(self):
        cache = OverlapCache(self._schedules(4))
        assert cache.max_rows is None
        assert type(cache._cache) is dict  # plain dict: zero overhead

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            OverlapCache(self._schedules(2), max_rows=0)


class TestUnconRepDelay:
    def test_sum_of_waits(self):
        # Owner online 4h (wait 20h), replica online 2h (wait 22h).
        g = _group(_hours(0, 4), [_hours(10, 12)])
        assert unconrep_propagation_delay_hours(g) == pytest.approx(42.0)

    def test_singleton_zero(self):
        assert unconrep_propagation_delay_hours(_group(_hours(0, 1), [])) == 0.0

    def test_never_online_member_inf(self):
        g = _group(_hours(0, 1), [IntervalSet.empty()])
        assert unconrep_propagation_delay_hours(g) == math.inf

    def test_unconrep_can_beat_conrep_when_disconnected(self):
        g = _group(_hours(0, 4), [_hours(10, 12)])
        assert actual_propagation_delay_hours(g) == math.inf
        assert unconrep_propagation_delay_hours(g) < math.inf

    def test_duplicate_maximum_wait_counted_twice(self):
        # Two members tie for the largest wait (22h each); the top-2 scan
        # must sum the duplicate, not pair the max with the third value.
        g = _group(_hours(0, 2), [_hours(5, 7), _hours(10, 14)])
        assert unconrep_propagation_delay_hours(g) == pytest.approx(44.0)

    def test_size_two_group_sums_both_waits(self):
        # Owner + one replica: exactly the two members' waits, regardless
        # of which is larger.
        g = _group(_hours(0, 6), [_hours(10, 12)])  # waits 18h, 22h
        assert unconrep_propagation_delay_hours(g) == pytest.approx(40.0)
        flipped = _group(_hours(10, 12), [_hours(0, 6)])
        assert unconrep_propagation_delay_hours(flipped) == pytest.approx(40.0)

    def test_matches_quadratic_pair_scan(self):
        # Reference oracle: the worst ordered pair of waits, O(n²).
        rng = random.Random(11)
        for _ in range(20):
            scheds = []
            for _ in range(rng.randint(1, 6)):
                start = rng.random() * 20
                scheds.append(_hours(start, start + rng.random() * 4))
            g = _group(scheds[0], scheds[1:])
            waits = [
                DAY_SECONDS - g.schedules[m].measure for m in g.members
            ]
            if len(waits) <= 1:
                expected = 0.0
            else:
                expected = max(
                    waits[i] + waits[j]
                    for i in range(len(waits))
                    for j in range(len(waits))
                    if i != j
                ) / HOUR_SECONDS
            assert unconrep_propagation_delay_hours(g) == pytest.approx(
                expected
            )
