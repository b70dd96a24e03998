"""Tests for the hosting-load fairness metrics (§II-B1)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.fairness import (
    FairnessReport,
    fairness_report,
    gini_coefficient,
    hosting_load,
    jain_index,
)


class TestHostingLoad:
    def test_counts_replica_assignments(self):
        placements = {1: (2, 3), 2: (3,), 3: ()}
        load = hosting_load(placements)
        assert load == {2: 1, 3: 2}

    def test_all_hosts_includes_idle(self):
        placements = {1: (2,)}
        load = hosting_load(placements, all_hosts=[1, 2, 3])
        assert load == {1: 0, 2: 1, 3: 0}

    def test_owner_self_placement_not_counted(self):
        load = hosting_load({1: (1, 2)})
        assert load == {2: 1}

    def test_empty(self):
        assert hosting_load({}) == {}


class TestJainIndex:
    def test_uniform_is_one(self):
        assert jain_index([3, 3, 3, 3]) == pytest.approx(1.0)

    def test_single_carrier_is_one_over_n(self):
        assert jain_index([10, 0, 0, 0]) == pytest.approx(0.25)

    def test_empty_and_zero(self):
        assert jain_index([]) == 1.0
        assert jain_index([0, 0]) == 1.0

    def test_tiny_loads_do_not_underflow(self):
        # Squares of these underflow to subnormals without rescaling.
        assert jain_index([2.7794623557583594e-160] * 2) == 1.0
        assert jain_index([5e-324, 0.0]) == pytest.approx(0.5)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=30))
    def test_bounds(self, values):
        j = jain_index(values)
        assert 0.0 <= j <= 1.0 + 1e-12

    @given(
        st.lists(st.floats(min_value=0.01, max_value=1e3), min_size=1, max_size=20),
        st.floats(min_value=0.01, max_value=100),
    )
    def test_scale_invariant(self, values, factor):
        assert jain_index(values) == pytest.approx(
            jain_index([v * factor for v in values])
        )


class TestGini:
    def test_equality_is_zero(self):
        assert gini_coefficient([5, 5, 5]) == pytest.approx(0.0)

    def test_concentration_near_one(self):
        g = gini_coefficient([100] + [0] * 99)
        assert g == pytest.approx(0.99, abs=0.01)

    def test_empty_and_zero(self):
        assert gini_coefficient([]) == 0.0
        assert gini_coefficient([0, 0]) == 0.0

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=30))
    def test_bounds(self, values):
        g = gini_coefficient(values)
        assert -1e-9 <= g < 1.0

    def test_known_value(self):
        # [0, 1]: Gini = 0.5 for two values.
        assert gini_coefficient([0, 1]) == pytest.approx(0.5)


class TestFairnessReport:
    def test_summary_fields(self):
        report = fairness_report({1: (2,), 2: (3,), 3: (2,)})
        assert report.num_hosts == 2  # hosts 2 and 3
        assert report.total_load == 3
        assert report.max_load == 2
        assert 0 < report.jain <= 1
        assert report.top_decile_share > 0

    def test_idle_hosts_lower_fairness(self):
        placements = {1: (2,)}
        without_idle = fairness_report(placements)
        with_idle = fairness_report(placements, all_hosts=range(1, 11))
        assert with_idle.jain < without_idle.jain

    def test_empty_placement(self):
        report = fairness_report({})
        assert report.num_hosts == 0
        assert report.jain == 1.0
        assert report.gini == 0.0
        assert report.mean_load == 0.0
