"""Tests for the Dynacache solver: optimal on concave curves, blind to
cliffs (by design -- it is the paper's failing baseline)."""

import pytest

from repro.allocation.dynacache import DynacacheSolver
from repro.common.errors import AllocationError
from repro.profiling.hrc import HitRateCurve


def concave(points, total=10000):
    return HitRateCurve.from_points(points, total)


class TestValidation:
    def test_bad_granularity(self):
        with pytest.raises(AllocationError):
            DynacacheSolver(granularity=0)

    def test_empty_queues(self):
        with pytest.raises(AllocationError):
            DynacacheSolver(10).allocate({}, {}, 100)

    def test_missing_frequency(self):
        curve = concave([(0, 0.0), (100, 0.9)])
        with pytest.raises(AllocationError):
            DynacacheSolver(10).allocate({"q": curve}, {}, 100)

    def test_infeasible_minimum(self):
        curve = concave([(0, 0.0), (100, 0.9)])
        with pytest.raises(AllocationError):
            DynacacheSolver(10, minimum=200).allocate(
                {"a": curve, "b": curve}, {"a": 1, "b": 1}, 100
            )


class TestConcaveOptimality:
    def test_equal_curves_split_evenly(self):
        curve = concave([(0, 0.0), (50, 0.5), (100, 0.8), (200, 0.9)])
        plan = DynacacheSolver(granularity=10).allocate(
            {"a": curve, "b": curve}, {"a": 100, "b": 100}, 200
        )
        assert plan.allocations["a"] == pytest.approx(
            plan.allocations["b"], abs=10
        )

    def test_hot_queue_wins_memory(self):
        curve = concave([(0, 0.0), (100, 0.5), (200, 0.75), (400, 0.9)])
        plan = DynacacheSolver(granularity=20).allocate(
            {"hot": curve, "cold": curve}, {"hot": 900, "cold": 100}, 400
        )
        assert plan.allocations["hot"] > plan.allocations["cold"]

    def test_weights_bias_allocation(self):
        curve = concave([(0, 0.0), (100, 0.5), (200, 0.75), (400, 0.9)])
        plan = DynacacheSolver(granularity=20).allocate(
            {"a": curve, "b": curve},
            {"a": 100, "b": 100},
            400,
            weights={"a": 10.0},
        )
        assert plan.allocations["a"] > plan.allocations["b"]

    def test_budget_fully_used(self):
        curve = concave([(0, 0.0), (100, 0.9)])
        plan = DynacacheSolver(granularity=10).allocate(
            {"a": curve, "b": curve}, {"a": 1, "b": 1}, 500
        )
        assert sum(plan.allocations.values()) == pytest.approx(500)

    def test_matches_water_filling_on_analytic_curves(self):
        """For h_a with twice the slope of h_b and equal frequency, the
        optimum saturates a first. Greedy must find it."""
        steep = concave([(0, 0.0), (100, 1.0)])
        shallow = concave([(0, 0.0), (200, 1.0)])
        plan = DynacacheSolver(granularity=5).allocate(
            {"steep": steep, "shallow": shallow},
            {"steep": 100, "shallow": 100},
            150,
        )
        assert plan.allocations["steep"] == pytest.approx(100, abs=5)
        assert plan.allocations["shallow"] == pytest.approx(50, abs=5)


    def test_expected_rate_reported(self):
        curve = concave([(0, 0.0), (100, 0.8)])
        plan = DynacacheSolver(10).allocate({"a": curve}, {"a": 10}, 100)
        assert plan.expected_hit_rates["a"] == pytest.approx(0.8)
        assert plan.expected_overall_hit_rate == pytest.approx(0.8)


class TestCliffBlindness:
    def test_starves_a_cliff_queue(self):
        """A queue whose curve is flat before a cliff gets nothing while
        a concave sink has positive gradient -- the application 19
        failure."""
        cliff = concave(
            [(0, 0.0), (100, 0.0), (190, 0.02), (200, 0.95), (300, 0.96)]
        )
        sink = concave([(0, 0.0), (1000, 0.6)])
        plan = DynacacheSolver(granularity=10).allocate(
            {"cliff": cliff, "sink": sink},
            {"cliff": 500, "sink": 500},
            400,
        )
        # The cliff queue never shows local gradient, so the solver
        # pours the budget into the sink and the cliff starves.
        assert plan.allocations["sink"] > plan.allocations["cliff"]
        assert plan.allocations["cliff"] < 200  # below the cliff top

    def test_leftover_spread_is_proportional(self):
        """Leftover after all curves flatten goes proportionally to
        granted memory, never rescuing an unfunded cliff."""
        flat = concave([(0, 0.0), (10, 0.5), (20, 0.5)])
        cliff = concave([(0, 0.0), (90, 0.0), (100, 0.9)])
        plan = DynacacheSolver(granularity=10).allocate(
            {"flat": flat, "cliff": cliff},
            {"flat": 100, "cliff": 100},
            300,
        )
        assert plan.allocations["cliff"] == pytest.approx(0, abs=1)
