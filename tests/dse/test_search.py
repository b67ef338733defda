"""Tests for the gradient-descent design-space search."""

import pytest

from repro.dse.search import EvaluationRecord, GradientDescentSearch
from repro.dse.space import DesignPoint, DesignSpace
from repro.errors import MemoryCapacityError, SearchError


def _quadratic_objective(optimum_compute=0.7, optimum_l2=0.1):
    """A smooth objective minimized at a known allocation."""

    def objective(point: DesignPoint) -> float:
        return (point.compute_area_fraction - optimum_compute) ** 2 + (point.l2_area_fraction - optimum_l2) ** 2 + 1.0

    return objective


def test_search_finds_known_optimum():
    space = DesignSpace(technology_nodes=("N7",), dram_technologies=("HBM2E",), inter_node_networks=("NDR-x8",))
    search = GradientDescentSearch(space, initial_step=0.2, min_step=0.005)
    result = search.search(_quadratic_objective(), starting_points=[DesignPoint(compute_area_fraction=0.4)])
    assert result.best_point.compute_area_fraction == pytest.approx(0.7, abs=0.05)
    assert result.best_cost == pytest.approx(1.0, abs=0.02)
    assert result.evaluations > 5
    assert result.history


def test_fixed_descent_path_is_pinned():
    """One descent, pinned to the values it reads: probes are evaluated in the
    order they are generated, each once per search."""
    space = DesignSpace(technology_nodes=("N7",), dram_technologies=("HBM2E",), inter_node_networks=("NDR-x8",))
    search = GradientDescentSearch(space, initial_step=0.2, min_step=0.005)
    start = DesignPoint(compute_area_fraction=0.45, l2_area_fraction=0.25)
    result = search.search(_quadratic_objective(optimum_compute=0.65, optimum_l2=0.15), starting_points=[start])
    best = result.best_point
    assert (best.compute_area_fraction, best.l2_area_fraction, best.compute_power_fraction) == (0.65, 0.15, 0.65)
    assert result.best_cost == 1.0
    assert result.evaluations == 45
    assert len(result.history) == 3
    assert result.summary() == {
        "best_cost": 1.0,
        "evaluations": 45,
        "technology_node": "N7",
        "dram_technology": "HBM2E",
        "inter_node_network": "NDR-x8",
        "compute_area_fraction": 0.65,
        "l2_area_fraction": 0.15,
    }


def test_search_respects_bounds():
    space = DesignSpace(
        technology_nodes=("N7",),
        dram_technologies=("HBM2E",),
        inter_node_networks=("NDR-x8",),
        area_fraction_bounds=(0.3, 0.6),
    )
    search = GradientDescentSearch(space)
    result = search.search(_quadratic_objective(optimum_compute=0.9))
    assert result.best_point.compute_area_fraction <= 0.6 + 1e-9


def test_search_skips_infeasible_points():
    space = DesignSpace(technology_nodes=("N7",), dram_technologies=("HBM2E",), inter_node_networks=("NDR-x8",))

    def objective(point: DesignPoint) -> float:
        if point.compute_area_fraction > 0.55:
            raise MemoryCapacityError("infeasible")
        return 10.0 - point.compute_area_fraction

    result = GradientDescentSearch(space).search(objective, starting_points=[DesignPoint(compute_area_fraction=0.4)])
    assert result.best_point.compute_area_fraction <= 0.55
    assert result.best_cost < 10.0


def test_search_all_infeasible_raises():
    space = DesignSpace(technology_nodes=("N7",), dram_technologies=("HBM2E",), inter_node_networks=("NDR-x8",))

    def objective(point: DesignPoint) -> float:
        raise MemoryCapacityError("never feasible")

    with pytest.raises(SearchError):
        GradientDescentSearch(space).search(objective, starting_points=[DesignPoint()])


def test_search_propagates_objective_bugs():
    """Non-library exceptions are bugs in the objective, not infeasibility."""
    space = DesignSpace(technology_nodes=("N7",), dram_technologies=("HBM2E",), inter_node_networks=("NDR-x8",))

    def objective(point: DesignPoint) -> float:
        raise TypeError("a genuine bug")

    with pytest.raises(TypeError):
        GradientDescentSearch(space).search(objective, starting_points=[DesignPoint()])


def test_evaluate_caches_by_design_point_hash():
    """Repeated evaluations of an equal point hit the structured cache."""
    space = DesignSpace(technology_nodes=("N7",), dram_technologies=("HBM2E",), inter_node_networks=("NDR-x8",))
    search = GradientDescentSearch(space)
    calls = []

    def objective(point: DesignPoint) -> float:
        calls.append(point)
        return 1.0

    cache = {}
    point = DesignPoint(compute_area_fraction=0.5)
    twin = DesignPoint(compute_area_fraction=0.5)
    assert search._evaluate(objective, point, cache) == 1.0
    assert search._evaluate(objective, twin, cache) == 1.0
    assert len(calls) == 1
    assert cache[point] == EvaluationRecord(cost=1.0)


def test_infeasible_points_do_not_pollute_evaluation_count():
    space = DesignSpace(technology_nodes=("N7",), dram_technologies=("HBM2E",), inter_node_networks=("NDR-x8",))
    search = GradientDescentSearch(space)
    cache = {}

    def objective(point: DesignPoint) -> float:
        raise MemoryCapacityError("does not fit")

    point = DesignPoint()
    assert search._evaluate(objective, point, cache) == float("inf")
    assert len(cache) == 1
    assert not cache[point].feasible
    assert cache[point].error is not None


def test_search_without_starting_points_raises():
    space = DesignSpace(technology_nodes=("N7",), dram_technologies=("HBM2E",), inter_node_networks=("NDR-x8",))
    with pytest.raises(SearchError):
        GradientDescentSearch(space).search(_quadratic_objective(), starting_points=[])


def test_starting_points_outside_the_space_are_skipped():
    space = DesignSpace(technology_nodes=("N7",), dram_technologies=("HBM2E",), inter_node_networks=("NDR-x8",))
    search = GradientDescentSearch(space, initial_step=0.2, min_step=0.005)
    inside = DesignPoint(compute_area_fraction=0.45, l2_area_fraction=0.25)
    outside = DesignPoint(technology_node="N3", compute_area_fraction=0.65, l2_area_fraction=0.15)
    objective = _quadratic_objective(optimum_compute=0.65, optimum_l2=0.15)
    assert search.search(objective, starting_points=[outside, inside]) == search.search(
        objective, starting_points=[inside]
    )
    with pytest.raises(SearchError):
        search.search(objective, starting_points=[outside])


def test_history_records_each_improvement():
    space = DesignSpace(technology_nodes=("N7",), dram_technologies=("HBM2E",), inter_node_networks=("NDR-x8",))
    search = GradientDescentSearch(space, initial_step=0.2, min_step=0.005)
    objective = _quadratic_objective()
    result = search.search(objective, starting_points=[DesignPoint(compute_area_fraction=0.4)])
    costs = [cost for cost, _ in result.history]
    assert costs == sorted(costs, reverse=True)
    assert len(set(costs)) == len(costs)  # each entry strictly improves on the last
    assert all(objective(point) == cost for cost, point in result.history)
    assert result.history[-1] == (result.best_cost, result.best_point)
