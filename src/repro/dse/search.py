"""Constrained search over the design space (paper Section 3.6).

The paper's DSE solves a constrained optimization problem: find the
allocation of area/power (and the discrete technology choices) that
minimizes the execution time of a given workload under a fixed resource
budget, using a gradient-descent style search.  Because the continuous part
of our space is low-dimensional (two area fractions plus one power
fraction), a numerical-gradient coordinate descent with shrinking step sizes
is both simple and robust; discrete dimensions are handled by enumerating
the design-space grid as starting points.

Each objective evaluation is cached per design point for the whole search, so
a probe revisited from a later iteration or starting point costs nothing, and
an infeasible point is recorded as infinitely expensive.
"""

from __future__ import annotations

import dataclasses
import logging
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ReproError, SearchError
from .space import DesignPoint, DesignSpace

logger = logging.getLogger(__name__)

#: Objective: maps a design point to a cost (seconds); lower is better.
Objective = Callable[[DesignPoint], float]


@dataclasses.dataclass(frozen=True)
class EvaluationRecord:
    """One cached objective evaluation.

    Attributes:
        cost: Objective value; infinity for infeasible points.
        error: The library error that made the point infeasible, if any.
    """

    cost: float
    error: Optional[str] = None

    @property
    def feasible(self) -> bool:
        """Whether the evaluation produced a finite cost."""
        return self.error is None and self.cost != float("inf")


@dataclasses.dataclass(frozen=True)
class SearchResult:
    """Outcome of one design-space search.

    Attributes:
        best_point: The best feasible design point found.
        best_cost: Its objective value (execution time in seconds).
        evaluations: Number of objective evaluations performed.
        history: ``(cost, point)`` pairs recorded after each improvement.
    """

    best_point: DesignPoint
    best_cost: float
    evaluations: int
    history: Tuple[Tuple[float, DesignPoint], ...] = ()

    def summary(self) -> Dict[str, object]:
        """Flat summary for reports."""
        return {
            "best_cost": self.best_cost,
            "evaluations": self.evaluations,
            "technology_node": self.best_point.technology_node,
            "dram_technology": self.best_point.dram_technology,
            "inter_node_network": self.best_point.inter_node_network,
            "compute_area_fraction": round(self.best_point.compute_area_fraction, 3),
            "l2_area_fraction": round(self.best_point.l2_area_fraction, 3),
        }


class GradientDescentSearch:
    """Coordinate descent with numerical gradients over the continuous knobs.

    Attributes:
        space: The design space providing bounds and clipping.
        initial_step: Initial step size applied to the area fractions.
        min_step: Search terminates once the step shrinks below this value.
        max_iterations: Hard cap on descent iterations per starting point.

    Every iteration evaluates all (at most six) gradient probes and moves to
    the best strictly-improving one, or halves the step when none improves.
    """

    def __init__(
        self,
        space: DesignSpace,
        initial_step: float = 0.10,
        min_step: float = 0.01,
        max_iterations: int = 40,
    ):
        self.space = space
        self.initial_step = initial_step
        self.min_step = min_step
        self.max_iterations = max_iterations

    # -- internals --------------------------------------------------------------

    def _evaluate(
        self, objective: Objective, point: DesignPoint, cache: Dict[DesignPoint, EvaluationRecord]
    ) -> float:
        # DesignPoint is frozen and hashable, so it keys the cache directly;
        # infeasible points are recorded structurally instead of via string
        # sentinels, keeping the evaluation count honest.
        record = cache.get(point)
        if record is None:
            try:
                record = EvaluationRecord(cost=float(objective(point)))
            except ReproError as error:
                # Only the library's own errors mark a point infeasible; a
                # genuine bug in the objective (TypeError, ...) still raises.
                logger.debug("design point %s infeasible: %s", point.label, error)
                record = EvaluationRecord(cost=float("inf"), error=str(error))
            cache[point] = record
        return record.cost

    def _descend(
        self,
        objective: Objective,
        start: DesignPoint,
        cache: Dict[DesignPoint, EvaluationRecord],
    ) -> Tuple[DesignPoint, float, List[Tuple[float, DesignPoint]]]:
        point = self.space.clip(start)
        cost = self._evaluate(objective, point, cache)
        history: List[Tuple[float, DesignPoint]] = [(cost, point)]
        step = self.initial_step
        knobs = ("compute_area_fraction", "l2_area_fraction", "compute_power_fraction")
        iteration = 0
        while step >= self.min_step and iteration < self.max_iterations:
            iteration += 1
            probes = []
            for knob in knobs:
                current_value = getattr(point, knob)
                for direction in (+1.0, -1.0):
                    candidate = self.space.clip(point.perturbed(**{knob: current_value + direction * step}))
                    if candidate != point:
                        probes.append(candidate)
            best_candidate: Optional[DesignPoint] = None
            best_cost = cost
            for candidate in probes:
                candidate_cost = self._evaluate(objective, candidate, cache)
                if candidate_cost < best_cost:
                    best_candidate, best_cost = candidate, candidate_cost
            if best_candidate is not None:
                point, cost = best_candidate, best_cost
                history.append((cost, point))
            else:
                step /= 2.0
        return point, cost, history

    # -- public API ----------------------------------------------------------------

    def search(
        self,
        objective: Objective,
        starting_points: Optional[List[DesignPoint]] = None,
    ) -> SearchResult:
        """Run the search and return the best feasible design point.

        Args:
            objective: Cost function; may raise a :class:`~repro.errors.ReproError`
                (e.g. :class:`~repro.errors.MemoryCapacityError`) for
                infeasible points, which are treated as infinitely expensive.
                Any other exception type is considered a bug in the objective
                and propagates.
            starting_points: Starting points (defaults to a coarse grid over
                the discrete choices of the space).

        Raises:
            SearchError: When no feasible point is found.
        """
        cache: Dict[DesignPoint, EvaluationRecord] = {}
        starts = starting_points if starting_points is not None else self.space.grid(fraction_steps=2)
        if not starts:
            raise SearchError("no starting points to search from")
        best_point: Optional[DesignPoint] = None
        best_cost = float("inf")
        full_history: List[Tuple[float, DesignPoint]] = []
        for start in starts:
            if not self.space.contains(start):
                continue
            point, cost, history = self._descend(objective, start, cache)
            full_history.extend(history)
            if cost < best_cost:
                best_point, best_cost = point, cost
        evaluations = len(cache)
        if best_point is None or best_cost == float("inf"):
            raise SearchError("design-space search found no feasible design point")
        return SearchResult(
            best_point=best_point,
            best_cost=best_cost,
            evaluations=evaluations,
            history=tuple(full_history),
        )
