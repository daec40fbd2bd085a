"""Power-performance trade-off exploration (paper Section IV-A).

Repeatedly solving the constrained LP while sweeping the constraint
bound traces the Pareto curve of the system (paper Figs. 6, 8b, 9a).
Theorem 4.1 proves the set of feasible (constraint, objective) pairs is
convex, so the curve is convex and non-increasing — both properties are
exposed as checkable predicates and exercised by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.costs import PENALTY, POWER
from repro.core.optimizer import OptimizationResult, PolicyOptimizer
from repro.core.policy import MarkovPolicy
from repro.util.validation import ValidationError

if TYPE_CHECKING:  # pragma: no cover - hints only, avoids a sim import cycle
    from repro.core.costs import CostModel
    from repro.core.pareto_sweep import SweepStats
    from repro.core.system import PowerManagedSystem
    from repro.sim.result import SimulationResult


@dataclass
class ParetoPoint:
    """One solved point of a trade-off curve.

    Attributes
    ----------
    bound:
        The swept constraint bound (per-slice average).
    feasible:
        Whether the LP was feasible at this bound.
    objective:
        Optimal per-slice average of the objective metric (``None`` when
        infeasible — the paper's ``f(c) = +inf`` convention).
    averages:
        Per-slice averages of every registered metric at the optimum.
    policy:
        The optimal policy at this bound.
    result:
        The full :class:`OptimizationResult` behind this point, when the
        point came from an actual solve (``None`` for points proved
        infeasible by bracketing without a solve of their own).
    """

    bound: float
    feasible: bool
    objective: float | None
    averages: dict[str, float] = field(default_factory=dict)
    policy: MarkovPolicy | None = None
    result: OptimizationResult | None = field(
        default=None, repr=False, compare=False
    )


@dataclass
class ParetoCurve:
    """A swept power-performance trade-off curve.

    Attributes
    ----------
    objective_metric / constraint_metric:
        Names of the metrics on the two axes.
    points:
        One :class:`ParetoPoint` per swept bound, in sweep order.
    stats:
        Solve accounting from the sweep engine (``None`` for hand-built
        curves); see :class:`repro.core.pareto_sweep.SweepStats`.
    """

    objective_metric: str
    constraint_metric: str
    points: list[ParetoPoint] = field(default_factory=list)
    stats: "SweepStats | None" = field(default=None, repr=False, compare=False)

    @property
    def feasible_points(self) -> list[ParetoPoint]:
        """Only the feasible points, in sweep order."""
        return [p for p in self.points if p.feasible]

    @property
    def bounds(self) -> np.ndarray:
        """Bounds of the feasible points."""
        return np.asarray([p.bound for p in self.feasible_points])

    @property
    def objectives(self) -> np.ndarray:
        """Optimal objective values of the feasible points."""
        return np.asarray([p.objective for p in self.feasible_points])

    @property
    def infeasible_bounds(self) -> np.ndarray:
        """Bounds at which the problem was infeasible."""
        return np.asarray([p.bound for p in self.points if not p.feasible])

    def _sorted_feasible_xy(self) -> tuple[np.ndarray, np.ndarray]:
        """Feasible (bound, objective) pairs sorted by bound.

        The shape predicates sort internally so hand-built curves with
        out-of-order appends are judged on the actual curve geometry
        rather than passing (or failing) vacuously on append order.
        """
        points = sorted(self.feasible_points, key=lambda p: p.bound)
        xs = np.asarray([p.bound for p in points])
        ys = np.asarray([p.objective for p in points])
        return xs, ys

    def is_non_increasing(self, tol: float = 1e-7) -> bool:
        """Objective never increases as the constraint is relaxed.

        Feasible points are sorted by bound internally, so the verdict
        does not depend on the order points were appended in.
        """
        _, objectives = self._sorted_feasible_xy()
        return bool(np.all(np.diff(objectives) <= tol))

    def is_convex(self, tol: float = 1e-7) -> bool:
        """Convexity of the trade-off curve (paper Theorem 4.1).

        Checks that every feasible point lies on or below the chord of
        its neighbours, after sorting feasible points by bound.
        """
        xs, ys = self._sorted_feasible_xy()
        if xs.size < 3:
            return True
        for i in range(1, xs.size - 1):
            span = xs[i + 1] - xs[i - 1]
            if span <= 0:
                continue
            t = (xs[i] - xs[i - 1]) / span
            chord = (1 - t) * ys[i - 1] + t * ys[i + 1]
            if ys[i] > chord + tol:
                return False
        return True


def trade_off_curve(
    optimizer: PolicyOptimizer,
    bounds: Sequence[float],
    objective: str = POWER,
    constraint: str = PENALTY,
    extra_upper_bounds: dict[str, float] | None = None,
    *,
    refine: int = 0,
) -> ParetoCurve:
    """Sweep ``constraint`` over ``bounds`` minimizing ``objective``.

    The sweep runs through :class:`~repro.core.pareto_sweep.ParetoSweepSolver`:
    the balance-equation block is assembled once, duplicate bounds
    (within tolerance) are solved once, the infeasible prefix is located
    by bisection instead of solved point by point, and warm-capable LP
    backends chain the previous bound's optimal basis into the next
    solve.

    Parameters
    ----------
    optimizer:
        A configured :class:`PolicyOptimizer` (or any optimizer exposing
        the same ``build_lp`` / ``result_from_lp`` surface, e.g.
        :class:`~repro.core.average_cost.AverageCostOptimizer`).
    bounds:
        Constraint bounds to sweep (sorted ascending and de-duplicated
        internally; the curve holds one point per *unique* bound).
    objective / constraint:
        Metric names for the two axes (defaults: minimum power versus a
        performance-penalty budget, the paper's PO2).
    extra_upper_bounds:
        Additional fixed per-slice bounds applied at every point (e.g. a
        request-loss budget, giving the three curves of paper Fig. 6).
    refine:
        Additionally bisect the ``refine`` largest objective gaps
        between adjacent feasible points, densifying the curve where it
        bends.

    Returns
    -------
    ParetoCurve
        One point per unique bound; infeasible bounds are kept with
        ``feasible=False`` so the infeasible region is visible.
    """
    from repro.core.pareto_sweep import ParetoSweepSolver

    solver = ParetoSweepSolver(
        optimizer,
        objective=objective,
        constraint=constraint,
        extra_upper_bounds=extra_upper_bounds,
    )
    return solver.solve(bounds, refine=refine)


def simulate_curve(
    curve: ParetoCurve,
    system: "PowerManagedSystem",
    costs: "CostModel",
    n_slices: int,
    rng=None,
    *,
    initial_state=None,
    n_replications: int = 1,
) -> list["list[SimulationResult] | None"]:
    """Verify a swept curve by simulating every feasible point's policy.

    This is the paper's "circles on the curve" check (Figs. 8b, 9a) as a
    single batched run: all feasible optimal policies go through
    :func:`repro.sim.engine.simulate_many`, which vectorizes them in one
    compiled batch (they are stationary by construction).

    Returns
    -------
    list
        Aligned with ``curve.points``: ``None`` for infeasible points,
        otherwise the list of ``n_replications`` simulation results for
        that point's policy.

    Raises
    ------
    ValidationError
        If a feasible point carries no policy.  Silently skipping such
        a point would make it indistinguishable from an infeasible one
        in the returned list.
    """
    from repro.sim.engine import simulate_many

    for i, p in enumerate(curve.points):
        if p.feasible and p.policy is None:
            raise ValidationError(
                f"curve point {i} (bound {p.bound!r}) is feasible but "
                f"carries no policy; simulate_curve cannot represent it "
                f"(it would be conflated with an infeasible point)"
            )
    positions = [i for i, p in enumerate(curve.points) if p.feasible]
    batched = simulate_many(
        system,
        costs,
        [curve.points[i].policy for i in positions],
        n_slices,
        rng,
        n_replications=n_replications,
        initial_state=initial_state,
    )
    results: list = [None] * len(curve.points)
    for position, replications in zip(positions, batched):
        results[position] = replications
    return results


def min_achievable(optimizer: PolicyOptimizer, metric: str) -> float:
    """Smallest attainable per-slice average of ``metric``.

    This is the boundary of the infeasible region the paper highlights
    in Fig. 6: no policy can push the average queue length below the
    value achieved by unconstrained minimization of the penalty.
    """
    result = optimizer.minimize_unconstrained(metric).require_feasible()
    return float(result.objective_average)
