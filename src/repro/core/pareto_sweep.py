"""Incremental Pareto sweep engine (the tool's curve factory).

The paper's headline artifacts (Figs. 6, 8b, 9a) are trade-off curves:
one constrained LP (LP3/LP4) per swept bound.  The naive loop re-solves
everything from scratch at every bound; this engine exploits the sweep
structure instead:

* **Assemble once** — the balance-equation block never changes along a
  sweep, so one :class:`~repro.lp.problem.LinearProgram` is built and
  only the swept constraint row's right-hand side is mutated per bound
  (:meth:`LinearProgram.set_inequality_rhs`).
* **Dedupe** — bounds equal within tolerance are solved once and share
  the solved point.
* **Feasibility bracketing** — feasibility is monotone in the bound
  (relaxing an upper bound can only grow the feasible set), so the
  frontier of the infeasible region is located by bisection over the
  sorted bounds; bounds on the infeasible side are marked without
  burning a full phase-1 solve each.
* **Warm starts** — on warm-capable LP backends (the from-scratch
  simplex) each solve chains the previous bound's optimal basis: the
  basis stays dual feasible under an RHS change, so a few dual-simplex
  pivots replace a cold two-phase solve.
* **Adaptive refinement** — ``refine=N`` bisects the ``N`` largest
  objective gaps between adjacent feasible points, densifying the curve
  where it bends most.

The engine is duck-typed over the optimizer: anything exposing
``build_lp`` / ``result_from_lp`` / ``bound_scale`` / ``backend`` /
``costs`` works — both
:class:`~repro.core.optimizer.PolicyOptimizer` (discounted, LP3/LP4)
and :class:`~repro.core.average_cost.AverageCostOptimizer` qualify.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from repro.core.costs import PENALTY, POWER
from repro.core.optimizer import OptimizationResult
from repro.core.pareto import ParetoCurve, ParetoPoint
from repro.lp.solve import solve_lp, supports_warm_start
from repro.util.validation import ValidationError

#: Relative tolerance for treating two swept bounds as equal: bounds
#: within ``DEDUPE_RTOL * max(1, |bound|)`` of each other collapse into
#: one solved point.
DEDUPE_RTOL = 1e-9

#: Refinement stops once the largest adjacent objective gap is below
#: this (absolute) — bisecting a flat curve adds nothing.
REFINE_GAP_TOL = 1e-12


@dataclass
class SweepStats:
    """Solve accounting for one :meth:`ParetoSweepSolver.solve` call.

    Attributes
    ----------
    n_requested / n_unique:
        Bounds passed in, and bounds left after tolerance-dedupe.
    n_solves:
        LP solves actually performed (including refinement solves).
    n_warm / n_cold:
        Split of ``n_solves`` into warm-started and cold solves (warm
        counts solves *attempted* with a warm basis; an unusable basis
        silently falls back inside the backend).
    n_deduped:
        Requested bounds that reused another bound's solve.
    n_bracket_skipped:
        Bounds proved infeasible by bracketing without their own solve.
    n_refined:
        Points added by adaptive refinement.
    lp_iterations / lp_refactorizations:
        Summed simplex pivots and basis refactorizations across every
        LP solve of the sweep, from ``LPResult.stats`` (0 on backends
        that report no stats).  This is the CLI's ``--profile`` data.
    """

    n_requested: int = 0
    n_unique: int = 0
    n_solves: int = 0
    n_warm: int = 0
    n_cold: int = 0
    n_deduped: int = 0
    n_bracket_skipped: int = 0
    n_refined: int = 0
    lp_iterations: int = 0
    lp_refactorizations: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view (for experiment/benchmark JSON payloads)."""
        return {
            "n_requested": self.n_requested,
            "n_unique": self.n_unique,
            "n_solves": self.n_solves,
            "n_warm": self.n_warm,
            "n_cold": self.n_cold,
            "n_deduped": self.n_deduped,
            "n_bracket_skipped": self.n_bracket_skipped,
            "n_refined": self.n_refined,
            "lp_iterations": self.lp_iterations,
            "lp_refactorizations": self.lp_refactorizations,
        }


class ParetoSweepSolver:
    """Incremental constrained-LP sweep producing a :class:`ParetoCurve`.

    Parameters
    ----------
    optimizer:
        A :class:`~repro.core.optimizer.PolicyOptimizer` (or any object
        with the same ``build_lp`` / ``result_from_lp`` surface).
    objective / constraint:
        Metric names for the two axes.
    constraint_sense:
        ``"<="`` sweeps an upper bound (paper PO2: penalty budget);
        ``">="`` sweeps a lower bound (e.g. the web server's minimum
        throughput, Fig. 9a).  Feasibility is monotone either way —
        infeasible *prefix* for ``"<="``, infeasible *suffix* for
        ``">="`` — and bracketing adapts.
    extra_upper_bounds:
        Fixed per-slice upper bounds applied at every point.
    n_jobs:
        Must be 1: the sweep is serial and warm-chained.  The keyword
        stays for callers that pass it.

    Examples
    --------
    >>> from repro.core.optimizer import PolicyOptimizer
    >>> from repro.systems import example_system
    >>> bundle = example_system.build()
    >>> opt = PolicyOptimizer(bundle.system, bundle.costs, gamma=bundle.gamma,
    ...                       initial_distribution=bundle.initial_distribution)
    >>> solver = ParetoSweepSolver(opt)
    >>> curve = solver.solve([0.3, 0.5, 0.5, 0.9])   # duplicate solved once
    >>> len(curve.points)
    3
    """

    def __init__(
        self,
        optimizer,
        objective: str = POWER,
        constraint: str = PENALTY,
        *,
        constraint_sense: str = "<=",
        extra_upper_bounds: dict[str, float] | None = None,
        n_jobs: int = 1,
    ):
        for attr in ("build_lp", "result_from_lp", "optimize"):
            if not callable(getattr(optimizer, attr, None)):
                raise ValidationError(
                    f"optimizer must expose {attr}(); got {type(optimizer).__name__}"
                )
        if constraint_sense not in ("<=", ">="):
            raise ValidationError(
                f"constraint_sense must be '<=' or '>=', got {constraint_sense!r}"
            )
        if n_jobs != 1:
            raise ValidationError(
                f"n_jobs must be 1, got {n_jobs}: the process fan-out was removed"
            )
        self._optimizer = optimizer
        self._objective = str(objective)
        self._constraint = str(constraint)
        self._sense = constraint_sense
        self._extra_upper = {
            str(k): float(v) for k, v in (extra_upper_bounds or {}).items()
        }
        self.stats = SweepStats()
        # Lazily-built shared LP (balance block assembled exactly once).
        self._lp = None
        self._row_index: int | None = None
        self._base_constraints: dict[str, tuple[str, float]] = {}

    # ------------------------------------------------------------------
    # shared-LP plumbing
    # ------------------------------------------------------------------
    def _ensure_lp(self) -> None:
        if self._lp is not None:
            return
        lp, recorded = self._optimizer.build_lp(
            self._objective, "min", upper_bounds=self._extra_upper or None
        )
        row = self._optimizer.costs.metric(self._constraint).reshape(-1)
        if self._sense == "<=":
            lp.add_inequality(row, 0.0)
        else:
            lp.add_lower_bound_inequality(row, 0.0)
        self._lp = lp
        self._row_index = lp.n_inequalities - 1
        self._base_constraints = recorded

    def _solve_bound(self, bound: float, warm=None):
        """One LP solve at ``bound``; returns (result, warm_state)."""
        self._ensure_lp()
        rhs = float(bound) * float(self._optimizer.bound_scale)
        if self._sense == ">=":
            rhs = -rhs  # lower bounds are stored as -row.x <= -rhs
        self._lp.set_inequality_rhs(self._row_index, rhs)
        use_warm = warm if supports_warm_start(self._optimizer.backend) else None
        lp_result = solve_lp(
            self._lp, backend=self._optimizer.backend, warm_start=use_warm
        )
        constraints = dict(self._base_constraints)
        constraints[self._constraint] = (self._sense, float(bound))
        result = self._optimizer.result_from_lp(
            lp_result, self._objective, constraints
        )
        self.stats.n_solves += 1
        if use_warm is not None:
            self.stats.n_warm += 1
        else:
            self.stats.n_cold += 1
        lp_stats = getattr(lp_result, "stats", None)
        if lp_stats:
            self.stats.lp_iterations += int(lp_stats.get("iterations", 0))
            self.stats.lp_refactorizations += int(
                lp_stats.get("refactorizations", 0)
            )
        return result, getattr(lp_result, "warm_start", None)

    # ------------------------------------------------------------------
    # the sweep
    # ------------------------------------------------------------------
    def solve(self, bounds: Sequence[float], *, refine: int = 0) -> ParetoCurve:
        """Sweep ``bounds`` and return the resulting curve.

        ``refine`` extra points are inserted by bisecting the largest
        objective gaps between adjacent feasible points.
        """
        requested = [float(b) for b in bounds]
        if not requested:
            raise ValidationError("bounds must contain at least one value")
        if any(not np.isfinite(b) for b in requested):
            raise ValidationError("bounds must be finite")
        refine = int(refine)
        if refine < 0:
            raise ValidationError(f"refine must be >= 0, got {refine}")

        self.stats = SweepStats(n_requested=len(requested))
        unique = self._dedupe(sorted(requested))
        self.stats.n_unique = len(unique)
        self.stats.n_deduped = len(requested) - len(unique)

        solved: dict[int, tuple[OptimizationResult, object]] = {}
        feasible_idx = self._bracket_frontier(unique, solved)
        self._solve_remaining(unique, feasible_idx, solved)

        curve = ParetoCurve(
            objective_metric=self._objective, constraint_metric=self._constraint
        )
        warm_by_bound: dict[float, object] = {}
        for i, bound in enumerate(unique):
            if i in solved:
                result, warm = solved[i]
                curve.points.append(self._point(bound, result))
                warm_by_bound[bound] = warm
            else:
                # Proved infeasible by bracketing, no solve of its own.
                curve.points.append(
                    ParetoPoint(bound=bound, feasible=False, objective=None)
                )
                self.stats.n_bracket_skipped += 1

        self._refine(curve, warm_by_bound, refine)
        curve.stats = replace(self.stats)
        return curve

    # ------------------------------------------------------------------
    # stages
    # ------------------------------------------------------------------
    def _dedupe(self, sorted_bounds: list[float]) -> list[float]:
        unique = [sorted_bounds[0]]
        for bound in sorted_bounds[1:]:
            scale = max(1.0, abs(unique[-1]))
            if abs(bound - unique[-1]) > DEDUPE_RTOL * scale:
                unique.append(bound)
        return unique

    def _bracket_frontier(
        self,
        unique: list[float],
        solved: dict[int, tuple[OptimizationResult, object]],
    ) -> list[int]:
        """Return the indices of possibly-feasible bounds.

        Feasibility is monotone along the sorted bounds — loosening the
        swept constraint only grows the feasible set — so a bisection
        over the *loose-to-tight* ordering finds the frontier.  Bounds
        solved along the way are recorded in ``solved``.

        Monotonicity only holds for *true* (in)feasibility, so the
        bisection trusts nothing but clean solver statuses: if any
        probe ends in a numerical error or iteration limit, bracketing
        aborts and every bound is solved individually, exactly like the
        cold loop.
        """
        from repro.lp.result import LPStatus

        k = len(unique)
        if self._sense == "<=":
            loose_to_tight = list(range(k - 1, -1, -1))
        else:
            loose_to_tight = list(range(k))
        if k == 1:
            return sorted(loose_to_tight)

        class _UnprovenStatus(Exception):
            pass

        # Probes chain the most recent *feasible* probe's basis: tightening
        # the RHS keeps that basis dual feasible, so the dual simplex either
        # re-optimizes in a few pivots or certifies infeasibility almost
        # immediately — far cheaper than a cold phase-1 proof.
        probe_warm: list[object] = [None]

        def feasible_at(position: int) -> bool:
            index = loose_to_tight[position]
            if index not in solved:
                solved[index] = self._solve_bound(
                    unique[index], warm=probe_warm[0]
                )
            result, warm = solved[index]
            status = getattr(result.lp_result, "status", None)
            if status not in (LPStatus.OPTIMAL, LPStatus.INFEASIBLE):
                raise _UnprovenStatus
            if result.feasible and warm is not None:
                probe_warm[0] = warm
            return result.feasible

        try:
            if not feasible_at(0):
                return []  # even the loosest bound is provably infeasible
            if feasible_at(k - 1):
                return sorted(loose_to_tight)  # no infeasible side at all
            lo, hi = 0, k - 1  # feasible at lo, infeasible at hi
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if feasible_at(mid):
                    lo = mid
                else:
                    hi = mid
            return sorted(loose_to_tight[: lo + 1])
        except _UnprovenStatus:
            return sorted(loose_to_tight)

    def _solve_remaining(
        self,
        unique: list[float],
        feasible_idx: list[int],
        solved: dict[int, tuple[OptimizationResult, object]],
    ) -> None:
        """Solve every possibly-feasible bound not already solved."""
        # Serial incremental pass: ascending bound order, chaining the
        # warm basis from the nearest already-solved neighbour.
        warm = None
        for i in sorted(set(feasible_idx)):
            if i in solved:
                warm = solved[i][1]
                continue
            solved[i] = self._solve_bound(unique[i], warm=warm)
            warm = solved[i][1]

    def _refine(
        self,
        curve: ParetoCurve,
        warm_by_bound: dict[float, object],
        refine: int,
    ) -> None:
        """Bisect the largest objective gaps between feasible points."""
        for _ in range(refine):
            feasible = sorted(curve.feasible_points, key=lambda p: p.bound)
            if len(feasible) < 2:
                return
            gaps = [
                abs(feasible[i].objective - feasible[i + 1].objective)
                for i in range(len(feasible) - 1)
            ]
            best = int(np.argmax(gaps))
            if gaps[best] <= REFINE_GAP_TOL:
                return
            left, right = feasible[best], feasible[best + 1]
            bound = 0.5 * (left.bound + right.bound)
            scale = max(1.0, abs(bound))
            if (
                abs(bound - left.bound) <= DEDUPE_RTOL * scale
                or abs(right.bound - bound) <= DEDUPE_RTOL * scale
            ):
                return  # the gap is too narrow to bisect meaningfully
            result, warm = self._solve_bound(
                bound, warm=warm_by_bound.get(left.bound)
            )
            warm_by_bound[bound] = warm
            point = self._point(bound, result)
            position = next(
                (i for i, p in enumerate(curve.points) if p.bound > bound),
                len(curve.points),
            )
            curve.points.insert(position, point)
            self.stats.n_refined += 1

    @staticmethod
    def _point(bound: float, result: OptimizationResult) -> ParetoPoint:
        if result.feasible:
            return ParetoPoint(
                bound=bound,
                feasible=True,
                objective=result.objective_average,
                averages=dict(result.evaluation.averages),
                policy=result.policy,
                result=result,
            )
        return ParetoPoint(
            bound=bound, feasible=False, objective=None, result=result
        )
