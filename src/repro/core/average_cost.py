"""Average-cost policy optimization (paper Eq. 7, solved directly).

The paper first writes policy optimization as a *long-run average*
problem (Eq. 7) and then replaces it with the discounted finite-window
formulation (Eq. 9) for computability.  The average-cost problem is,
however, also an LP for finite unichain MDPs (Puterman, Ch. 8/9, the
paper's reference [22]):

    min   sum_{s,a} c(s, a) x[s, a]
    s.t.  sum_a x[j, a] - sum_{s,a} P^a[s, j] x[s, a] = 0   for all j
          sum_{s,a} x[s, a] = 1
          x >= 0

where ``x`` is now a stationary state-action *distribution* rather than
discounted expected counts; metric constraints are direct per-slice
bounds with no horizon scaling.  Compared to the discounted LP this
formulation

* needs no discount factor or initial distribution, and
* cannot exploit the end-of-session accounting (sleeping into the trap
  state) that the paper acknowledges as a small model error — the
  ablation benchmark ``bench_ablation_formulations`` quantifies the
  difference.

For unichain models (every stationary policy has a single recurrent
class — true of all the case studies, whose SR mixes every state) the
LP optimum is the optimal average cost over all policies.
"""

from __future__ import annotations

import numpy as np

from repro.core.costs import CostModel
from repro.core.optimizer import OptimizationResult, _FrequencyLP
from repro.core.policy import PolicyEvaluation
from repro.core.system import PowerManagedSystem
from repro.lp.problem import LinearProgram


class AverageCostOptimizer(_FrequencyLP):
    """Long-run average policy optimization (the paper's Eq. 7).

    Shares :class:`~repro.core.optimizer.PolicyOptimizer`'s LP core and
    entry points (``optimize`` / ``minimize_power`` /
    ``minimize_penalty``) but all metrics are long-run per-slice
    averages of the stationary policy — no discount factor and no
    initial distribution enter the problem.

    Parameters
    ----------
    system / costs:
        The composed system and its metrics.
    backend:
        LP backend name (see :func:`repro.lp.solve_lp`).
    fallback:
        Completion rule for states with zero stationary probability
        (see :class:`PolicyOptimizer`).
    action_mask:
        Optional boolean availability mask over (state, command).
    sparse:
        Balance-block representation: ``True`` CSR end to end,
        ``False`` dense, ``None`` (default) auto by problem size (see
        :class:`PolicyOptimizer`).

    Examples
    --------
    >>> from repro.systems import example_system
    >>> from repro.core.average_cost import AverageCostOptimizer
    >>> bundle = example_system.build()
    >>> opt = AverageCostOptimizer(bundle.system, bundle.costs)
    >>> res = opt.minimize_power(penalty_bound=0.5, loss_bound=0.2)
    >>> res.feasible
    True
    """

    def __init__(
        self,
        system: PowerManagedSystem,
        costs: CostModel,
        backend: str = "scipy",
        fallback: str = "greedy-service",
        action_mask=None,
        sparse: bool | None = None,
    ):
        # The average-cost balance equations are the gamma = 1 case.
        super().__init__(
            system, costs, 1.0, backend, fallback, action_mask, sparse
        )

    @property
    def bound_scale(self) -> float:
        """Per-slice bounds enter the average-cost LP unscaled."""
        return 1.0

    def build_lp(
        self,
        objective: str,
        sense: str = "min",
        upper_bounds: dict[str, float] | None = None,
        lower_bounds: dict[str, float] | None = None,
    ) -> tuple[LinearProgram, dict[str, tuple[str, float]]]:
        """Assemble the average-cost LP without solving it.

        Same contract as :meth:`PolicyOptimizer.build_lp`, with a zero
        balance RHS and the normalization row ``sum(x) == 1`` placed
        before the mask row.
        """
        n, n_a = self._system.n_states, self._system.n_commands
        # One balance row per state is redundant with normalization
        # (rows sum to zero); keep all — the backends drop dependencies.
        return self._assemble(
            objective,
            sense,
            upper_bounds,
            lower_bounds,
            np.zeros(n),
            extra_equalities=((np.ones(n * n_a), 1.0),),
        )

    def result_from_lp(
        self,
        lp_result,
        objective: str,
        constraints: dict[str, tuple[str, float]],
    ) -> OptimizationResult:
        """Turn a raw LP solve into an :class:`OptimizationResult`."""
        return self._extract(
            lp_result,
            objective,
            constraints,
            1.0,
            lambda _, frequencies: self._evaluate(frequencies),
        )

    def _evaluate(self, frequencies: np.ndarray) -> PolicyEvaluation:
        """Package the stationary distribution as a PolicyEvaluation.

        ``frequencies`` is the LP's stationary state-action distribution
        itself; averages are direct inner products and totals coincide
        with averages (per-slice accounting, infinite horizon).
        """
        occupancy = frequencies.sum(axis=1)
        averages = {
            name: self._costs.evaluate(name, frequencies)
            for name in self._costs.metric_names
        }
        return PolicyEvaluation(
            gamma=1.0,
            expected_horizon=float("inf"),
            occupancy=occupancy,
            frequencies=frequencies.copy(),
            totals=dict(averages),
            averages=averages,
        )
