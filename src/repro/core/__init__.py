"""Core library: the paper's stochastic model and exact policy optimization.

The public surface mirrors the paper's structure:

* :class:`~repro.core.components.ServiceProvider` (Definition 3.1),
  :class:`~repro.core.components.ServiceRequester` (Definition 3.2) and
  :class:`~repro.core.components.ServiceQueue` (Definition 3.3) —
  the three component models;
* :class:`~repro.core.system.PowerManagedSystem` — the Markov composer
  producing the joint controlled chain of Section III (Eq. 4);
* :class:`~repro.core.costs.CostModel` — power / performance-penalty /
  request-loss metrics over (state, command) pairs (Section III-B);
* :class:`~repro.core.policy.MarkovPolicy` — randomized Markov
  stationary policies with exact closed-form evaluation;
* :class:`~repro.core.optimizer.PolicyOptimizer` — the LP formulations
  of Appendix A (POU / PO1 / PO2, LP2 / LP3 / LP4) and policy extraction
  (Eq. 16);
* :class:`~repro.core.average_cost.AverageCostOptimizer` — the long-run
  average problem (Eq. 7) as an LP, sharing the discounted optimizer's
  assembly, extraction and entry points;
* :func:`~repro.core.pareto.trade_off_curve` — power-performance Pareto
  exploration (Section IV-A);
* :mod:`~repro.core.dynamic_programming` — value/policy iteration for
  the unconstrained problem, cross-validating the LP (Theorem A.1).
"""

from repro.core.average_cost import AverageCostOptimizer
from repro.core.components import (
    ServiceProvider,
    ServiceQueue,
    ServiceRequester,
    compose_requesters,
)
from repro.core.costs import (
    CostModel,
    sleep_while_busy_penalty,
    throughput_reward,
    waiting_time_penalty,
)
from repro.core.dynamic_programming import DPResult, policy_iteration, value_iteration
from repro.core.optimizer import (
    InfeasibleProblemError,
    OptimizationResult,
    PolicyOptimizer,
)
from repro.core.pareto import (
    ParetoCurve,
    ParetoPoint,
    min_achievable,
    simulate_curve,
    trade_off_curve,
)
from repro.core.pareto_sweep import ParetoSweepSolver, SweepStats
from repro.core.policy import MarkovPolicy, PolicyEvaluation, evaluate_policy
from repro.core.system import PowerManagedSystem, SystemState

__all__ = [
    "ServiceProvider",
    "ServiceRequester",
    "ServiceQueue",
    "compose_requesters",
    "PowerManagedSystem",
    "SystemState",
    "CostModel",
    "waiting_time_penalty",
    "throughput_reward",
    "sleep_while_busy_penalty",
    "MarkovPolicy",
    "PolicyEvaluation",
    "evaluate_policy",
    "PolicyOptimizer",
    "AverageCostOptimizer",
    "OptimizationResult",
    "InfeasibleProblemError",
    "ParetoCurve",
    "ParetoPoint",
    "ParetoSweepSolver",
    "SweepStats",
    "trade_off_curve",
    "simulate_curve",
    "min_achievable",
    "DPResult",
    "value_iteration",
    "policy_iteration",
]
