"""End-to-end policy-optimization pipeline (paper Fig. 7).

``run_pipeline`` wires the full tool flow together:

1. **SR extractor** — discretize the request trace at the spec's time
   resolution and fit a k-memory Markov workload model;
2. **Markov composer** — compose SP x SR x SQ into the joint chain;
3. **LP solver / policy extractor** — solve the constrained LP and
   recover the randomized optimal policy (Eq. 16);
4. **Verification** — simulate the policy against the Markov model
   ("to check consistency") and against the raw trace ("to check the
   quality of the Markov model"), reporting both alongside the
   optimizer's analytic predictions.

``optimize_spec`` is the trace-less variant for specs that carry their
own requester model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.costs import OVERFLOW, PENALTY, POWER
from repro.core.optimizer import OptimizationResult, PolicyOptimizer
from repro.core.pareto import ParetoCurve
from repro.core.pareto_sweep import ParetoSweepSolver
from repro.policies.stochastic import StationaryPolicyAgent
from repro.sim.engine import SimulationResult, simulate
from repro.sim.trace_sim import simulate_trace
from repro.tool.spec import SystemSpec
from repro.traces.extractor import KMemoryModel, SRExtractor
from repro.traces.trace import Trace
from repro.util.tables import format_table
from repro.util.validation import ValidationError


@dataclass
class PipelineReport:
    """Everything the tool produced for one optimization run.

    Attributes
    ----------
    spec_name:
        The spec the run came from.
    optimization:
        The LP result: policy, frequencies, analytic metrics.
    sr_model:
        The extracted workload model (``None`` when the spec supplied
        its own requester).
    markov_simulation:
        Verification run against the Markov model (``None`` if skipped).
    trace_simulation:
        Verification run against the raw trace (``None`` if skipped or
        no trace was given).
    """

    spec_name: str
    optimization: OptimizationResult
    sr_model: KMemoryModel | None = None
    markov_simulation: SimulationResult | None = None
    trace_simulation: SimulationResult | None = None
    system_states: list[str] = field(default_factory=list, repr=False)

    def summary(self) -> str:
        """Human-readable run summary with the verification table.

        Both simulation columns show per-slice metric averages; the
        trace-sim column shows ``overflow`` as the requests the trace
        really lost per slice.
        """
        lines = [f"pipeline run for spec {self.spec_name!r}"]
        opt = self.optimization
        if not opt.feasible:
            lines.append("  INFEASIBLE under the given constraints")
            return "\n".join(lines)
        markov = self.markov_simulation.averages if self.markov_simulation else {}
        trace: dict[str, float] = {}
        if self.trace_simulation:
            # "overflow" is an expectation over the SR transition law, so
            # along the tracked states it is the model's prediction; show
            # what the trace really lost per slice instead.
            replay = self.trace_simulation
            trace = {**replay.averages, OVERFLOW: replay.lost / replay.n_slices}
        nan = float("nan")
        rows = [
            [metric, value, markov.get(metric, nan), trace.get(metric, nan)]
            for metric, value in sorted(opt.evaluation.averages.items())
        ]
        lines.append(
            format_table(
                ["metric", "analytic", "markov-sim", "trace-sim"],
                rows,
                title="per-slice averages",
            )
        )
        randomized = "randomized" if not opt.policy.is_deterministic else "deterministic"
        lines.append(f"  policy: {randomized}, {opt.policy.n_states} states")
        return "\n".join(lines)


def optimize_spec(
    spec: SystemSpec,
    backend: str = "scipy",
    formulation: str = "discounted",
) -> tuple[PolicyOptimizer, OptimizationResult]:
    """Solve the optimization a spec describes (spec-supplied requester).

    Parameters
    ----------
    formulation:
        ``"discounted"`` (paper Eq. 9, uses the spec's gamma and
        initial state) or ``"average"`` (paper Eq. 7, long-run average;
        gamma and initial state are ignored).
    """
    system, costs, p0 = spec.compose()
    optimizer = _make_optimizer(spec, system, costs, p0, backend, formulation)
    result = optimizer.optimize(
        spec.objective,
        "min",
        upper_bounds=spec.constraints,
        lower_bounds=spec.lower_constraints,
    )
    return optimizer, result


def _make_optimizer(spec, system, costs, p0, backend, formulation):
    if formulation == "discounted":
        return PolicyOptimizer(
            system,
            costs,
            gamma=spec.gamma,
            initial_distribution=p0,
            backend=backend,
        )
    if formulation == "average":
        from repro.core.average_cost import AverageCostOptimizer

        return AverageCostOptimizer(system, costs, backend=backend)
    raise ValidationError(
        f"unknown formulation {formulation!r}; use 'discounted' or 'average'"
    )


@dataclass
class SweepReport:
    """A spec-level Pareto sweep plus the objects needed to verify it.

    Attributes
    ----------
    curve:
        The swept :class:`~repro.core.pareto.ParetoCurve` (``curve.stats``
        carries the engine's solve accounting).
    optimizer / system / costs:
        The optimizer and composed system behind the sweep — kept so
        callers can simulate the curve's policies or solve follow-up
        points without recomposing the spec.
    """

    curve: ParetoCurve
    optimizer: PolicyOptimizer
    system: "object"
    costs: "object"


def sweep_tradeoff(
    spec: SystemSpec,
    bounds,
    objective: str = POWER,
    constraint: str = PENALTY,
    *,
    constraint_sense: str = "<=",
    extra_upper_bounds: dict[str, float] | None = None,
    refine: int = 0,
    backend: str = "scipy",
    formulation: str = "discounted",
) -> SweepReport:
    """Sweep a spec's trade-off curve through the incremental engine.

    Composes the spec, builds the optimizer for the requested
    ``formulation`` and runs a :class:`ParetoSweepSolver` sweep (bound
    dedupe, feasibility bracketing, warm-started incremental re-solves
    and optional ``refine`` densification).
    This is the CLI's ``pareto`` engine.
    """
    system, costs, p0 = spec.compose()
    optimizer = _make_optimizer(spec, system, costs, p0, backend, formulation)
    solver = ParetoSweepSolver(
        optimizer,
        objective=objective,
        constraint=constraint,
        constraint_sense=constraint_sense,
        extra_upper_bounds=extra_upper_bounds,
    )
    curve = solver.solve(bounds, refine=refine)
    return SweepReport(curve=curve, optimizer=optimizer, system=system, costs=costs)


def run_pipeline(
    spec: SystemSpec,
    trace: Trace | None = None,
    memory: int = 1,
    rng: np.random.Generator | None = None,
    verify_slices: int = 50_000,
    backend: str = "scipy",
    formulation: str = "discounted",
) -> PipelineReport:
    """Run the full Fig. 7 flow.

    Parameters
    ----------
    spec:
        The validated system description.
    trace:
        Request trace; required when the spec has no requester.  When
        given, the SR model is extracted from it and trace-driven
        verification is performed.
    memory:
        SR extractor memory ``k``.
    rng:
        Generator for the verification simulations; ``None`` disables
        them (pure optimization).
    verify_slices:
        Length of the Markov-driven verification run.
    backend:
        LP backend name (see :func:`repro.lp.solve_lp`).
    formulation:
        ``"discounted"`` (paper Eq. 9) or ``"average"`` (paper Eq. 7).
    """
    sr_model = None
    requester = spec.requester
    if trace is not None:
        sr_model = SRExtractor(memory=memory).fit_trace(trace, spec.time_resolution)
        requester = sr_model.to_requester()
    if requester is None:
        raise ValidationError(
            f"spec {spec.name!r} has no requester model and no trace was given"
        )

    from repro.core.components import ServiceQueue
    from repro.core.system import PowerManagedSystem

    system = PowerManagedSystem(
        spec.provider, requester, ServiceQueue(spec.queue_capacity)
    )
    costs = spec.costs_for(system)
    if spec.initial_state is None:
        p0 = system.uniform_distribution()
    else:
        provider_state, requester_state, queue = spec.initial_state
        # A spec initial state may name a requester state that does not
        # exist in a trace-extracted model; fall back to its first
        # (lowest-arrival-history) state.
        if str(requester_state) not in requester.state_names:
            requester_state = requester.state_names[0]
        p0 = system.point_distribution(provider_state, requester_state, int(queue))

    optimizer = _make_optimizer(spec, system, costs, p0, backend, formulation)
    result = optimizer.optimize(
        spec.objective,
        "min",
        upper_bounds=spec.constraints,
        lower_bounds=spec.lower_constraints,
    )
    report = PipelineReport(
        spec_name=spec.name,
        optimization=result,
        sr_model=sr_model,
        system_states=[str(state) for state in system.states],
    )
    if not result.feasible or rng is None:
        return report

    agent = StationaryPolicyAgent(system, result.policy)
    report.markov_simulation = simulate(system, costs, agent, int(verify_slices), rng)
    if trace is not None:
        report.trace_simulation = simulate_trace(
            system,
            costs,
            agent,
            trace.discretize(spec.time_resolution),
            rng,
            tracker=sr_model.tracker(),
        )
    return report
