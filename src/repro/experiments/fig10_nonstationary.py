"""Fig. 10 — nonstationary workload: where the Markov assumption breaks.

Paper Example 7.1: a highly nonstationary workload is built by merging
two real-world traces with completely different statistics (a text
editing session and a C compile burst).  A *single* two-state Markov SR
is fitted to the whole trace, optimal policies are computed against
that model, and then simulated against the original trace — alongside
a timeout heuristic.

The paper's point, asserted as checks: "In some cases, timeout-based
shutdown outperforms stochastic control.  This is a situation where one
of our modeling assumptions is not valid ... Markovian policies may be
good but are not provably globally optimum."  Concretely we assert
that the fitted-model *predictions* mis-estimate the trace results (the
model is wrong), and that the best timeout point is competitive with —
within a few percent of or better than — some stochastic point at
comparable penalty, in contrast to the Markovian case of Fig. 9(b).
"""

from __future__ import annotations

import numpy as np

from repro.core.costs import PENALTY, POWER
from repro.core.optimizer import PolicyOptimizer
from repro.experiments import ExperimentResult
from repro.policies import StationaryPolicyAgent, TimeoutAgent
from repro.sim import make_rng
from repro.sim.trace_sim import simulate_trace
from repro.systems import cpu
from repro.traces import merge_traces, mmpp2_trace, periodic_burst_trace
from repro.util.tables import format_table

PENALTY_BOUNDS = (0.005, 0.01, 0.02, 0.04, 0.08)
TIMEOUTS = (0, 2, 5, 10, 20, 50)


def build_nonstationary_trace(n_slices: int, rng) -> "Trace":
    """An editing-like sparse segment followed by a compile-like burst.

    Mirrors Example 7.1: "The first trace presents alternating idle and
    active periods, while the second one has a long activity burst."
    """
    editing = mmpp2_trace(
        p_stay_idle=0.98,
        p_stay_busy=0.7,
        n_slices=n_slices // 2,
        resolution=cpu.TIME_RESOLUTION,
        rng=rng,
    )
    compiling = periodic_burst_trace(
        burst_length=max(n_slices // 4, 10),
        gap_length=max(n_slices // 40, 2),
        n_slices=n_slices - n_slices // 2,
        resolution=cpu.TIME_RESOLUTION,
    )
    return merge_traces([editing, compiling])


def run(quick: bool = False, seed: int = 0) -> ExperimentResult:
    """Regenerate Fig. 10."""
    rng = make_rng(seed)
    n_slices = 20_000 if quick else 100_000
    trace = build_nonstationary_trace(n_slices, rng)
    arrival_counts = trace.discretize(cpu.TIME_RESOLUTION)

    # One stationary two-state model for the whole nonstationary trace.
    bundle = cpu.build_from_trace(trace)
    system, costs = bundle.system, bundle.costs
    optimizer = PolicyOptimizer(
        system,
        costs,
        gamma=bundle.gamma,
        initial_distribution=bundle.initial_distribution,
        action_mask=bundle.action_mask,
    )
    model = bundle.metadata["sr_model"]

    # --- optimal (model-based) policies simulated on the real trace ---
    optimal_rows = []
    model_errors = []
    for bound in PENALTY_BOUNDS:
        result = optimizer.minimize_power(penalty_bound=float(bound))
        if not result.feasible:
            continue
        agent = StationaryPolicyAgent(system, result.policy)
        sim = simulate_trace(
            system,
            costs,
            agent,
            arrival_counts,
            rng,
            tracker=model.tracker(),
            initial_provider_state="active",
        )
        sim_power, sim_penalty = sim.averages[POWER], sim.averages[PENALTY]
        predicted_power = result.average(POWER)
        predicted_penalty = result.average(PENALTY)
        # Misprediction on either axis counts: the stationary model's
        # penalty estimate is the one the nonstationary trace breaks.
        model_errors.append(
            max(
                abs(sim_power - predicted_power) / max(predicted_power, 1e-9),
                abs(sim_penalty - predicted_penalty)
                / max(predicted_penalty, sim_penalty, 1e-9),
            )
        )
        optimal_rows.append((bound, predicted_power, sim_power, sim_penalty))

    # --- timeout heuristic on the same trace ---------------------------
    active = bundle.metadata["active_command"]
    sleep_cmd = bundle.metadata["sleep_command"]
    timeout_rows = []
    for timeout in TIMEOUTS:
        agent = TimeoutAgent(timeout, active, sleep_cmd)
        sim = simulate_trace(
            system,
            costs,
            agent,
            arrival_counts,
            rng,
            tracker=model.tracker(),
            initial_provider_state="active",
        )
        timeout_rows.append((timeout, sim.averages[PENALTY], sim.averages[POWER]))

    # --- the paper's qualitative claims --------------------------------
    # (1) The stationary model mispredicts the nonstationary trace.
    model_mispredicts = max(model_errors) > 0.05 if model_errors else False
    # (2) Timeout is competitive: some timeout point matches or beats a
    #     stochastic point on both axes (within 5% power).
    competitive = False
    for _, t_pen, t_pow in timeout_rows:
        for _, _, s_pow, s_pen in optimal_rows:
            if t_pen <= s_pen + 1e-3 and t_pow <= s_pow * 1.05:
                competitive = True

    checks = {
        "model_mispredicts_trace": model_mispredicts,
        "timeout_competitive_under_nonstationarity": competitive,
        "trace_is_nonstationary": _halves_differ(arrival_counts),
    }

    table_opt = format_table(
        ["penalty_bound", "power_model", "power_trace", "penalty_trace"],
        optimal_rows,
        title="Fig. 10 — stochastic policies: model prediction vs trace simulation",
    )
    table_timeout = format_table(
        ["timeout", "penalty_trace", "power_trace"],
        timeout_rows,
        title="Fig. 10 — timeout heuristic on the same nonstationary trace",
    )
    return ExperimentResult(
        experiment_id="fig10",
        title="Nonstationary workload breaks the Markov assumption (Fig. 10)",
        tables=[table_opt, table_timeout],
        data={
            "optimal": optimal_rows,
            "timeout": timeout_rows,
            "model_errors": model_errors,
        },
        checks=checks,
    )


def _halves_differ(counts: np.ndarray) -> bool:
    """The two halves of the trace have very different request rates."""
    half = counts.size // 2
    first = counts[:half].mean()
    second = counts[half:].mean()
    return bool(abs(first - second) > 0.2 * max(first, second, 1e-9))
