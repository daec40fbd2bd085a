"""Fig. 8(b) — disk drive: optimal policies versus heuristics.

Reproduces the full comparison of Section VI-A:

* the *continuous line*: the Pareto curve of optimal policies (one
  constrained LP per performance bound);
* the *circles*: simulation of those same optimal policies (they must
  land on the analytic curve — the model-consistency check);
* *upward triangles*: deterministic greedy (eager) policies, one per
  inactive state — these are Markov stationary, so they are evaluated
  *exactly* and the dominance check against the curve is noise-free;
* *downward triangles*: timeout policies over a range of timeout values
  and target states (stateful, hence simulated);
* *boxes*: randomized-timeout policies (the heuristic rendition of
  randomized optimal policies).

Shape claims asserted: the optimal curve is convex and non-increasing;
simulated optimal policies land on it; no greedy policy beats it
(exact); no simulated heuristic beats it beyond Monte-Carlo noise.
"""

from __future__ import annotations

import numpy as np

from repro.core.costs import PENALTY, POWER
from repro.core.optimizer import PolicyOptimizer
from repro.core.pareto import min_achievable, simulate_curve, trade_off_curve
from repro.core.policy import evaluate_policy
from repro.experiments import ExperimentResult
from repro.policies import (
    RandomizedTimeoutAgent,
    TimeoutAgent,
    eager_markov_policy,
)
from repro.sim import simulate_many
from repro.systems import disk_drive
from repro.util.tables import format_table

#: Tolerances for the simulated "circles on the curve" check.  The disk
#: workload mixes slowly (idle periods of ~2000 slices, wakes of up to
#: 6000), so a finite run carries real Monte-Carlo error.
SIM_RTOL = 0.15
SIM_ATOL = 0.10

#: Margin for simulated-heuristic dominance: the heuristic's *penalty*
#: estimate is noisy too, so the optimal reference is taken at an
#: inflated penalty (the curve is non-increasing, making this lenient).
PENALTY_MARGIN = 2.0


def run(
    quick: bool = False,
    seed: int = 0,
    lp_backend: str = "scipy",
) -> ExperimentResult:
    """Regenerate Fig. 8(b): optimal curve, circles and heuristics.

    ``lp_backend`` picks the LP solver, forwarded from the CLI's
    ``experiment --lp-backend`` flag through the registry.
    """
    bundle = disk_drive.build()
    system, costs = bundle.system, bundle.costs
    optimizer = PolicyOptimizer(
        system,
        costs,
        gamma=bundle.gamma,
        initial_distribution=bundle.initial_distribution,
        backend=lp_backend,
    )
    n_slices = 60_000 if quick else 400_000

    # ------------------------------------------------------------------
    # The optimal trade-off curve, with bounds calibrated to the system.
    # ------------------------------------------------------------------
    floor = min_achievable(optimizer, PENALTY)
    cap = optimizer.minimize_unconstrained(POWER).require_feasible().average(PENALTY)
    bounds = list(np.geomspace(max(floor * 1.3, 1e-4), cap * 0.98, 8))
    # Full mode densifies the curve where it bends most (the sweep
    # engine bisects the largest objective gaps); quick mode keeps the
    # base grid so the check tolerances stay calibrated.
    curve = trade_off_curve(
        optimizer,
        bounds,
        objective=POWER,
        constraint=PENALTY,
        refine=0 if quick else 4,
    )

    xs = np.asarray([p.averages[PENALTY] for p in curve.feasible_points])
    ys = np.asarray([p.objective for p in curve.feasible_points])
    order = np.argsort(xs)
    xs, ys = xs[order], ys[order]

    # One batched, vectorized run simulates every optimal policy at once.
    circle_sims = simulate_curve(
        curve,
        system,
        costs,
        n_slices,
        seed,
        initial_state=("active", "0", 0),
    )
    circles = [sims[0] for sims in circle_sims if sims is not None]

    curve_rows = []
    sim_matches = []
    for point, sim in zip(curve.feasible_points, circles):
        # The circle (penalty_sim, power_sim) must land on the curve.
        expected = _interpolate_curve(xs, ys, sim.averages[PENALTY])
        sim_matches.append(_close(sim.averages[POWER], expected))
        curve_rows.append(
            (
                point.bound,
                point.averages[PENALTY],
                point.objective,
                sim.averages[PENALTY],
                sim.averages[POWER],
            )
        )

    # ------------------------------------------------------------------
    # Greedy (eager) heuristics: exact Markov evaluation.  The dominance
    # check is exact too — a fresh LP at the heuristic's own penalty
    # (chord interpolation between Pareto knots over-estimates a convex
    # curve, so it cannot serve as the reference).
    # ------------------------------------------------------------------
    active = bundle.metadata["active_command"]
    sleep_commands = bundle.metadata["sleep_commands"]
    greedy_rows = []
    greedy_above_curve = []
    for state, command in sleep_commands.items():
        policy = eager_markov_policy(system, active, command)
        evaluation = evaluate_policy(
            system, costs, policy, bundle.gamma, bundle.initial_distribution
        )
        penalty = evaluation.averages[PENALTY]
        power = evaluation.averages[POWER]
        optimal = optimizer.minimize_power(penalty_bound=penalty).require_feasible()
        optimal_power = optimal.average(POWER)
        greedy_above_curve.append(power >= optimal_power - 1e-7)
        greedy_rows.append((f"greedy->{state}", penalty, power, optimal_power))

    # ------------------------------------------------------------------
    # Timeout and randomized heuristics: simulated.
    # ------------------------------------------------------------------
    agents = []
    for timeout, state in [
        (20, "lpidle"),
        (100, "lpidle"),
        (200, "standby"),
        (1000, "standby"),
        (2000, "sleep"),
    ]:
        agents.append(
            (
                f"timeout({timeout})->{state}",
                TimeoutAgent(timeout, active, sleep_commands[state]),
            )
        )
    agents.append(
        (
            "randomized-timeout",
            RandomizedTimeoutAgent(
                timeouts=[20, 200, 2000],
                timeout_probabilities=[1 / 3, 1 / 3, 1 / 3],
                sleep_commands=[
                    sleep_commands["lpidle"],
                    sleep_commands["standby"],
                    sleep_commands["sleep"],
                ],
                sleep_probabilities=[1 / 3, 1 / 3, 1 / 3],
                active_command=active,
            ),
        )
    )

    heuristic_sims = simulate_many(
        system,
        costs,
        [agent for _, agent in agents],
        n_slices,
        seed + 1,
        initial_state=("active", "0", 0),
    )
    simulated_rows = []
    simulated_above = []
    for (name, _), sims in zip(agents, heuristic_sims):
        sim = sims[0]
        penalty = sim.averages[PENALTY]
        power = sim.averages[POWER]
        # Exact optimal power at an inflated penalty (lenient: both the
        # heuristic's penalty and power estimates carry sampling error).
        reference_result = optimizer.minimize_power(
            penalty_bound=penalty * PENALTY_MARGIN + SIM_ATOL
        ).require_feasible()
        reference = reference_result.average(POWER)
        simulated_above.append(power >= reference * (1.0 - SIM_RTOL) - SIM_ATOL)
        simulated_rows.append((name, penalty, power, reference))

    # ------------------------------------------------------------------
    # Checks and report.
    # ------------------------------------------------------------------
    loosest = curve.feasible_points[-1]
    deep = [sleep_commands["standby"], sleep_commands["sleep"]]
    deep_usage = float(loosest.policy.matrix[:, deep].sum())
    checks = {
        "curve_non_increasing": curve.is_non_increasing(),
        "curve_convex": curve.is_convex(tol=1e-6),
        "simulation_on_curve": sum(sim_matches) >= len(sim_matches) - 1,
        "greedy_never_beats_optimal_exact": all(greedy_above_curve),
        "simulated_heuristics_never_beat_optimal": all(simulated_above),
        "savings_available": loosest.objective < 0.7 * 2.5,
        "deep_states_used": deep_usage > 0.0,
    }

    table_curve = format_table(
        ["penalty_bound", "penalty", "power_opt", "penalty_sim", "power_sim"],
        curve_rows,
        title="Fig. 8(b) — optimal trade-off curve (line) and simulation (circles)",
    )
    table_greedy = format_table(
        ["policy", "penalty", "power", "power_opt_at_penalty"],
        greedy_rows,
        title="Fig. 8(b) — greedy policies, exact evaluation (upward triangles)",
    )
    table_sim = format_table(
        ["policy", "penalty_sim", "power_sim", "optimal_reference"],
        simulated_rows,
        title="Fig. 8(b) — timeout and randomized policies (downward triangles, boxes)",
    )
    return ExperimentResult(
        experiment_id="fig8",
        title="Disk drive: optimal vs heuristic power management (Fig. 8b)",
        tables=[table_curve, table_greedy, table_sim],
        data={
            "curve": curve_rows,
            "greedy": greedy_rows,
            "simulated_heuristics": simulated_rows,
            "penalty_floor": floor,
            "sweep_stats": curve.stats.as_dict(),
        },
        checks=checks,
    )


def _close(simulated: float, analytic: float) -> bool:
    return abs(simulated - analytic) <= SIM_RTOL * abs(analytic) + SIM_ATOL


def _interpolate_curve(xs: np.ndarray, ys: np.ndarray, penalty: float) -> float:
    """Optimal power at a given penalty (clamped linear interpolation)."""
    if penalty <= xs[0]:
        return float(ys[0])
    if penalty >= xs[-1]:
        return float(ys[-1])
    return float(np.interp(penalty, xs, ys))
