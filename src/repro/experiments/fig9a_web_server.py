"""Fig. 9(a) — web server: power vs throughput trade-off.

Sweeps the minimum-throughput requirement for the dual-processor web
server, computing minimum power at each level (the paper's solid line)
and simulating each optimal policy (the circles).

The paper's analysis finding is asserted as a check: "the processor
with higher performance was never used alone" — P2 burns 2x the power
of P1 for only 1.5x the throughput, so the optimal policies put
(essentially) no stationary probability on the P2-only configuration.
"""

from __future__ import annotations

import numpy as np

from repro.core.costs import POWER
from repro.core.optimizer import PolicyOptimizer
from repro.core.pareto import simulate_curve
from repro.core.pareto_sweep import ParetoSweepSolver
from repro.experiments import ExperimentResult
from repro.systems import web_server
from repro.util.tables import format_table

#: Swept minimum expected delivered throughput (per-slice average).
THROUGHPUT_BOUNDS = (0.02, 0.05, 0.08, 0.11, 0.14, 0.17, 0.20)

#: Simulated-vs-analytic agreement tolerances.
SIM_RTOL = 0.12
SIM_ATOL = 0.05


def run(
    quick: bool = False,
    seed: int = 0,
    lp_backend: str = "scipy",
) -> ExperimentResult:
    """Regenerate Fig. 9(a).

    ``lp_backend`` selects the LP solver (forwarded from the CLI
    through the experiment registry).
    """
    bundle = web_server.build()
    system, costs = bundle.system, bundle.costs
    optimizer = PolicyOptimizer(
        system,
        costs,
        gamma=bundle.gamma,
        initial_distribution=bundle.initial_distribution,
        backend=lp_backend,
    )
    n_slices = 40_000 if quick else 200_000

    p2_index = system.provider.chain.state_index("p2")
    sp_of = system.provider_index_of_state

    # The sweep engine handles the lower-bound sweep directly
    # (``constraint_sense=">="``: tightening as the bound grows, so the
    # infeasible side — if any — is the suffix); all optimal policies
    # are then verified in one vectorized batch.
    solver = ParetoSweepSolver(
        optimizer,
        objective=POWER,
        constraint="throughput",
        constraint_sense=">=",
    )
    curve = solver.solve(THROUGHPUT_BOUNDS)
    sims = simulate_curve(
        curve,
        system,
        costs,
        n_slices,
        seed,
        initial_state=("both", "0", 0),
    )

    rows = []
    powers = []
    sim_matches = []
    p2_alone_usage = []
    feasible_bounds = []
    for point, point_sims in zip(curve.points, sims):
        bound = point.bound
        if not point.feasible:
            rows.append((bound, float("nan"), float("nan"), float("nan")))
            continue
        feasible_bounds.append(bound)
        powers.append(point.objective)
        # Discounted share of time spent in the P2-only configuration.
        occupancy = point.result.evaluation.frequencies.sum(axis=1)
        share = float(occupancy[sp_of == p2_index].sum() * (1.0 - bundle.gamma))
        p2_alone_usage.append(share)

        sim_power = point_sims[0].averages[POWER]
        sim_matches.append(
            abs(sim_power - point.objective)
            <= SIM_RTOL * abs(point.objective) + SIM_ATOL
        )
        rows.append(
            (
                bound,
                point.objective,
                point.averages["throughput"],
                sim_power,
            )
        )

    powers_arr = np.asarray(powers)
    checks = {
        "all_bounds_feasible": len(feasible_bounds) == len(THROUGHPUT_BOUNDS),
        "power_non_decreasing_in_throughput": bool(
            np.all(np.diff(powers_arr) >= -1e-9)
        ),
        "simulation_matches": sum(sim_matches) >= len(sim_matches) - 1,
        # The paper's headline analysis result.
        "fast_processor_never_alone": all(u <= 1e-6 for u in p2_alone_usage),
        "management_saves_power": powers_arr[0] < 3.0 * 0.5,
    }

    table = format_table(
        ["throughput_bound", "power_opt", "throughput", "power_sim"],
        rows,
        title="Fig. 9(a) — web server: minimum power vs throughput requirement",
    )
    return ExperimentResult(
        experiment_id="fig9a",
        title="Dual-processor web server trade-off (Fig. 9a)",
        tables=[table],
        data={
            "throughput_bounds": list(THROUGHPUT_BOUNDS),
            "powers": powers,
            "p2_alone_usage": p2_alone_usage,
            "sweep_stats": curve.stats.as_dict(),
        },
        checks=checks,
    )
