"""Ablation: policy-completion (fallback) rules for unvisited states.

Eq. 16 leaves the policy undefined on states the optimal flow never
reaches.  That choice is invisible to the LP objective but matters in
trace-driven deployment, where a mis-modelled workload can drive the
system into those states.  This ablation solves one disk instance,
completes the policy under each rule, and replays a trace whose
statistics differ from the fitted model — measuring how much the rule
moves real power/penalty.
"""

from repro.core.costs import PENALTY, POWER
from repro.core.optimizer import PolicyOptimizer
from repro.policies import StationaryPolicyAgent
from repro.sim import make_rng
from repro.sim.trace_sim import simulate_trace
from repro.systems import disk_drive
from repro.traces import mmpp2_trace
from repro.util.tables import format_table

FALLBACKS = ("greedy-service", "lowest-power", "go_active")


def bench_fallback_rules(benchmark):
    bundle = disk_drive.build()

    # A drifted workload: burstier than the model the system was built
    # with, so trace replay visits states the LP never weighted.
    trace = mmpp2_trace(0.999, 0.95, 60_000, disk_drive.TIME_RESOLUTION, make_rng(5))
    counts = trace.discretize(disk_drive.TIME_RESOLUTION)

    def solve_and_replay():
        rows = []
        for fallback in FALLBACKS:
            optimizer = PolicyOptimizer(
                bundle.system,
                bundle.costs,
                gamma=bundle.gamma,
                initial_distribution=bundle.initial_distribution,
                fallback=fallback,
            )
            result = optimizer.minimize_power(
                penalty_bound=0.3
            ).require_feasible()
            agent = StationaryPolicyAgent(bundle.system, result.policy)
            # The disk's standard penalty is the queue length.
            replay = simulate_trace(
                bundle.system,
                bundle.costs,
                agent,
                counts,
                make_rng(6),
                initial_provider_state="active",
            ).averages
            rows.append(
                (fallback, result.average("power"), replay[POWER],
                 replay[PENALTY])
            )
        return rows

    rows = benchmark.pedantic(solve_and_replay, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["fallback rule", "power (model)", "power (drifted trace)",
             "queue (drifted trace)"],
            rows,
            title="policy completion rules under workload drift",
        )
    )
    # The LP-visible optimum must not depend on the completion rule.
    model_powers = [r[1] for r in rows]
    assert max(model_powers) - min(model_powers) < 1e-6
    benchmark.extra_info["trace_power_spread"] = max(
        r[2] for r in rows
    ) - min(r[2] for r in rows)
