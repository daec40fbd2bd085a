"""Ablation: static model-based control vs adaptive re-optimization.

The paper's closing future-work item.  On the Fig. 10 regime-switching
workload, the static policy (optimized against the blended stationary
model) violates its penalty bound inside the sparse regime, while the
adaptive manager — sliding-window SR re-extraction plus periodic
average-cost re-optimization — enforces the bound in every regime at
competitive power.  The benchmark times the full adaptive replay
(including every embedded LP re-solve) and prints the comparison.
"""

from repro.core.costs import PENALTY, POWER
from repro.core.optimizer import PolicyOptimizer
from repro.experiments.fig10_nonstationary import build_nonstationary_trace
from repro.policies import AdaptivePolicyAgent, StationaryPolicyAgent
from repro.sim import make_rng
from repro.sim.trace_sim import simulate_trace
from repro.systems import cpu
from repro.systems.cpu import build_provider, reactive_wake_mask
from repro.util.tables import format_table

PENALTY_BOUND = 0.01
N_SLICES = 40_000


def bench_adaptive_vs_static(benchmark):
    rng = make_rng(0)
    trace = build_nonstationary_trace(N_SLICES, rng)
    counts = trace.discretize(cpu.TIME_RESOLUTION)
    half = counts.size // 2
    bundle = cpu.build_from_trace(trace)
    model = bundle.metadata["sr_model"]

    def replay(agent, segment, seed=1):
        # The CPU costs' penalty is the sleep-while-busy indicator.
        return simulate_trace(
            bundle.system,
            bundle.costs,
            agent,
            segment,
            make_rng(seed),
            tracker=model.tracker(),
            initial_provider_state="active",
        ).averages

    optimizer = PolicyOptimizer(
        bundle.system,
        bundle.costs,
        gamma=bundle.gamma,
        initial_distribution=bundle.initial_distribution,
        action_mask=bundle.action_mask,
    )
    static = optimizer.minimize_power(penalty_bound=PENALTY_BOUND).require_feasible()
    static_full = replay(
        StationaryPolicyAgent(bundle.system, static.policy), counts
    )
    static_sparse = replay(
        StationaryPolicyAgent(bundle.system, static.policy), counts[:half]
    )

    def adaptive_run():
        agent = AdaptivePolicyAgent(
            provider=build_provider(),
            queue_capacity=0,
            optimize=lambda o: o.minimize_power(penalty_bound=PENALTY_BOUND),
            window=4000,
            refit_every=1000,
            fallback_command=0,
            build_costs=cpu.standard_costs,
            action_mask_builder=reactive_wake_mask,
        )
        return agent, replay(agent, counts), replay(agent, counts[:half])

    agent, adaptive_full, adaptive_sparse = benchmark.pedantic(
        adaptive_run, rounds=1, iterations=1
    )

    print()
    print(
        format_table(
            ["policy", "power (W)", "penalty", "penalty in sparse regime"],
            [
                ("static (blended model)", static_full[POWER],
                 static_full[PENALTY], static_sparse[PENALTY]),
                (agent.describe(), adaptive_full[POWER],
                 adaptive_full[PENALTY], adaptive_sparse[PENALTY]),
            ],
            title=(
                f"regime-switching workload, penalty bound {PENALTY_BOUND}: "
                "only the adaptive manager enforces the bound per regime"
            ),
            float_format=".4f",
        )
    )
    assert static_sparse[PENALTY] > 1.3 * PENALTY_BOUND
    assert adaptive_sparse[PENALTY] <= 1.2 * PENALTY_BOUND
    benchmark.extra_info["refits"] = agent.refits
    benchmark.extra_info["static_sparse_penalty"] = static_sparse[PENALTY]
    benchmark.extra_info["adaptive_sparse_penalty"] = adaptive_sparse[PENALTY]
