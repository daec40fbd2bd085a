"""Micro-benchmarks of the core machinery.

Times the individual stages of the paper's tool pipeline in isolation:
Markov composition of the 66-state disk system, the constrained LP
under each backend (the PCx-stand-in interior point, the from-scratch
simplex, scipy's HiGHS), exact policy evaluation, value iteration, and
raw simulation throughput.
"""

import numpy as np

from repro.core.costs import POWER
from repro.core.dynamic_programming import value_iteration
from repro.core.optimizer import PolicyOptimizer
from repro.core.policy import evaluate_policy
from repro.policies import StationaryPolicyAgent, eager_markov_policy
from repro.sim import VectorBackend, child_rngs, make_rng, simulate
from repro.systems import disk_drive
from repro.traces import SRExtractor, mmpp2_trace


def bench_compose_disk_system(benchmark):
    """Markov composer: 11 x 2 x 3 joint states, five commands."""
    bundle = benchmark(disk_drive.build)
    assert bundle.system.n_states == 66


def _disk_optimizer(backend: str) -> PolicyOptimizer:
    bundle = disk_drive.build()
    return PolicyOptimizer(
        bundle.system,
        bundle.costs,
        gamma=bundle.gamma,
        initial_distribution=bundle.initial_distribution,
        backend=backend,
    )


def bench_lp_scipy_highs(benchmark):
    """Constrained 330-variable LP via scipy/HiGHS."""
    optimizer = _disk_optimizer("scipy")
    result = benchmark(
        lambda: optimizer.minimize_power(penalty_bound=0.5, loss_bound=0.005)
    )
    assert result.feasible


def bench_lp_interior_point(benchmark):
    """The same LP via the from-scratch Mehrotra interior point (PCx
    stand-in)."""
    optimizer = _disk_optimizer("interior-point")
    result = benchmark(
        lambda: optimizer.minimize_power(penalty_bound=0.5, loss_bound=0.005)
    )
    assert result.feasible


def bench_lp_simplex(benchmark):
    """The same LP via the from-scratch two-phase revised simplex."""
    optimizer = _disk_optimizer("simplex")
    result = benchmark.pedantic(
        lambda: optimizer.minimize_power(penalty_bound=0.5, loss_bound=0.005),
        rounds=1,
        iterations=1,
    )
    assert result.feasible


def bench_policy_evaluation(benchmark):
    """Closed-form discounted evaluation on the 66-state system."""
    bundle = disk_drive.build()
    policy = eager_markov_policy(
        bundle.system, "go_active", "go_standby"
    )
    evaluation = benchmark(
        lambda: evaluate_policy(
            bundle.system,
            bundle.costs,
            policy,
            bundle.gamma,
            bundle.initial_distribution,
        )
    )
    assert evaluation.averages[POWER] > 0


def bench_value_iteration_disk(benchmark):
    """Unconstrained DP solve on the 66-state system (gamma = 0.999)."""
    bundle = disk_drive.build()
    costs = bundle.costs.metric(POWER)
    result = benchmark.pedantic(
        lambda: value_iteration(bundle.system, costs, 0.999, tol=1e-8),
        rounds=1,
        iterations=1,
    )
    assert result.converged


def bench_simulation_throughput(benchmark):
    """Slices per second of the Markov engine on the disk system."""
    bundle = disk_drive.build()
    policy = eager_markov_policy(bundle.system, "go_active", "go_idle")
    agent = StationaryPolicyAgent(bundle.system, policy)
    n_slices = 20_000

    def run():
        return simulate(
            bundle.system,
            bundle.costs,
            agent,
            n_slices,
            make_rng(0),
            initial_state=("active", "0", 0),
        )

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert result.n_slices == n_slices
    benchmark.extra_info["slices"] = n_slices


def bench_simulation_throughput_vector(benchmark):
    """Slices per second of the vector kernel (32 replications)."""
    bundle = disk_drive.build()
    policy = eager_markov_policy(bundle.system, "go_active", "go_idle")
    n_slices, n_replications = 20_000, 32

    def run():
        return VectorBackend().simulate_batch(
            bundle.system,
            bundle.costs,
            [policy],
            n_slices,
            child_rngs(0, 1)[0],
            initial_state=("active", "0", 0),
            n_replications=n_replications,
        )[0]

    results = benchmark.pedantic(run, rounds=2, iterations=1)
    assert len(results) == n_replications
    benchmark.extra_info["slices"] = n_slices * n_replications


def bench_sr_extraction(benchmark):
    """k-memory extraction over a 100k-slice stream (k = 2)."""
    counts = mmpp2_trace(0.99, 0.9, 100_000, 1.0, make_rng(1)).discretize(1.0)
    counts = np.pad(counts, (0, max(0, 100_000 - counts.size)))
    model = benchmark(lambda: SRExtractor(memory=2).fit(counts))
    assert model.n_states == 4
