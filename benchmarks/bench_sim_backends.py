"""Loop-vs-vector simulation throughput across systems/batches.

Records slices/second for the reference loop (:class:`LoopBackend`)
and the NumPy vector kernel (:class:`VectorBackend`), each called
directly, on the 8-state running example and the 66-state disk model,
across replication counts, plus the headline acceptance check: the
vector kernel must deliver **>= 10x** the loop's throughput on a
stationary-policy run of 10^6 total slices split over 32 replications.

Run under pytest-benchmark::

    pytest benchmarks/bench_sim_backends.py -o python_files='bench_*.py' \
        -o python_functions='bench_*' --benchmark-only

or standalone (emits one JSON document on stdout)::

    PYTHONPATH=src python benchmarks/bench_sim_backends.py [--quick]
"""

from __future__ import annotations

import json
import sys
import time

from repro.policies import StationaryPolicyAgent, eager_markov_policy
from repro.sim import LoopBackend, VectorBackend, child_rngs
from repro.systems import disk_drive, example_system

#: Headline scenario: 10^6 total slices over 32 replications.
TOTAL_SLICES = 1_000_000
N_REPLICATIONS = 32
SPEEDUP_TARGET = 10.0

#: (name, builder, active command, sleep command) per benchmark system.
SYSTEMS = (
    ("example8", example_system.build, "s_on", "s_off"),
    ("disk66", disk_drive.build, "go_active", "go_idle"),
)


def _stationary_agent(bundle, active, sleep):
    policy = eager_markov_policy(bundle.system, active, sleep)
    return StationaryPolicyAgent(bundle.system, policy)


def _run(bundle, agent, total_slices, n_replications, backend, seed=0):
    """One timed batch run on ``backend`` (``"loop"`` or ``"vector"``);
    returns (seconds, slices_per_second)."""
    per_lane = max(1, total_slices // n_replications)
    system, costs = bundle.system, bundle.costs
    start = time.perf_counter()
    if backend == "loop":
        rngs = child_rngs(seed, 1 + n_replications)[1:]
        LoopBackend().simulate_many(
            system, costs, [agent], per_lane, rngs, n_replications=n_replications
        )
    else:
        VectorBackend().simulate_batch(
            system,
            costs,
            [agent.stationary_policy(system)],
            per_lane,
            child_rngs(seed, 1)[0],
            n_replications=n_replications,
        )
    seconds = time.perf_counter() - start
    return seconds, per_lane * n_replications / seconds


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def bench_loop_throughput_disk_1rep(benchmark):
    """Reference loop, single trajectory on the disk system."""
    bundle = disk_drive.build()
    agent = _stationary_agent(bundle, "go_active", "go_idle")
    benchmark.pedantic(
        lambda: _run(bundle, agent, 50_000, 1, "loop"), rounds=2, iterations=1
    )
    benchmark.extra_info["slices"] = 50_000


def bench_vector_throughput_disk_32rep(benchmark):
    """Vector kernel, 32 replications on the disk system."""
    bundle = disk_drive.build()
    agent = _stationary_agent(bundle, "go_active", "go_idle")
    benchmark.pedantic(
        lambda: _run(bundle, agent, 500_000, 32, "vector"),
        rounds=2,
        iterations=1,
    )
    benchmark.extra_info["slices"] = 500_000


def bench_backend_speedup_1m_32rep(benchmark):
    """Acceptance check: vector >= 10x loop at 10^6 slices x 32 reps."""
    bundle = disk_drive.build()
    agent = _stationary_agent(bundle, "go_active", "go_idle")
    loop_seconds, loop_rate = _run(
        bundle, agent, TOTAL_SLICES, N_REPLICATIONS, "loop"
    )
    vector_seconds, vector_rate = benchmark.pedantic(
        lambda: _run(bundle, agent, TOTAL_SLICES, N_REPLICATIONS, "vector"),
        rounds=1,
        iterations=1,
    )
    speedup = vector_rate / loop_rate
    benchmark.extra_info.update(
        loop_slices_per_sec=round(loop_rate),
        vector_slices_per_sec=round(vector_rate),
        speedup=round(speedup, 2),
    )
    assert speedup >= SPEEDUP_TARGET, (
        f"vector kernel only {speedup:.1f}x faster than loop "
        f"({vector_rate:,.0f} vs {loop_rate:,.0f} slices/s); "
        f"target {SPEEDUP_TARGET}x"
    )


# ----------------------------------------------------------------------
# standalone JSON mode
# ----------------------------------------------------------------------
def collect(quick: bool = False) -> dict:
    """Run the full matrix and return the benchmark JSON document."""
    total = 100_000 if quick else TOTAL_SLICES
    backends = [("loop", (1,)), ("vector", (1, 8, 32, 128))]
    records = []
    for name, builder, active, sleep in SYSTEMS:
        bundle = builder()
        agent = _stationary_agent(bundle, active, sleep)
        for backend, rep_counts in backends:
            for n_replications in rep_counts:
                seconds, rate = _run(
                    bundle, agent, total, n_replications, backend
                )
                records.append(
                    {
                        "name": f"{backend}_{name}_{n_replications}rep",
                        "backend": backend,
                        "system": name,
                        "n_replications": n_replications,
                        "total_slices": total,
                        "seconds": round(seconds, 4),
                        "slices_per_sec": round(rate),
                    }
                )
    by_name = {r["name"]: r for r in records}
    speedup = {
        name: round(
            by_name[f"vector_{name}_32rep"]["slices_per_sec"]
            / by_name[f"loop_{name}_1rep"]["slices_per_sec"],
            2,
        )
        for name, *_ in SYSTEMS
    }
    return {
        "benchmarks": records,
        "speedup_32rep_vs_loop": speedup,
        "speedup_target": SPEEDUP_TARGET,
    }


def main(argv=None) -> int:
    quick = "--quick" in (argv if argv is not None else sys.argv[1:])
    document = collect(quick=quick)
    json.dump(document, sys.stdout, indent=2)
    print()
    # The acceptance targets are the 66-state disk case study (quick
    # mode is a smoke run where constant overheads dominate the tiny
    # batch).
    if quick:
        return 0
    target_met = document["speedup_32rep_vs_loop"]["disk66"] >= SPEEDUP_TARGET
    return 0 if target_met else 1


if __name__ == "__main__":
    sys.exit(main())
