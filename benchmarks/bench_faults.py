"""Fault-injection hardening: recovery latency and fault-free overhead.

Two questions, one per section:

* **What does a fault cost?**  For each failure class (worker SIGKILL,
  hang-past-deadline, corrupted spool generation) a scripted
  :class:`~repro.faults.FaultPlan` is injected into a small sharded
  campaign and the wall-clock is compared against the identical
  fault-free campaign — the difference is the end-to-end recovery
  latency (detect, SIGKILL if hung, restore from spool, replay).
* **What does the hardening cost when nothing fails?**  The
  bench_service throughput configuration (spooling off) stepped with
  worker deadlines armed vs without.  This isolates exactly what this
  hardening adds to the hot path — the poll-based receive and the
  fault hooks (no-ops when no plan is installed) — and the target is
  overhead within 2%.  Per-tick spooling, ``serve``'s default, is
  timed by ``bench_service.py``'s ``spooled2_disk66_<n>dev`` rows,
  not here.

Run under pytest-benchmark::

    pytest benchmarks/bench_faults.py -o python_files='bench_*.py' \
        -o python_functions='bench_*' --benchmark-only

or standalone (emits one JSON document on stdout)::

    PYTHONPATH=src python benchmarks/bench_faults.py [--quick]
"""

from __future__ import annotations

import json
import sys
import time

from bench_fleet import _stationary_fleet
from repro.faults import Fault, FaultPlan
from repro.service import ShardSupervisor
from repro.systems import disk_drive

#: Shard count for every scenario.
N_SHARDS = 2
#: Recovery-latency campaign: small on purpose — the latency under
#: measurement is supervision machinery, not stepping throughput.
N_DEVICES_RECOVERY = 512
RECOVERY_TICKS = 6
#: Overhead campaign scales (mirrors bench_service's quick scale).
FULL_SCALE = 10_000
QUICK_SCALE = 2_000
OVERHEAD_TICKS = 2
SLICES_PER_TICK = 16
#: Hang scenario tuning: the injected sleep must exceed the deadline.
HANG_SECONDS = 5.0
WORKER_DEADLINE = 1.0
#: Production-shaped deadline for the overhead probe: generous enough
#: never to fire, but it keeps the poll-based receive path active.
PROD_DEADLINE = 300.0

#: One scripted plan per failure class, all mid-run on shard 1.
FAULT_CLASSES: dict[str, FaultPlan] = {
    "worker_kill": FaultPlan(
        (
            Fault(site="worker.command", kind="kill", command="step",
                  tick=3, shard=1),
        )
    ),
    "worker_hang": FaultPlan(
        (
            Fault(site="worker.command", kind="hang", command="step",
                  tick=3, shard=1, seconds=HANG_SECONDS),
        )
    ),
    "spool_corruption": FaultPlan(
        (
            Fault(site="spool.written", kind="truncate", tick=2, shard=1),
            Fault(site="worker.command", kind="kill", command="step",
                  tick=3, shard=1),
        )
    ),
}


def _run_campaign(
    bundle,
    n_devices: int,
    ticks: int,
    plan: FaultPlan | None = None,
    checkpoint_every: int = 1,
    worker_deadline: float | None = WORKER_DEADLINE,
) -> tuple[float, ShardSupervisor]:
    """One sharded campaign; returns (seconds, stopped supervisor)."""
    fleet = _stationary_fleet(bundle, n_devices, seed=1)
    supervisor = ShardSupervisor(
        N_SHARDS,
        slices_per_tick=SLICES_PER_TICK,
        checkpoint_every=checkpoint_every,
        worker_deadline=worker_deadline,
        restart_backoff=0.01,
        fault_plan=plan,
    )
    supervisor.start(fleet)
    try:
        start = time.perf_counter()
        supervisor.run(ticks)
        seconds = time.perf_counter() - start
    finally:
        supervisor.stop()
    return seconds, supervisor


def _recovery_latency(bundle, plan: FaultPlan) -> dict:
    """Fault-free vs faulted wall-clock for one failure class."""
    clean_seconds, _ = _run_campaign(
        bundle, N_DEVICES_RECOVERY, RECOVERY_TICKS
    )
    chaos_seconds, supervisor = _run_campaign(
        bundle, N_DEVICES_RECOVERY, RECOVERY_TICKS, plan=plan
    )
    assert supervisor.restarts >= 1, "the scripted fault never fired"
    assert supervisor.quarantined == [], "recovery unexpectedly gave up"
    return {
        "clean_seconds": round(clean_seconds, 4),
        "chaos_seconds": round(chaos_seconds, 4),
        "recovery_seconds": round(max(0.0, chaos_seconds - clean_seconds), 4),
        "restarts": supervisor.restarts,
    }


def _overhead(bundle, n_devices: int) -> dict:
    """Hardened vs bare fault-free throughput at one scale.

    Both runs keep spooling off (the bench_service throughput
    configuration); the only delta is the armed worker deadline, i.e.
    the poll-based receive plus the no-op fault hooks.
    """
    slices = n_devices * OVERHEAD_TICKS * SLICES_PER_TICK
    bare_seconds, _ = _run_campaign(
        bundle, n_devices, OVERHEAD_TICKS,
        checkpoint_every=0, worker_deadline=None,
    )
    hardened_seconds, _ = _run_campaign(
        bundle, n_devices, OVERHEAD_TICKS,
        checkpoint_every=0, worker_deadline=PROD_DEADLINE,
    )
    bare_rate = slices / bare_seconds
    hardened_rate = slices / hardened_seconds
    return {
        "name": f"hardened{N_SHARDS}_disk66_{n_devices}dev",
        "n_devices": n_devices,
        "slices_per_device": OVERHEAD_TICKS * SLICES_PER_TICK,
        "bare_device_slices_per_sec": round(bare_rate),
        "hardened_device_slices_per_sec": round(hardened_rate),
        "hardening_overhead_pct": round(
            (1.0 - hardened_rate / bare_rate) * 100.0, 2
        ),
    }


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def bench_faults_recovery_worker_kill(benchmark):
    """End-to-end recovery from a SIGKILLed worker (restore + replay)."""
    bundle = disk_drive.build()
    result = benchmark.pedantic(
        lambda: _recovery_latency(bundle, FAULT_CLASSES["worker_kill"]),
        rounds=1,
        iterations=1,
    )
    benchmark.extra_info.update(result)


def bench_faults_hardening_overhead(benchmark):
    """Fault-free hardened vs bare supervisor throughput."""
    bundle = disk_drive.build()
    result = benchmark.pedantic(
        lambda: _overhead(bundle, QUICK_SCALE), rounds=1, iterations=1
    )
    benchmark.extra_info.update(result)


# ----------------------------------------------------------------------
# standalone JSON mode
# ----------------------------------------------------------------------
def collect(quick: bool = False) -> dict:
    """Run the matrix and return the benchmark JSON document."""
    bundle = disk_drive.build()
    recovery = {
        name: _recovery_latency(bundle, plan)
        for name, plan in FAULT_CLASSES.items()
    }
    overhead = _overhead(bundle, QUICK_SCALE if quick else FULL_SCALE)
    return {
        "benchmarks": [overhead],
        "recovery": recovery,
        "n_shards": N_SHARDS,
        "worker_deadline": WORKER_DEADLINE,
        "hang_seconds": HANG_SECONDS,
        # Nominal target for the fault-free hardening cost; the hooks
        # themselves are no-ops without an installed plan, so the cost
        # is spooling + deadline polling.  Reported, and regression-
        # gated through the *_per_sec rates above rather than a hard
        # percentage (quick-mode scales are too noisy for one).
        "overhead_pct_target": 2.0,
    }


def main(argv=None) -> int:
    quick = "--quick" in (argv if argv is not None else sys.argv[1:])
    document = collect(quick=quick)
    json.dump(document, sys.stdout, indent=2)
    print()
    # Correctness binds everywhere: every class must have recovered
    # (restarts fired, nothing quarantined — asserted during collect),
    # and the hung worker must not have cost the full hang.
    hang = document["recovery"]["worker_hang"]
    if hang["chaos_seconds"] - hang["clean_seconds"] >= HANG_SECONDS:
        print(
            "worker_hang recovery took longer than the hang itself; "
            "the deadline kill is not working",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
