"""Sharded fleet-service throughput vs the single-process controller.

The service exists to break the single-core cap on the controller's
serial per-device RNG fan-in, so the headline measurement is direct:
the same stationary disk fleet stepped by a 4-shard
:class:`~repro.service.ShardSupervisor` vs one
:class:`~repro.runtime.FleetController`, at **10k** and **100k**
devices.  The acceptance gate — **>= 2x** device-slices/second at 100k
with 4 shards — is only physically reachable with enough cores to run
the workers in parallel, so it binds in full mode on machines with at
least ``N_SHARDS`` CPUs; elsewhere the speedup is reported as a
measurement (the committed baseline is floored accordingly).  The
correctness half has no such hedge: ``sharded_identical`` asserts the
sharded run's per-device telemetry is byte-identical to the
single-process run on every machine, quick mode included.

The sharded leg runs with spooling off, so a third leg times what
``serve`` does by default: a 2-shard supervisor spooling every shard
every tick (``checkpoint_every=1``) to a temporary directory.  Its
rows (``spooled2_disk66_<n>dev``) put the per-tick spool — the fleet
serialization plus an fsynced write per shard — under the regression
gate.

Run under pytest-benchmark::

    pytest benchmarks/bench_service.py -o python_files='bench_*.py' \
        -o python_functions='bench_*' --benchmark-only

or standalone (emits one JSON document on stdout)::

    PYTHONPATH=src python benchmarks/bench_service.py [--quick]
"""

from __future__ import annotations

import json
import os
import sys
import time

from bench_fleet import _stationary_fleet
from repro.runtime import FleetController, MemoryTelemetry
from repro.runtime.telemetry import snapshot_from_records
from repro.service import ShardSupervisor
from repro.systems import disk_drive

#: Worker count for the sharded leg (and the core count the speedup
#: gate needs to be physically meaningful).
N_SHARDS = 4
#: Acceptance: sharded >= 2x single-process at the 100k-device scale.
SPEEDUP_TARGET = 2.0
#: Device counts per mode.
FULL_SCALES = (10_000, 100_000)
QUICK_SCALES = (2_000,)
#: Slices per tick; two ticks per timed campaign so both paths carry
#: their one-time grouping/compile cost symmetrically.
SLICES_PER_TICK = 16
TICKS = 2
#: Identity-check fleet: small enough to be fast, large enough to
#: spread across every shard many times over.
N_DEVICES_IDENTITY = 512
#: Worker count for the spooled leg.
N_SPOOLED_SHARDS = 2


def _run_single(bundle, n_devices: int) -> tuple[float, float]:
    """Single-process campaign; returns (seconds, device-slices/s)."""
    fleet = _stationary_fleet(bundle, n_devices, seed=1)
    controller = FleetController(fleet, slices_per_tick=SLICES_PER_TICK)
    start = time.perf_counter()
    controller.run(TICKS)
    seconds = time.perf_counter() - start
    return seconds, n_devices * TICKS * SLICES_PER_TICK / seconds


def _run_sharded(bundle, n_devices: int) -> tuple[float, float]:
    """4-shard campaign (spooling off: this is a throughput probe)."""
    fleet = _stationary_fleet(bundle, n_devices, seed=1)
    supervisor = ShardSupervisor(
        N_SHARDS,
        slices_per_tick=SLICES_PER_TICK,
        checkpoint_every=0,
    )
    supervisor.start(fleet)
    try:
        start = time.perf_counter()
        supervisor.run(TICKS)
        seconds = time.perf_counter() - start
    finally:
        supervisor.stop()
    return seconds, n_devices * TICKS * SLICES_PER_TICK / seconds


def _run_spooled(bundle, n_devices: int) -> tuple[float, float]:
    """2-shard campaign spooling every tick, ``serve``'s default."""
    fleet = _stationary_fleet(bundle, n_devices, seed=1)
    # No spool_dir: the supervisor spools to a private temporary
    # directory and removes it on stop.
    supervisor = ShardSupervisor(
        N_SPOOLED_SHARDS,
        slices_per_tick=SLICES_PER_TICK,
        checkpoint_every=1,
    )
    supervisor.start(fleet)
    try:
        start = time.perf_counter()
        supervisor.run(TICKS)
        seconds = time.perf_counter() - start
    finally:
        supervisor.stop()
    return seconds, n_devices * TICKS * SLICES_PER_TICK / seconds


def _sharded_identical(bundle, ticks: int = 2) -> bool:
    """Is sharded per-device telemetry byte-identical to single-process?"""
    sink = MemoryTelemetry()
    controller = FleetController(
        _stationary_fleet(bundle, N_DEVICES_IDENTITY, seed=2),
        slices_per_tick=SLICES_PER_TICK,
        telemetry=sink,
        telemetry_per_device=True,
    )
    controller.run(ticks)

    supervisor = ShardSupervisor(
        N_SHARDS, slices_per_tick=SLICES_PER_TICK
    )
    supervisor.start(_stationary_fleet(bundle, N_DEVICES_IDENTITY, seed=2))
    sharded = []
    try:
        for _ in range(ticks):
            supervisor.step_tick()
            sharded.append(
                snapshot_from_records(
                    supervisor.tick,
                    supervisor.collect_records(),
                    per_device=True,
                )
            )
    finally:
        supervisor.stop()
    return json.dumps(sharded, sort_keys=True) == json.dumps(
        sink.records, sort_keys=True
    )


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def bench_service_sharded_10kdev(benchmark):
    """4-shard supervisor stepping 10k stationary disks."""
    bundle = disk_drive.build()
    seconds, rate = benchmark.pedantic(
        lambda: _run_sharded(bundle, 10_000), rounds=1, iterations=1
    )
    benchmark.extra_info.update(
        n_devices=10_000,
        n_shards=N_SHARDS,
        device_slices_per_sec=round(rate),
    )


def bench_service_speedup_10kdev(benchmark):
    """Sharded vs single-process at 10k devices (measurement only —
    the 2x gate binds at 100k in the standalone full run)."""
    bundle = disk_drive.build()
    _, single_rate = _run_single(bundle, 10_000)
    _, sharded_rate = benchmark.pedantic(
        lambda: _run_sharded(bundle, 10_000), rounds=1, iterations=1
    )
    benchmark.extra_info.update(
        single_device_slices_per_sec=round(single_rate),
        sharded_device_slices_per_sec=round(sharded_rate),
        speedup=round(sharded_rate / single_rate, 2),
        cpu_count=os.cpu_count(),
    )


def bench_service_identity(benchmark):
    """Acceptance: sharded telemetry == single-process, byte for byte."""
    bundle = disk_drive.build()
    identical = benchmark.pedantic(
        lambda: _sharded_identical(bundle), rounds=1, iterations=1
    )
    assert identical, (
        "sharded per-device telemetry diverged from the single-process "
        "controller"
    )


# ----------------------------------------------------------------------
# standalone JSON mode
# ----------------------------------------------------------------------
def collect(quick: bool = False) -> dict:
    """Run the matrix and return the benchmark JSON document."""
    bundle = disk_drive.build()
    scales = QUICK_SCALES if quick else FULL_SCALES
    records = []
    speedups: dict[str, float] = {}
    for n_devices in scales:
        single_seconds, single_rate = _run_single(bundle, n_devices)
        sharded_seconds, sharded_rate = _run_sharded(bundle, n_devices)
        records.append(
            {
                "name": f"single_disk66_{n_devices}dev",
                "mode": "single-process",
                "n_devices": n_devices,
                "slices_per_device": TICKS * SLICES_PER_TICK,
                "seconds": round(single_seconds, 4),
                "device_slices_per_sec": round(single_rate),
            }
        )
        records.append(
            {
                "name": f"sharded{N_SHARDS}_disk66_{n_devices}dev",
                "mode": f"{N_SHARDS}-shard service",
                "n_devices": n_devices,
                "slices_per_device": TICKS * SLICES_PER_TICK,
                "seconds": round(sharded_seconds, 4),
                "device_slices_per_sec": round(sharded_rate),
            }
        )
        spooled_seconds, spooled_rate = _run_spooled(bundle, n_devices)
        records.append(
            {
                "name": f"spooled{N_SPOOLED_SHARDS}_disk66_{n_devices}dev",
                "mode": f"{N_SPOOLED_SHARDS}-shard service, spool every tick",
                "n_devices": n_devices,
                "slices_per_device": TICKS * SLICES_PER_TICK,
                "seconds": round(spooled_seconds, 4),
                "device_slices_per_sec": round(spooled_rate),
            }
        )
        speedups[f"speedup_sharded_vs_single_{n_devices}dev"] = round(
            sharded_rate / single_rate, 2
        )
    cpu_count = os.cpu_count() or 1
    document = {
        "benchmarks": records,
        **speedups,
        "speedup_target": SPEEDUP_TARGET,
        "n_shards": N_SHARDS,
        "cpu_count": cpu_count,
        # the gate needs one core per worker to be physically possible
        "speedup_gate_active": not quick and cpu_count >= N_SHARDS,
        "sharded_identical": _sharded_identical(
            bundle, ticks=1 if quick else 2
        ),
    }
    return document


def main(argv=None) -> int:
    quick = "--quick" in (argv if argv is not None else sys.argv[1:])
    document = collect(quick=quick)
    json.dump(document, sys.stdout, indent=2)
    print()
    # Correctness binds everywhere, quick mode included.
    if not document["sharded_identical"]:
        return 1
    # The throughput gate binds only on the full campaign, and only
    # where the workers can actually run in parallel.
    if not document["speedup_gate_active"]:
        return 0
    headline = f"speedup_sharded_vs_single_{FULL_SCALES[-1]}dev"
    if document[headline] < SPEEDUP_TARGET:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
