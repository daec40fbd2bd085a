"""Fleet-controller throughput: grouped batch stepping vs device loops.

The headline acceptance check for the :mod:`repro.runtime` subsystem:
a fleet of **1024** stationary disk devices stepped by the controller's
grouped batch path must sustain **>= 10x** the device-slices/second of
the same fleet stepped device by device through
:func:`~repro.runtime.controller._step_device_loop`, the loop the
controller runs for devices the kernel cannot express.  A
**100,000-device** fleet-scale smoke runs one controller tick to keep
the controller honest at the paper-fleet scale, once on the producer
the controller picks and once on the serial fan-in fallback; the same
scale doubles as the RNG fan-in comparison — the serial per-device
:class:`~repro.sim.rng.FanInSource` against the vectorized
:class:`~repro.sim.rng_batched.BatchedPCG64Source` — whose blocks must
be byte-identical everywhere.  Construction is timed at the same scale:
``build_fleet`` on a 100,000-device spec, the path ``repro-dpm fleet``
and ``serve`` start with, and so is a steady (second) tick of that
spec's fleet.  The lane kinds are compared head to head: a tick of
2,000 timeout disks (timeout lanes) against one of 2,000 eager disks
(policy lanes).  The final contract —
a checkpoint/resume campaign reproduces an uninterrupted run's
telemetry *exactly* — is asserted alongside, on a mixed fleet (policy
lanes, timeout lanes, stream lanes and a loop device) so every stepping
path crosses the checkpoint.

Run under pytest-benchmark::

    pytest benchmarks/bench_fleet.py -o python_files='bench_*.py' \
        -o python_functions='bench_*' --benchmark-only

or standalone (emits one JSON document on stdout)::

    PYTHONPATH=src python benchmarks/bench_fleet.py [--quick]
"""

from __future__ import annotations

import json
import sys
import time
from unittest import mock

import numpy as np

from repro.policies import (
    StationaryPolicyAgent,
    TimeoutAgent,
    eager_markov_policy,
)
from repro.runtime import (
    Fleet,
    FleetController,
    MemoryTelemetry,
    MMPP2Stream,
    build_fleet,
    device_rng,
)
from repro.runtime.controller import _step_device_loop
from repro.sim import rng_batched
from repro.sim.rng import FanInSource
from repro.sim.rng_batched import (
    BatchedPCG64Source,
    batched_available,
    pcg64_position,
)
from repro.systems import disk_drive, example_system

#: Headline scenario: 1024 stationary devices.
N_DEVICES = 1024
SPEEDUP_TARGET = 10.0
#: Fleet-scale smoke: one controller tick over 10^5 devices.
N_DEVICES_SMOKE = 100_000
#: RNG fan-in comparison: one 10^5-lane uniform block.
N_LANES_RNG = N_DEVICES_SMOKE
#: Lane-kind comparison: timeout disks against eager disks.
N_LANE_KIND_DEVICES = 2_000


def _stationary_fleet(bundle, n_devices: int, seed: int = 0) -> Fleet:
    policy = eager_markov_policy(bundle.system, "go_active", "go_idle")
    fleet = Fleet()
    for i in range(n_devices):
        fleet.add_device(
            f"disk-{i:04d}",
            bundle.system,
            bundle.costs,
            StationaryPolicyAgent(bundle.system, policy),
            rng=device_rng(seed, i),
            initial_state=("active", "0", 0),
        )
    return fleet


def _build_spec(n_devices: int) -> dict:
    """A fleet spec shaped like ``examples/fleet_spec.json``, scaled.

    Half optimal disks (one average-cost LP solve), a quarter eager
    disks, eager running-example devices, and 1% timeout disks and
    MMPP2-driven examples, which step as timeout lanes of the disk
    batch and as a stream-driven batch.
    """
    n_loop = max(2, n_devices // 100)
    n_opt, n_eager = n_devices // 2, n_devices // 4
    disk_eager = {"type": "eager", "active": "go_active", "sleep": "go_standby"}
    edge_eager = {"type": "eager", "active": "s_on", "sleep": "s_off"}
    return {
        "groups": [
            {
                "id": "disk-opt",
                "count": n_opt,
                "system": "disk_drive",
                "agent": {"type": "optimal", "penalty_bound": 0.5},
                "initial_state": ["active", "0", 0],
            },
            {"id": "disk-eager", "count": n_eager, "system": "disk_drive",
             "agent": disk_eager},
            {"id": "edge", "count": n_devices - n_opt - n_eager - n_loop,
             "system": "example", "agent": edge_eager},
            {
                "id": "disk-timeout",
                "count": n_loop // 2,
                "system": "disk_drive",
                "agent": dict(disk_eager, type="timeout", timeout=200),
            },
            {
                "id": "edge-mmpp",
                "count": n_loop - n_loop // 2,
                "system": "example",
                "agent": edge_eager,
                "workload": {"type": "mmpp2"},
            },
        ]
    }


def _build_rate(n_devices: int, repeats: int) -> tuple[float, float]:
    """Median ``build_fleet`` wall clock and devices/second.

    The first build solves the spec's LP; the timed builds reuse its
    policy cache, so they measure construction alone.
    """
    spec = _build_spec(n_devices)
    _, cache = build_fleet(spec, base_seed=1)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fleet, _ = build_fleet(spec, base_seed=1, cache=cache)
        times.append(time.perf_counter() - start)
        assert len(fleet) == n_devices
        del fleet
    seconds = sorted(times)[len(times) // 2]
    return seconds, n_devices / seconds


def _disk_fleet(agent_spec: dict, n_devices: int) -> Fleet:
    """``n_devices`` disks of one spec group under ``agent_spec``."""
    fleet, _ = build_fleet(
        {
            "groups": [
                {
                    "id": "disk",
                    "count": n_devices,
                    "system": "disk_drive",
                    "agent": agent_spec,
                    "initial_state": ["active", "0", 0],
                }
            ]
        },
        base_seed=1,
    )
    return fleet


def _steady_tick_seconds(fleet: Fleet, ticks: int, slices_per_tick: int):
    """Median wall clock of ``ticks`` ticks after the first.

    The first tick groups the fleet and compiles its batches, so it is
    stepped but not timed.  Returns ``(seconds, loop_devices)``.
    """
    controller = FleetController(fleet, slices_per_tick=slices_per_tick)
    controller.step_tick()
    times = []
    for _ in range(ticks):
        start = time.perf_counter()
        controller.step_tick()
        times.append(time.perf_counter() - start)
    seconds = sorted(times)[len(times) // 2]
    return seconds, controller.grouping()["loop_devices"]


def _lane_kind_records(n_devices: int, ticks: int, slices_per_tick: int):
    """Tick records for timeout disks and eager disks, and the ratio of
    the timeout tick to the eager one."""
    disk_eager = {"type": "eager", "active": "go_active", "sleep": "go_standby"}
    records = []
    seconds = {}
    for kind, agent_spec in (
        ("timeout", dict(disk_eager, type="timeout", timeout=200)),
        ("eager", disk_eager),
    ):
        seconds[kind], loop_devices = _steady_tick_seconds(
            _disk_fleet(agent_spec, n_devices), ticks, slices_per_tick
        )
        records.append(
            {
                "name": f"tick_{kind}_disk66_{n_devices}dev",
                "n_devices": n_devices,
                "slices_per_tick": slices_per_tick,
                "tick_seconds": round(seconds[kind], 5),
                "loop_devices": loop_devices,
                "device_slices_per_sec": round(
                    n_devices * slices_per_tick / seconds[kind]
                ),
            }
        )
    return records, round(seconds["timeout"] / seconds["eager"], 2)


def _mixed_fleet(seed: int = 3) -> Fleet:
    """Policy lanes with timeout lanes, a stream lane and a loop device."""
    bundle = example_system.build()
    policy = eager_markov_policy(bundle.system, "s_on", "s_off")
    fleet = Fleet()
    for i in range(12):
        fleet.add_device(
            f"v-{i:02d}",
            bundle.system,
            bundle.costs,
            StationaryPolicyAgent(bundle.system, policy),
            rng=device_rng(seed, i),
        )
    for i in range(3):
        fleet.add_device(
            f"t-{i:02d}",
            bundle.system,
            bundle.costs,
            TimeoutAgent(5, 0, 1),
            rng=device_rng(seed + 1, i),
        )
    # A stationary agent on a stream is a stream lane; a timeout agent
    # on one stays on the loop.
    for name, agent, index in (
        ("stream-00", TimeoutAgent(3, 0, 1), 0),
        ("stream-01", StationaryPolicyAgent(bundle.system, policy), 1),
    ):
        rng = device_rng(seed + 2, index)
        fleet.add_device(
            name,
            bundle.system,
            bundle.costs,
            agent,
            rng=rng,
            stream=MMPP2Stream(0.95, 0.85, rng),
        )
    return fleet


def _run(fleet: Fleet, path: str, ticks: int, slices_per_tick: int):
    """One timed campaign; returns (seconds, rate).

    ``path="vector"`` steps the fleet through a :class:`FleetController`,
    which groups every stationary disk onto the vector kernel;
    ``path="loop"`` steps each device through the controller's
    per-device loop, with the model tables compiled once.
    """
    if path == "loop":
        tables = next(iter(fleet)).compile_tables()
        start = time.perf_counter()
        for _ in range(ticks):
            for device in fleet:
                _step_device_loop(device, tables, slices_per_tick)
    else:
        controller = FleetController(fleet, slices_per_tick=slices_per_tick)
        start = time.perf_counter()
        controller.run(ticks)
    seconds = time.perf_counter() - start
    return seconds, len(fleet) * ticks * slices_per_tick / seconds


def _rng_fan_in_rates(n_lanes: int, chunk: int, seed: int = 7):
    """Source-level fan-in: serial FanInSource vs the batched source.

    Returns ``(fanin_rate, batched_rate, identical)`` in
    device-slices/second.  The batched source draws from a position
    column (the layout of a fleet's ``pcg`` column) holding the same
    streams as the fan-in's generators, advancing it in place, so both
    sources serve the *same* draws and the blocks compare
    byte-for-byte.  ``batched_rate`` is ``None`` on numpy builds where
    the vectorized path is unavailable.
    """
    generators = [device_rng(seed, i) for i in range(n_lanes)]
    positions = np.array(
        [pcg64_position(generator) for generator in generators],
        dtype=np.uint64,
    )
    batched = (
        BatchedPCG64Source(positions, n_kinds=4) if batched_available() else None
    )
    fan = FanInSource(generators, n_kinds=4)
    start = time.perf_counter()
    reference = fan.random((chunk, 4, n_lanes))
    fanin_rate = n_lanes * chunk / (time.perf_counter() - start)
    if batched is None:
        return fanin_rate, None, True
    start = time.perf_counter()
    block = batched.random((chunk, 4, n_lanes))
    batched_rate = n_lanes * chunk / (time.perf_counter() - start)
    return fanin_rate, batched_rate, bool((block == reference).all())


def _checkpoint_roundtrip_exact(tmp_path, ticks: int = 6) -> bool:
    """Does resume reproduce an uninterrupted run's telemetry exactly?"""
    split = ticks // 2
    full = MemoryTelemetry()
    FleetController(
        _mixed_fleet(), slices_per_tick=100, telemetry=full
    ).run(ticks)

    parts = MemoryTelemetry()
    controller = FleetController(
        _mixed_fleet(), slices_per_tick=100, telemetry=parts
    )
    controller.run(split)
    path = str(tmp_path / "bench_fleet.ckpt")
    controller.save_checkpoint(path)
    resumed = FleetController.resume(path, telemetry=parts)
    resumed.run(ticks - split)
    return json.dumps(full.records, sort_keys=True) == json.dumps(
        parts.records, sort_keys=True
    )


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
def bench_fleet_vector_1024dev(benchmark):
    """Grouped vector stepping, 1024 stationary disks."""
    bundle = disk_drive.build()
    fleet = _stationary_fleet(bundle, N_DEVICES)
    benchmark.pedantic(
        lambda: _run(fleet, "vector", 1, 200), rounds=2, iterations=1
    )
    benchmark.extra_info["n_devices"] = N_DEVICES


def bench_fleet_speedup_1024dev(benchmark):
    """Acceptance: grouped vector >= 10x the per-device loop path."""
    bundle = disk_drive.build()
    loop_seconds, loop_rate = _run(_stationary_fleet(bundle, N_DEVICES), "loop", 1, 50)
    vector_seconds, vector_rate = benchmark.pedantic(
        lambda: _run(_stationary_fleet(bundle, N_DEVICES), "vector", 1, 500),
        rounds=1,
        iterations=1,
    )
    speedup = vector_rate / loop_rate
    benchmark.extra_info.update(
        loop_device_slices_per_sec=round(loop_rate),
        vector_device_slices_per_sec=round(vector_rate),
        speedup=round(speedup, 2),
    )
    assert speedup >= SPEEDUP_TARGET, (
        f"grouped vector stepping only {speedup:.1f}x faster than the "
        f"per-device loop ({vector_rate:,.0f} vs {loop_rate:,.0f} "
        f"device-slices/s); target {SPEEDUP_TARGET}x"
    )


def bench_fleet_batched_vs_fanin_100000lane(benchmark):
    """Vectorized batched fan-in vs the serial per-device fan-in.

    Byte-identity of the two blocks is asserted; both rates are
    recorded.
    """
    fanin_rate, batched_rate, identical = benchmark.pedantic(
        lambda: _rng_fan_in_rates(N_LANES_RNG, 8), rounds=1, iterations=1
    )
    assert identical, "batched fan-in block diverged from serial fan-in"
    benchmark.extra_info["fanin_device_slices_per_sec"] = round(fanin_rate)
    if batched_rate is None:
        benchmark.extra_info["batched"] = "unavailable on this numpy build"
        return
    benchmark.extra_info.update(
        batched_device_slices_per_sec=round(batched_rate),
        speedup=round(batched_rate / fanin_rate, 2),
    )


def bench_fleet_build_spec_100000dev(benchmark):
    """``build_fleet`` on a 100,000-device spec (construction only)."""
    seconds, rate = benchmark.pedantic(
        lambda: _build_rate(N_DEVICES_SMOKE, 1), rounds=1, iterations=1
    )
    benchmark.extra_info.update(
        n_devices=N_DEVICES_SMOKE, devices_per_sec=round(rate)
    )


def bench_fleet_checkpoint_roundtrip(benchmark, tmp_path):
    """Acceptance: resumed telemetry == uninterrupted telemetry."""
    exact = benchmark.pedantic(
        lambda: _checkpoint_roundtrip_exact(tmp_path), rounds=1, iterations=1
    )
    assert exact, "checkpoint/resume telemetry diverged from the full run"


# ----------------------------------------------------------------------
# standalone JSON mode
# ----------------------------------------------------------------------
def collect(quick: bool = False) -> dict:
    """Run the matrix and return the benchmark JSON document."""
    import pathlib
    import tempfile

    bundle = disk_drive.build()
    # Loop throughput is rate-stable, so it is sampled on a shorter
    # campaign; the vector kernel gets a fleet-scale one.
    scenarios = [
        ("loop", 1, 10 if quick else 50),
        ("vector", 1, 100 if quick else 500),
    ]
    records = []
    by_path = {}
    for path, ticks, slices_per_tick in scenarios:
        fleet = _stationary_fleet(bundle, N_DEVICES)
        seconds, rate = _run(fleet, path, ticks, slices_per_tick)
        by_path[path] = rate
        records.append(
            {
                "name": f"{path}_disk66_{N_DEVICES}dev",
                "backend": path,
                "n_devices": N_DEVICES,
                "slices_per_device": ticks * slices_per_tick,
                "seconds": round(seconds, 4),
                "device_slices_per_sec": round(rate),
            }
        )
    # Fleet-scale smoke: 10^5 devices in one controller tick.
    smoke_slices = 8 if quick else 16
    smoke_fleet = _stationary_fleet(bundle, N_DEVICES_SMOKE, seed=1)
    seconds, rate = _run(smoke_fleet, "vector", 1, smoke_slices)
    # Same scale on the serial fan-in fallback: together with the run
    # above (batched when the build supports it) this is the
    # fleet-level half of the fanin-vs-batched comparison.  The
    # controller falls back to the fan-in for every lane block when
    # the PCG64 self-check fails, so the run reports it as failed.
    fanin_fleet = _stationary_fleet(bundle, N_DEVICES_SMOKE, seed=1)
    unsupported = {"mult": None, "reason": "fan-in fallback benchmark"}
    with mock.patch.object(rng_batched, "_DERIVED", unsupported):
        _, fanin_fleet_rate = _run(fanin_fleet, "vector", 1, smoke_slices)
    records.append(
        {
            "name": f"batch_disk66_{N_DEVICES_SMOKE}dev",
            "n_devices": N_DEVICES_SMOKE,
            "slices_per_device": smoke_slices,
            "seconds": round(seconds, 4),
            "device_slices_per_sec": round(rate),
            "fanin_device_slices_per_sec": round(fanin_fleet_rate),
        }
    )
    # Construction at the same scale: the spec path CLI fleets start with.
    build_seconds, build_rate = _build_rate(
        N_DEVICES_SMOKE, 1 if quick else 3
    )
    records.append(
        {
            "name": f"build_spec_{N_DEVICES_SMOKE}dev",
            "n_devices": N_DEVICES_SMOKE,
            "seconds": round(build_seconds, 4),
            "devices_per_sec": round(build_rate),
        }
    )
    # A steady tick of the spec's fleet at the same scale, at the
    # fleet-steady benchmark's 8 slices a tick.
    spec_tick, spec_loop_devices = _steady_tick_seconds(
        build_fleet(_build_spec(N_DEVICES_SMOKE), base_seed=1)[0],
        1 if quick else 3,
        8,
    )
    records.append(
        {
            "name": f"steady_tick_spec_{N_DEVICES_SMOKE}dev",
            "n_devices": N_DEVICES_SMOKE,
            "slices_per_tick": 8,
            "tick_seconds": round(spec_tick, 4),
            "loop_devices": spec_loop_devices,
            "device_slices_per_sec": round(N_DEVICES_SMOKE * 8 / spec_tick),
        }
    )
    # Lane kinds head to head: timeout lanes against policy lanes.
    lane_records, timeout_vs_eager = _lane_kind_records(
        N_LANE_KIND_DEVICES, 3 if quick else 10, 64
    )
    records.extend(lane_records)
    # Source-level half: raw uniform-block production at 10^5 lanes.
    rng_chunk = 8 if quick else 16
    fanin_rate, batched_rate, rng_identical = _rng_fan_in_rates(
        N_LANES_RNG, rng_chunk
    )
    rng_record = {
        "name": f"rng_fanin_vs_batched_{N_LANES_RNG}lane",
        "n_lanes": N_LANES_RNG,
        "chunk": rng_chunk,
        "n_kinds": 4,
        "fanin_device_slices_per_sec": round(fanin_rate),
    }
    if batched_rate is not None:
        rng_record["batched_device_slices_per_sec"] = round(batched_rate)
    records.append(rng_record)
    speedup = round(by_path["vector"] / by_path["loop"], 2)
    with tempfile.TemporaryDirectory() as tmp:
        exact = _checkpoint_roundtrip_exact(
            pathlib.Path(tmp), ticks=4 if quick else 6
        )
    document = {
        "benchmarks": records,
        "speedup_vector_vs_loop": speedup,
        "speedup_target": SPEEDUP_TARGET,
        "batched_available": batched_available(),
        "rng_blocks_identical": rng_identical,
        "checkpoint_resume_exact": exact,
        # Timeout-disk tick over eager-disk tick, equal fleet sizes.
        "timeout_tick_vs_eager": timeout_vs_eager,
    }
    if batched_rate is not None:
        document["speedup_batched_vs_fanin"] = round(
            batched_rate / fanin_rate, 2
        )
    return document


def main(argv=None) -> int:
    quick = "--quick" in (argv if argv is not None else sys.argv[1:])
    document = collect(quick=quick)
    json.dump(document, sys.stdout, indent=2)
    print()
    if not document["checkpoint_resume_exact"]:
        return 1
    # Byte-identity of the fan-in producers is a correctness contract,
    # so it binds even on the quick smoke.
    if not document["rng_blocks_identical"]:
        return 1
    # Quick mode is a smoke run; the throughput targets are only
    # binding on the full campaign.
    if quick:
        return 0
    if document["speedup_vector_vs_loop"] < SPEEDUP_TARGET:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
