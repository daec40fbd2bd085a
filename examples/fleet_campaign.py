"""An online fleet campaign: one controller, hundreds of devices.

The paper optimizes a single device offline; this walkthrough runs the
:mod:`repro.runtime` subsystem the repo grew toward a production
setting — a long-lived controller stepping a heterogeneous fleet:

* 256 disk drives under the *optimal* constrained policy — solved
  **once** through the content-addressed :class:`PolicyCache` and
  stepped as a single vectorized batch (one group, one compiled
  kernel, 256 lanes);
* 4 disks under a classic timeout heuristic, stepped as timeout lanes
  of the disk batch (the kernel applies the timeout rule, the idle
  counters stay in the agents);
* 4 example devices under a timeout heuristic, fed by a bursty
  synthetic *workload stream* instead of their Markov SR model (the
  fleet rendition of the paper's trace-driven mode); a timeout agent
  with a stream runs on the per-device reference loop.

Halfway through the campaign the fleet is checkpointed — RNG streams,
agent state, stream cursors and all — then resumed, and the final
telemetry is shown to be identical to an uninterrupted run's: fleets
are bitwise reproducible from per-device seeds, however they are
grouped, stopped or restarted.

Run:  python examples/fleet_campaign.py
"""

import json
import tempfile
from pathlib import Path

from repro.core.average_cost import AverageCostOptimizer
from repro.policies import StationaryPolicyAgent, TimeoutAgent
from repro.runtime import (
    Fleet,
    FleetController,
    MemoryTelemetry,
    MMPP2Stream,
    PolicyCache,
    device_rng,
)
from repro.systems import disk_drive, example_system
from repro.util.tables import format_table

N_OPTIMAL_DISKS = 256
N_TIMEOUT_DISKS = 4
N_STREAM_DEVICES = 4
SLICES_PER_TICK = 400
TICKS = 10
PENALTY_BOUND = 0.5


def build_fleet() -> tuple[Fleet, PolicyCache]:
    fleet = Fleet()
    cache = PolicyCache()

    # --- 256 optimally-managed disks: one LP solve, 255 cache hits ----
    disk = disk_drive.build()
    optimizer = AverageCostOptimizer(disk.system, disk.costs)
    for i in range(N_OPTIMAL_DISKS):
        result = cache.optimize(
            optimizer, "power", upper_bounds={"penalty": PENALTY_BOUND}
        )
        fleet.add_device(
            f"disk-opt-{i:03d}",
            disk.system,
            disk.costs,
            StationaryPolicyAgent(disk.system, result.policy),
            rng=device_rng(seed=0, index=i),
            initial_state=("active", "0", 0),
        )

    # --- a few timeout-managed disks (timeout lanes of the disk batch)
    active = disk.system.chain.command_index("go_active")
    standby = disk.system.chain.command_index("go_standby")
    for i in range(N_TIMEOUT_DISKS):
        fleet.add_device(
            f"disk-timeout-{i:03d}",
            disk.system,
            disk.costs,
            TimeoutAgent(200, active, standby),
            rng=device_rng(seed=1, index=i),
            initial_state=("active", "0", 0),
        )

    # --- stream-driven timeout devices (bursty workload; per-device loop)
    edge = example_system.build()
    for i in range(N_STREAM_DEVICES):
        rng = device_rng(seed=2, index=i)
        fleet.add_device(
            f"edge-{i:03d}",
            edge.system,
            edge.costs,
            TimeoutAgent(3, 0, 1),
            rng=rng,
            stream=MMPP2Stream(0.95, 0.85, rng),
        )
    return fleet, cache


def main() -> None:
    fleet, cache = build_fleet()
    print(
        f"fleet: {len(fleet)} devices; policy cache solved "
        f"{cache.stats.misses} LP(s) and answered {cache.stats.hits} "
        f"device(s) from cache"
    )

    # ------------------------------------------------------------------
    # Campaign A: uninterrupted.
    # ------------------------------------------------------------------
    telemetry_a = MemoryTelemetry()
    controller = FleetController(
        fleet,
        slices_per_tick=SLICES_PER_TICK,
        telemetry=telemetry_a,
        telemetry_every=2,
    )
    grouping = controller.grouping()
    print(
        f"grouping: {len(grouping['vector_groups'])} vector group(s) "
        f"({sum(g['devices'] for g in grouping['vector_groups'])} devices "
        f"batched), {grouping['loop_devices']} on the per-device loop"
    )
    controller.run(TICKS)
    final = controller.snapshot()

    rows = [
        (name, stats["mean"], stats["min"], stats["max"])
        for name, stats in sorted(final["metrics"].items())
    ]
    print()
    print(
        format_table(
            ["metric", "fleet_mean", "min", "max"],
            rows,
            title=f"fleet metrics after {TICKS} ticks "
            f"({final['fleet_slices']} device-slices)",
        )
    )

    # ------------------------------------------------------------------
    # Campaign B: checkpointed halfway, resumed, compared.
    # ------------------------------------------------------------------
    fleet_b, _ = build_fleet()
    telemetry_b = MemoryTelemetry()
    controller_b = FleetController(
        fleet_b,
        slices_per_tick=SLICES_PER_TICK,
        telemetry=telemetry_b,
        telemetry_every=2,
    )
    controller_b.run(TICKS // 2)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "campaign.ckpt"
        controller_b.save_checkpoint(path)
        print(
            f"\ncheckpointed at tick {controller_b.tick} "
            f"({path.stat().st_size} bytes), resuming..."
        )
        resumed = FleetController.resume(path, telemetry=telemetry_b)
    resumed.run(TICKS - TICKS // 2)

    identical = json.dumps(telemetry_a.records, sort_keys=True) == json.dumps(
        telemetry_b.records, sort_keys=True
    )
    print(
        f"resumed campaign telemetry identical to uninterrupted run: "
        f"{identical}"
    )
    assert identical


if __name__ == "__main__":
    main()
