"""repro.runtime — the online fleet-controller subsystem.

The paper optimizes one device offline; the ROADMAP's north star is a
production service managing *fleets*.  This package is that layer: a
long-lived controller stepping thousands of heterogeneous, concurrently
managed devices through time on top of the repo's existing primitives
(the vectorized joint-state batch kernel, the incremental LP machinery,
the trace/synthetic workload generators).

Module index
------------

:mod:`~repro.runtime.fleet`
    :class:`Device` / :class:`Fleet` — the device registry: per-device
    systems, agents and RNG streams, with every device's state,
    accumulators and PCG64 stream position held as a row of
    fleet-owned columns; ``build_fleet``
    turns a JSON fleet spec (device groups x workloads x agents) into a
    registered fleet; :func:`device_rng` derives addressable per-device
    streams from one seed.
:mod:`~repro.runtime.controller`
    :class:`FleetController` — tick-based stepping.  Hot path: devices
    sharing a (system, costs, policy-determinism) signature advance as
    one batch of the vector joint-state kernel, each lane
    drawing from its own device's stream through a
    :class:`~repro.sim.rng.UniformSource` (vectorized batched PCG64
    over the position column by default, serial fan-in otherwise).
    Fixed-timeout devices step as timeout lanes of their model's
    batch, and stationary stream-driven devices as counts-driven
    batches of their own; adaptive agents, other stateful heuristics
    and custom trackers fall back to a resumable per-device loop.
    Results are bitwise identical however devices are grouped.
:mod:`~repro.runtime.policy_cache`
    :class:`PolicyCache` — content-addressed dedupe of LP solves
    (identical LPs hit the cache; every miss solves cold) plus the
    content-signature helpers the grouping and the adaptive agent's
    refit path share.
:mod:`~repro.runtime.streams`
    :class:`ArrivalStream` — exogenous workloads: trace replay
    (``TraceStream.load``), online synthetic generators (Poisson,
    MMPP(2), periodic bursts) and live per-tick callables.
:mod:`~repro.runtime.telemetry`
    Periodic fleet/device snapshots as deterministic records;
    in-memory and JSON-lines sinks.
:mod:`~repro.runtime.checkpoint`
    Versioned save/resume of full fleet state — RNG streams, agent
    internals, stream cursors — so campaigns survive restarts with
    byte-identical telemetry.

The sharded fleet daemon in :mod:`repro.service` builds on this layer:
it partitions a fleet across worker processes (each running its own
:class:`FleetController` over a sub-fleet) and reaggregates telemetry
and checkpoints byte-identically to a single-process run.

Quickstart::

    from repro.policies import StationaryPolicyAgent, eager_markov_policy
    from repro.runtime import Fleet, FleetController, device_rng
    from repro.systems import disk_drive

    bundle = disk_drive.build()
    policy = eager_markov_policy(bundle.system, "go_active", "go_sleep")
    fleet = Fleet()
    for i in range(1024):
        fleet.add_device(
            f"disk-{i:04d}", bundle.system, bundle.costs,
            StationaryPolicyAgent(bundle.system, policy),
            rng=device_rng(seed=0, index=i),
        )
    controller = FleetController(fleet, slices_per_tick=1000)
    controller.run(10)                       # 10k slices per device
    print(controller.snapshot()["metrics"]["power"]["mean"])

or, from the command line::

    repro-dpm fleet examples/fleet_spec.json --ticks 20 \\
        --telemetry telemetry.jsonl --checkpoint campaign.ckpt
"""

from repro.runtime.checkpoint import (
    CHECKPOINT_VERSION,
    checkpoint_payload,
    load_checkpoint,
    save_checkpoint,
    write_checkpoint,
)
from repro.runtime.controller import (
    FLEET_CHUNK_SLICES,
    FLEET_LANE_BLOCK,
    FleetController,
)
from repro.runtime.fleet import (
    Device,
    Fleet,
    OptimizeDirective,
    build_agent_from_spec,
    build_fleet,
    build_group_devices,
    device_rng,
    parse_fleet_spec,
)
from repro.runtime.policy_cache import (
    CachedOptimizer,
    CacheStats,
    PolicyCache,
    costs_signature,
    policy_signature,
    system_signature,
)
from repro.runtime.streams import (
    ArrivalStream,
    CallableStream,
    MMPP2Stream,
    PeriodicBurstStream,
    PoissonStream,
    TraceStream,
    stream_from_spec,
)
from repro.runtime.telemetry import (
    JsonLinesTelemetry,
    MemoryTelemetry,
    device_record,
    snapshot,
    snapshot_from_records,
)

__all__ = [
    "ArrivalStream",
    "CHECKPOINT_VERSION",
    "CachedOptimizer",
    "CacheStats",
    "CallableStream",
    "Device",
    "FLEET_CHUNK_SLICES",
    "FLEET_LANE_BLOCK",
    "Fleet",
    "FleetController",
    "JsonLinesTelemetry",
    "MMPP2Stream",
    "MemoryTelemetry",
    "OptimizeDirective",
    "PeriodicBurstStream",
    "PoissonStream",
    "PolicyCache",
    "TraceStream",
    "build_agent_from_spec",
    "build_fleet",
    "build_group_devices",
    "checkpoint_payload",
    "costs_signature",
    "device_record",
    "device_rng",
    "load_checkpoint",
    "parse_fleet_spec",
    "policy_signature",
    "save_checkpoint",
    "snapshot",
    "snapshot_from_records",
    "stream_from_spec",
    "system_signature",
    "write_checkpoint",
]
