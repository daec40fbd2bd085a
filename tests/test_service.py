"""The sharded fleet service: byte-identity, restarts, live control.

The contract under test is the one :mod:`repro.service` exists for:
a sharded run's device-level telemetry and checkpoints are
**byte-identical** to the single-process
:class:`~repro.runtime.controller.FleetController` for the same fleet
spec and seed — for any shard count, after re-partitioning on resume,
across mid-run worker kills, and through live membership and policy
changes.  Telemetry comparisons use the canonical JSON serialization
(``sort_keys``); checkpoint comparisons use raw pickle bytes, which is
only meaningful within one interpreter (``PYTHONHASHSEED`` varies
set iteration order across processes — the CI smoke job covers the
cross-process telemetry half).
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import threading
import time
from pathlib import Path

import pytest

from repro.runtime import (
    FleetController,
    MemoryTelemetry,
    build_agent_from_spec,
    build_fleet,
    build_group_devices,
    checkpoint_payload,
    load_checkpoint,
)
from repro.runtime.telemetry import (
    snapshot_from_folds,
    snapshot_from_records,
)
from repro.service import (
    FleetDaemon,
    Partitioner,
    ServiceClient,
    ServiceError,
    ShardSupervisor,
    shard_signature,
)
from repro.util.validation import ValidationError

SEED = 11
SLICES = 50

SPEC = {
    "name": "service-test",
    "groups": [
        {
            "id": "disks",
            "count": 12,
            "system": "disk_drive",
            "agent": {"type": "optimal", "penalty_bound": 0.05},
        },
        {
            "id": "tmo",
            "count": 6,
            "system": "disk_drive",
            "agent": {
                "type": "timeout",
                "active": "go_active",
                "sleep": "go_sleep",
                "timeout": 40,
            },
            "workload": {"type": "mmpp2", "p_stay_idle": 0.95},
        },
    ],
}

EXTRA_GROUP = {
    "id": "extra",
    "count": 4,
    "system": "disk_drive",
    "agent": {
        "type": "timeout",
        "active": "go_active",
        "sleep": "go_sleep",
        "timeout": 25,
    },
    "workload": {"type": "mmpp2", "p_stay_idle": 0.9},
}

NEW_AGENT = {
    "type": "timeout",
    "active": "go_active",
    "sleep": "go_sleep",
    "timeout": 10,
}


def _dump(records):
    return [json.dumps(record, sort_keys=True) for record in records]


def _single_process_records(n_ticks, spec=SPEC):
    fleet, _ = build_fleet(spec, base_seed=SEED)
    sink = MemoryTelemetry()
    controller = FleetController(
        fleet,
        slices_per_tick=SLICES,
        telemetry=sink,
        telemetry_per_device=True,
    )
    controller.run(n_ticks)
    return controller, sink


def _supervisor_records(supervisor, n_ticks):
    """Step and snapshot exactly as the daemon's telemetry path does."""
    out = []
    for _ in range(n_ticks):
        supervisor.step_tick()
        out.append(
            snapshot_from_records(
                supervisor.tick, supervisor.collect_records(), per_device=True
            )
        )
    return out


def _start_supervisor(n_shards, fleet=None, tick=0, **kwargs):
    supervisor = ShardSupervisor(
        n_shards, slices_per_tick=SLICES, **kwargs
    )
    if fleet is None:
        fleet, _ = build_fleet(SPEC, base_seed=SEED)
    supervisor.start(fleet, tick=tick)
    return supervisor


@pytest.fixture(scope="module")
def reference():
    """Six uninterrupted single-process ticks, per-device telemetry."""
    _, sink = _single_process_records(6)
    return _dump(sink.records)


# ----------------------------------------------------------------------
# partitioning
# ----------------------------------------------------------------------
def test_partitioner_deals_round_robin_per_signature():
    fleet, _ = build_fleet(SPEC, base_seed=SEED)
    devices = list(fleet)
    partitioner = Partitioner(3)
    assignment = [partitioner.assign(device) for device in devices]
    # equal-signature devices spread evenly, in registration order
    by_signature: dict[str, list[int]] = {}
    for device, shard in zip(devices, assignment):
        by_signature.setdefault(shard_signature(device), []).append(shard)
    assert len(by_signature) == 2  # optimal-group vs timeout-group
    for shards in by_signature.values():
        assert shards == [i % 3 for i in range(len(shards))]
    # a pure function of registration order: replay agrees, and a
    # second batch continues the deal where the first stopped
    replay = Partitioner(3)
    assert [replay.assign(device) for device in devices] == assignment
    split = Partitioner(3)
    first = [split.assign(device) for device in devices[:7]]
    second = [split.assign(device) for device in devices[7:]]
    assert first + second == assignment


@pytest.mark.parametrize(
    "spec_name, n_shards, expected",
    [
        ("SPEC", 2, [0, 1] * 9),
        ("SPEC", 3, [0, 1, 2] * 6),
        ("SPEC", 5, [0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1, 0, 1, 2, 3, 4, 0]),
        ("example", 3, [0, 1, 2, 0, 1, 2, 0, 1, 0, 1, 0, 1]),
        ("example", 5, [0, 1, 2, 3, 4, 0, 1, 2, 0, 1, 0, 1]),
    ],
)
def test_partition_ignores_how_a_shard_steps_its_devices(
    spec_name, n_shards, expected
):
    """The deal keys on the policy-lane signature alone.  Timeout and
    stream devices step as kernel lanes inside a shard, but they are
    dealt where the per-device loop's devices were: these lists are
    the assignments of the build before those lanes existed (SPEC's
    timeout disks have a stream; the example spec's timeout disks are
    model-driven and its edge devices stream-driven)."""
    if spec_name == "SPEC":
        spec = SPEC
    else:
        path = Path(__file__).resolve().parent.parent / "examples"
        spec = json.loads((path / "fleet_spec.json").read_text())
    fleet, _ = build_fleet(spec, base_seed=SEED)
    partitioner = Partitioner(n_shards)
    assert [partitioner.assign(device) for device in fleet] == expected


def test_partitioner_rejects_bad_shard_count():
    with pytest.raises(ValidationError, match="n_shards"):
        Partitioner(0)


# ----------------------------------------------------------------------
# telemetry and checkpoint byte-identity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_shards", [1, 3])
def test_sharded_telemetry_matches_single_process(reference, n_shards):
    supervisor = _start_supervisor(n_shards)
    try:
        records = _supervisor_records(supervisor, 6)
    finally:
        supervisor.stop()
    assert _dump(records) == reference


def test_checkpoint_bytes_identical_across_shard_counts(tmp_path):
    controller, _ = _single_process_records(3)
    expected = pickle.dumps(
        checkpoint_payload(controller.fleet, 3, SLICES, 1, True),
        protocol=4,
    )
    for n_shards in (1, 2, 3):
        supervisor = _start_supervisor(n_shards)
        try:
            supervisor.run(3)
            path = tmp_path / f"shards-{n_shards}.ckpt"
            supervisor.save_checkpoint(
                path, telemetry_every=1, telemetry_per_device=True
            )
        finally:
            supervisor.stop()
        assert path.read_bytes() == expected, n_shards


def test_resume_under_repartitioning(reference, tmp_path):
    path = tmp_path / "mid.ckpt"
    supervisor = _start_supervisor(4)
    try:
        prefix = _dump(_supervisor_records(supervisor, 3))
        supervisor.save_checkpoint(path)
    finally:
        supervisor.stop()
    assert prefix == reference[:3]
    for n_shards in (2, 1):
        payload = load_checkpoint(path)
        resumed = ShardSupervisor(
            n_shards,
            slices_per_tick=payload["slices_per_tick"],
        )
        resumed.start(payload["fleet"], tick=payload["tick"])
        try:
            suffix = _dump(_supervisor_records(resumed, 3))
        finally:
            resumed.stop()
        assert suffix == reference[3:], n_shards


#: Every lane kind: policy lanes, timeout lanes of their batch, a
#: stream-driven batch and loop devices (timeout agents on a stream).
LANES_SPEC = {
    "name": "lanes-test",
    "groups": [
        {
            "id": "eager",
            "count": 5,
            "system": "disk_drive",
            "agent": {"type": "eager", "active": "go_active",
                      "sleep": "go_sleep"},
        },
        {
            "id": "tmo",
            "count": 4,
            "system": "disk_drive",
            "agent": {"type": "timeout", "active": "go_active",
                      "sleep": "go_sleep", "timeout": 15},
        },
        {
            "id": "edge",
            "count": 4,
            "system": "example",
            "agent": {"type": "eager", "active": "s_on", "sleep": "s_off"},
            "workload": {"type": "mmpp2", "p_stay_idle": 0.9},
        },
        {
            "id": "loop",
            "count": 2,
            "system": "example",
            "agent": {"type": "timeout", "active": "s_on", "sleep": "s_off",
                      "timeout": 3},
            "workload": {"type": "mmpp2", "p_stay_idle": 0.9},
        },
    ],
}


def test_lane_kinds_keep_the_shard_and_resume_contracts(tmp_path):
    """Timeout and stream lanes carry per-device state across ticks (an
    idle counter, the previous slice's arrivals): sharded stepping
    equals single-process stepping, and a resume on another shard
    count equals the uninterrupted run, telemetry and checkpoint bytes
    alike."""
    controller, sink = _single_process_records(5, LANES_SPEC)
    assert len(controller._loop_devices) == 2
    assert [
        (len(group._timeout_rules), group.stream_driven)
        for group in controller._vector_groups
    ] == [(4, False), (0, True)]
    expected = pickle.dumps(
        checkpoint_payload(controller.fleet, 5, SLICES, 1, True), protocol=4
    )
    fleet, _ = build_fleet(LANES_SPEC, base_seed=SEED)
    middle = tmp_path / "middle.ckpt"
    supervisor = _start_supervisor(2, fleet)
    try:
        records = _supervisor_records(supervisor, 3)
        supervisor.save_checkpoint(middle)
    finally:
        supervisor.stop()
    payload = load_checkpoint(middle)
    resumed = ShardSupervisor(3, slices_per_tick=payload["slices_per_tick"])
    resumed.start(payload["fleet"], tick=payload["tick"])
    final = tmp_path / "final.ckpt"
    try:
        records += _supervisor_records(resumed, 2)
        resumed.save_checkpoint(
            final, telemetry_every=1, telemetry_per_device=True
        )
    finally:
        resumed.stop()
    assert _dump(records) == _dump(sink.records)
    assert final.read_bytes() == expected


# ----------------------------------------------------------------------
# worker death
# ----------------------------------------------------------------------
def test_worker_kill_restarts_from_spool(reference):
    supervisor = _start_supervisor(3)
    try:
        records = _supervisor_records(supervisor, 3)
        victim = supervisor.info()["worker_pids"][1]
        os.kill(victim, signal.SIGKILL)
        records += _supervisor_records(supervisor, 3)
        assert supervisor.restarts >= 1
        assert victim not in supervisor.info()["worker_pids"]
    finally:
        supervisor.stop()
    assert _dump(records) == reference


def test_spooling_disabled_makes_worker_death_fatal():
    supervisor = _start_supervisor(2, checkpoint_every=0)
    try:
        supervisor.step_tick()
        os.kill(supervisor.info()["worker_pids"][0], signal.SIGKILL)
        with pytest.raises(ValidationError, match="spool"):
            supervisor.run(3)
    finally:
        supervisor.stop()


# ----------------------------------------------------------------------
# live membership and policy changes
# ----------------------------------------------------------------------
def test_live_ops_match_single_process():
    # single-process reference: 2 ticks, register a group, retire a
    # device, push a policy, 3 more ticks
    fleet, _ = build_fleet(SPEC, base_seed=SEED)
    sink = MemoryTelemetry()
    controller = FleetController(
        fleet,
        slices_per_tick=SLICES,
        telemetry=sink,
        telemetry_per_device=True,
    )
    controller.run(2)
    extra = build_group_devices(EXTRA_GROUP, group_index=2, base_seed=SEED)
    for device in extra:
        fleet.adopt_device(device)
    fleet.remove_device("tmo-0001")
    target = fleet.device("disks-0002")
    fleet.replace_agent(
        "disks-0002",
        build_agent_from_spec(NEW_AGENT, target.system, target.costs),
    )
    controller.run(3)

    supervisor = _start_supervisor(3)
    try:
        records = _supervisor_records(supervisor, 2)
        supervisor.register_devices(
            build_group_devices(EXTRA_GROUP, group_index=2, base_seed=SEED)
        )
        supervisor.remove_device("tmo-0001")
        system, costs = supervisor.canonical_model("disks-0002")
        supervisor.replace_agents(
            [("disks-0002", build_agent_from_spec(NEW_AGENT, system, costs))]
        )
        records += _supervisor_records(supervisor, 3)
    finally:
        supervisor.stop()
    assert _dump(records) == _dump(sink.records)


PUSH_SPEC = {
    "name": "push-test",
    "groups": [
        {
            "id": "disks",
            "count": 8,
            "system": "disk_drive",
            "agent": {"type": "optimal", "penalty_bound": 0.0522},
        }
    ],
}


def test_policy_push_after_resume_matches_uninterrupted(tmp_path):
    # A policy push solves one LP of the fleet's own LP family on the
    # simplex.  The uninterrupted run pushes through the cache that
    # built the fleet (as `serve` does); the resumed one through a
    # fresh cache (as `serve --resume` does).  The pushed policy, and
    # so every checkpoint byte, must not depend on that history.
    def push(supervisor, cache):
        system, costs = supervisor.canonical_model("disks-0003")
        agent = build_agent_from_spec(
            {"type": "optimal", "penalty_bound": 0.0877},
            system,
            costs,
            cache=cache,
            lp_backend="simplex",
        )
        supervisor.replace_agents([("disks-0003", agent)])

    def started(n_shards, fleet, tick=0):
        supervisor = ShardSupervisor(
            n_shards, slices_per_tick=SLICES, lp_backend="simplex"
        )
        supervisor.start(fleet, tick=tick)
        return supervisor

    fleet, cache = build_fleet(PUSH_SPEC, base_seed=7, lp_backend="simplex")
    supervisor = started(2, fleet)
    try:
        supervisor.run(2)
        push(supervisor, cache)
        supervisor.run(2)
        supervisor.save_checkpoint(tmp_path / "uninterrupted.ckpt")
    finally:
        supervisor.stop()

    fleet, _ = build_fleet(PUSH_SPEC, base_seed=7, lp_backend="simplex")
    supervisor = started(2, fleet)
    try:
        supervisor.run(2)
        supervisor.save_checkpoint(tmp_path / "mid.ckpt")
    finally:
        supervisor.stop()
    payload = load_checkpoint(tmp_path / "mid.ckpt")
    supervisor = started(3, payload["fleet"], tick=payload["tick"])
    try:
        push(supervisor, None)
        supervisor.run(2)
        supervisor.save_checkpoint(tmp_path / "resumed.ckpt")
    finally:
        supervisor.stop()
    assert (tmp_path / "resumed.ckpt").read_bytes() == (
        tmp_path / "uninterrupted.ckpt"
    ).read_bytes()


def test_supervisor_rejects_bad_operations():
    supervisor = _start_supervisor(2)
    try:
        with pytest.raises(ValidationError, match="already running"):
            fleet, _ = build_fleet(SPEC, base_seed=SEED)
            supervisor.start(fleet)
        with pytest.raises(ValidationError, match="duplicate device id"):
            supervisor.register_devices(
                build_group_devices(
                    SPEC["groups"][1], group_index=1, base_seed=SEED
                )
            )
        with pytest.raises(ValidationError, match="unknown device"):
            supervisor.remove_device("ghost-0000")
        with pytest.raises(ValidationError, match="unknown device"):
            supervisor.canonical_model("ghost-0000")
    finally:
        supervisor.stop()
    with pytest.raises(ValidationError, match="not running"):
        supervisor.step_tick()


# ----------------------------------------------------------------------
# the daemon over a real socket
# ----------------------------------------------------------------------
def _socket_path(tmp_path):
    # AF_UNIX paths are capped at ~100 bytes; pytest tmp dirs stay
    # short enough, but keep the leaf minimal anyway
    path = tmp_path / "s"
    assert len(str(path)) < 100
    return str(path)


def _run_daemon(tmp_path, supervisor=None, **kwargs):
    if supervisor is None:
        supervisor = ShardSupervisor(2, slices_per_tick=SLICES)
    socket_path = _socket_path(tmp_path)
    daemon = FleetDaemon(socket_path, supervisor, **kwargs)
    thread = threading.Thread(target=daemon.serve_forever, daemon=True)
    thread.start()
    deadline = time.monotonic() + 30
    while not os.path.exists(socket_path):
        assert time.monotonic() < deadline, "daemon never bound its socket"
        time.sleep(0.01)
    return socket_path, thread


def test_daemon_end_to_end(reference, tmp_path):
    socket_path, thread = _run_daemon(
        tmp_path, telemetry_per_device=True
    )
    streamed: list = []
    checkpoint_path = tmp_path / "live.ckpt"
    with ServiceClient(socket_path, timeout=120) as client:
        assert client.server_hello["server"] == "repro-dpm-fleetd"
        assert client.server_hello["shards"] == 2
        for group in SPEC["groups"]:
            client.register_group(group, base_seed=SEED)
        info = client.info()
        assert info["n_devices"] == 18
        assert sum(info["devices_per_shard"]) == 18
        result = client.step(6, on_telemetry=streamed.append)
        assert result == {"tick": 6, "ticks_run": 6}
        assert client.info()["spool_failures"] == [0, 0]
        assert client.ping() == {"pong": True, "tick": 6}
        snap = client.snapshot(per_device=True)
        assert snap["tick"] == 6
        assert len(snap["devices"]) == 18
        client.checkpoint(
            checkpoint_path, telemetry_every=1, telemetry_per_device=True
        )
        assert client.remove_device("tmo-0005")["n_devices"] == 17
        updated = client.update_policy("disks-0000", NEW_AGENT)
        assert updated["agent"] == "timeout(10)"
        client.shutdown()
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert not os.path.exists(socket_path)
    # streamed telemetry is the single-process reference, byte for byte
    assert _dump(streamed) == reference
    payload = load_checkpoint(checkpoint_path)
    assert payload["tick"] == 6
    assert len(payload["fleet"]) == 18


def test_daemon_refuses_a_used_group_index(tmp_path):
    """An index the fleet already used would hand the new devices an
    existing group's streams (group 0's seed is base_seed * 7919 + 0),
    so it is refused before any device is built."""
    supervisor = ShardSupervisor(1, slices_per_tick=SLICES)
    supervisor.start(build_fleet(SPEC, base_seed=5)[0])
    socket_path, thread = _run_daemon(
        tmp_path, supervisor, next_group_index=len(SPEC["groups"])
    )
    group = {**SPEC["groups"][0], "count": 2}
    del group["id"]
    with ServiceClient(socket_path, timeout=120) as client:
        for used in (0, 1):
            with pytest.raises(ServiceError, match=f"group index {used} is"):
                client.register_group(group, base_seed=5, group_index=used)
        assert client.info()["n_devices"] == 18
        fresh = client.register_group(group, base_seed=5, group_index=3)
        assert fresh["device_ids"] == ["g3-0000", "g3-0001"]
        with pytest.raises(ServiceError, match="group index 3 is"):
            client.register_group(group, base_seed=5, group_index=3)
        assert client.register_group(group, base_seed=5)["group_index"] == 4
        assert client.info()["n_devices"] == 22
        client.shutdown()
    thread.join(timeout=30)


def test_daemon_requires_hello_first(tmp_path):
    import socket as socket_module

    from repro.service.protocol import FrameChannel, make_request

    socket_path, thread = _run_daemon(tmp_path)
    # a raw connection that skips the handshake is refused...
    raw = socket_module.socket(socket_module.AF_UNIX)
    raw.connect(socket_path)
    channel = FrameChannel(raw)
    greeting = channel.receive()
    assert greeting["event"] == "hello"
    channel.send(make_request(0, "ping"))
    reply = channel.receive()
    assert reply["ok"] is False
    assert "hello" in reply["error"]
    channel.close()
    # ...and a version mismatch is refused with a clear error...
    raw = socket_module.socket(socket_module.AF_UNIX)
    raw.connect(socket_path)
    channel = FrameChannel(raw)
    channel.receive()
    channel.send(
        make_request(0, "hello", {"protocol": PROTOCOL_MISMATCH})
    )
    reply = channel.receive()
    assert reply["ok"] is False
    assert "protocol version mismatch" in reply["error"]
    channel.close()
    # ...while the daemon keeps serving the next client
    with ServiceClient(socket_path, timeout=60) as client:
        assert client.ping()["pong"] is True
        client.shutdown()
    thread.join(timeout=30)


PROTOCOL_MISMATCH = 999


def test_client_errors_are_service_errors(tmp_path):
    socket_path, thread = _run_daemon(tmp_path)
    with ServiceClient(socket_path, timeout=60) as client:
        with pytest.raises(ServiceError, match="unknown device"):
            client.remove_device("ghost-0000")
        # the connection survives a refused request
        assert client.ping()["pong"] is True
        client.shutdown()
    thread.join(timeout=30)
    with pytest.raises(ServiceError, match="cannot connect"):
        ServiceClient(socket_path, timeout=5).connect()


# ----------------------------------------------------------------------
# per-tick telemetry folded on the shards
# ----------------------------------------------------------------------
#: An inline system whose spec references the ``waiting`` metric, so
#: its costs carry one metric the case-study systems do not.
WAITING_SYSTEM = {
    "name": "waiting",
    "queue_capacity": 2,
    "provider": {
        "states": ["on", "off"],
        "commands": ["s_on", "s_off"],
        "transitions": {
            "s_on": [[1.0, 0.0], [0.1, 0.9]],
            "s_off": [[0.2, 0.8], [0.0, 1.0]],
        },
        "service_rates": [[0.8, 0.0], [0.0, 0.0]],
        "power": [[3.0, 4.0], [4.0, 0.0]],
    },
    "requester": {
        "states": ["0", "1"],
        "transitions": [[0.95, 0.05], [0.15, 0.85]],
        "arrivals": [0, 1],
    },
    "objective": "power",
    "constraints": {"waiting": 2.0},
}

#: Three metric sets: disks (4 metrics), web servers (+ throughput)
#: and the inline system (+ waiting).  Removing ``web-0000`` leaves
#: shard 0 meeting ``waiting`` before any shard meets ``throughput``.
FOLD_SPEC = {
    "name": "fold-test",
    "groups": [
        {
            "id": "disks",
            "count": 5,
            "system": "disk_drive",
            "agent": {"type": "optimal", "penalty_bound": 0.05},
        },
        {
            "id": "web",
            "count": 2,
            "system": "web_server",
            "agent": {"type": "constant", "command": "to_both"},
        },
        {
            "id": "wait",
            "count": 3,
            "system": WAITING_SYSTEM,
            "agent": {
                "type": "timeout",
                "active": "s_on",
                "sleep": "s_off",
                "timeout": 5,
            },
            "workload": {"type": "mmpp2", "p_stay_idle": 0.9},
        },
    ],
}


@pytest.mark.parametrize("n_shards", [1, 2, 3])
def test_folded_snapshot_matches_records_and_single_process(n_shards):
    fleet, _ = build_fleet(FOLD_SPEC, base_seed=SEED)
    controller = FleetController(fleet, slices_per_tick=SLICES)
    supervisor = _start_supervisor(
        n_shards, fleet=build_fleet(FOLD_SPEC, base_seed=SEED)[0]
    )
    daemon = FleetDaemon("unused.sock", supervisor)
    snapshots = []
    try:
        for tick in range(1, 4):
            controller.step_tick()
            supervisor.step_tick()
            if tick == 1:
                fleet.remove_device("web-0000")
                supervisor.remove_device("web-0000")
            from_records = snapshot_from_records(
                supervisor.tick, supervisor.collect_records()
            )
            snapshots.append(
                (
                    daemon._fleet_snapshot(per_device=False),
                    from_records,
                    controller.snapshot(),
                )
            )
    finally:
        supervisor.stop()
    assert list(snapshots[-1][0]["metrics"]) == [
        "power", "penalty", "loss", "overflow", "throughput", "waiting",
    ]
    for folded, from_records, single in snapshots:
        # Unsorted dumps: the metric key order must match too.
        assert json.dumps(folded) == json.dumps(from_records)
        assert json.dumps(folded) == json.dumps(single)


def test_snapshot_from_folds_of_an_empty_fleet():
    record = snapshot_from_folds(0, [(0, 0, [0, 0, 0, 0], {})], [])
    assert record == snapshot_from_records(0, [])
