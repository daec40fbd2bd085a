"""Chaos tests: the hardened service under scripted fault plans.

The contract here is the hard one from the fault-injection work: after
**any** fault plan that does not exhaust retries, the sharded service's
telemetry records and checkpoint bytes are identical to a fault-free
single-process :class:`~repro.runtime.controller.FleetController` run.
Each failure class gets a targeted test (kill, hang, slow-but-alive,
spool corruption, fsync refusal, dropped client sockets), then a
randomized soak replays seeded :meth:`FaultPlan.randomized` scripts
end to end.  The crash-loop breaker's quarantine path — the one mode
that *is* allowed to diverge — is tested for what it promises instead:
a degraded-but-serving daemon.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import signal
import threading
import time

import pytest

from repro import faults
from repro.faults import Fault, FaultPlan
from repro.runtime import (
    FleetController,
    MemoryTelemetry,
    build_agent_from_spec,
    build_fleet,
    build_group_devices,
    checkpoint_payload,
)
from repro.runtime.telemetry import snapshot_from_records
from repro.service import (
    FleetDaemon,
    Partitioner,
    ServiceClient,
    ServiceError,
    ShardSupervisor,
)
from repro.service.daemon import reap_process
from repro.util.validation import ValidationError

SEED = 11
SLICES = 50

SPEC = {
    "name": "chaos-test",
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

NEW_AGENT = {
    "type": "timeout",
    "active": "go_active",
    "sleep": "go_sleep",
    "timeout": 10,
}


@pytest.fixture(autouse=True)
def _no_leaked_injector():
    """Chaos tests must never leak an injector into the next test."""
    faults.uninstall()
    yield
    faults.uninstall()


def _dump(records):
    return [json.dumps(record, sort_keys=True) for record in records]


@pytest.fixture(scope="module")
def reference():
    """Six fault-free single-process ticks plus the final fleet."""
    fleet, _ = build_fleet(SPEC, base_seed=SEED)
    sink = MemoryTelemetry()
    controller = FleetController(
        fleet,
        slices_per_tick=SLICES,
        telemetry=sink,
        telemetry_per_device=True,
    )
    controller.run(6)
    return {
        "records": _dump(sink.records),
        "checkpoint": pickle.dumps(
            checkpoint_payload(controller.fleet, 6, SLICES, 1, True),
            protocol=4,
        ),
    }


def _supervisor_records(supervisor, n_ticks):
    out = []
    for _ in range(n_ticks):
        supervisor.step_tick()
        out.append(
            snapshot_from_records(
                supervisor.tick, supervisor.collect_records(), per_device=True
            )
        )
    return out


def _chaos_supervisor(tmp_path, plan, n_shards=3, **kwargs):
    kwargs.setdefault("worker_deadline", 2.0)
    kwargs.setdefault("restart_backoff", 0.01)
    supervisor = ShardSupervisor(
        n_shards,
        slices_per_tick=SLICES,
        spool_dir=tmp_path / "spool",
        fault_plan=plan,
        **kwargs,
    )
    fleet, _ = build_fleet(SPEC, base_seed=SEED)
    supervisor.start(fleet)
    return supervisor


def _assert_chaos_identical(reference, supervisor, tmp_path):
    """Run 6 ticks under faults; telemetry AND checkpoint must match."""
    try:
        records = _supervisor_records(supervisor, 6)
        assert supervisor.quarantined == []
        path = tmp_path / "after-chaos.ckpt"
        supervisor.save_checkpoint(
            path, telemetry_every=1, telemetry_per_device=True
        )
    finally:
        supervisor.stop()
    assert _dump(records) == reference["records"]
    assert path.read_bytes() == reference["checkpoint"]


# ----------------------------------------------------------------------
# one failure class at a time
# ----------------------------------------------------------------------
def test_injected_kill_recovers_byte_identical(reference, tmp_path):
    plan = FaultPlan(
        (
            Fault(site="worker.command", kind="kill", command="step",
                  tick=3, shard=1),
        )
    )
    supervisor = _chaos_supervisor(tmp_path, plan)
    _assert_chaos_identical(reference, supervisor, tmp_path)
    # (supervisor is stopped; restart was counted before that)


def test_injected_hang_is_killed_and_recovered(reference, tmp_path):
    # the worker sleeps far past the deadline: only the supervisor's
    # poll timeout + SIGKILL can unwedge the tick
    plan = FaultPlan(
        (
            Fault(site="worker.command", kind="hang", command="step",
                  tick=2, shard=0, seconds=30.0),
        )
    )
    supervisor = _chaos_supervisor(tmp_path, plan, worker_deadline=1.0)
    start = time.monotonic()
    _assert_chaos_identical(reference, supervisor, tmp_path)
    # the run waited out one deadline, not the full 30s hang
    assert time.monotonic() - start < 25.0


def test_injected_delay_under_deadline_is_left_alone(reference, tmp_path):
    # slow-but-alive: the deadline must NOT fire on a worker that is
    # merely behind
    plan = FaultPlan(
        (
            Fault(site="worker.command", kind="delay", command="step",
                  tick=2, shard=2, seconds=0.3),
        )
    )
    supervisor = _chaos_supervisor(tmp_path, plan, worker_deadline=10.0)
    restarts = []
    try:
        records = _supervisor_records(supervisor, 6)
        restarts.append(supervisor.restarts)
    finally:
        supervisor.stop()
    assert _dump(records) == reference["records"]
    assert restarts == [0]


@pytest.mark.parametrize("corruption", ["truncate", "bitflip"])
def test_corrupt_spool_falls_back_a_generation(
    reference, tmp_path, corruption
):
    # corrupt the spool generation written at tick 2, then kill the
    # same shard at tick 3: the restore must reject the corrupt
    # generation (CRC) and replay from the tick-1 generation instead
    plan = FaultPlan(
        (
            Fault(site="spool.written", kind=corruption, tick=2, shard=1),
            Fault(site="worker.command", kind="kill", command="step",
                  tick=3, shard=1),
        )
    )
    supervisor = _chaos_supervisor(tmp_path, plan)
    _assert_chaos_identical(reference, supervisor, tmp_path)


def test_spool_fsync_failure_degrades_without_divergence(reference, tmp_path):
    # a refused spool fsync skips that generation (counted, non-fatal);
    # a later kill still recovers from the surviving generation
    plan = FaultPlan(
        (
            Fault(site="spool.fsync", kind="error"),
            Fault(site="worker.command", kind="kill", command="step",
                  tick=4, shard=0),
        )
    )
    supervisor = _chaos_supervisor(tmp_path, plan)
    _assert_chaos_identical(reference, supervisor, tmp_path)
    # reported with a tick-1 step reply, so the tick-4 restart keeps it
    assert sum(supervisor.info()["spool_failures"]) == 1


def test_spool_fsync_failure_is_counted_in_info(tmp_path):
    # the one refusal hits the first worker spool (tick 0); that
    # worker reports it with its tick-1 step reply
    plan = FaultPlan((Fault(site="spool.fsync", kind="error"),))
    supervisor = _chaos_supervisor(tmp_path, plan)
    try:
        supervisor.run(3)
        failures = supervisor.info()["spool_failures"]
    finally:
        supervisor.stop()
    assert len(failures) == 3
    assert sum(failures) == 1


def test_injected_worker_error_crashes_and_recovers(reference, tmp_path):
    # an InjectedFault raised inside the worker's serve loop kills the
    # worker process (a crash distinct from SIGKILL: the pipe EOFs)
    plan = FaultPlan(
        (
            Fault(site="worker.command", kind="error", command="step",
                  tick=3, shard=2),
        )
    )
    supervisor = _chaos_supervisor(tmp_path, plan)
    _assert_chaos_identical(reference, supervisor, tmp_path)


# ----------------------------------------------------------------------
# randomized chaos soak
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [1, 7, 23])
def test_randomized_chaos_soak_converges(reference, tmp_path, seed):
    plan = FaultPlan.randomized(
        seed,
        ticks=6,
        shards=3,
        classes=("kill", "hang", "spool_corruption", "fsync_error"),
        hang_seconds=10.0,
    )
    supervisor = _chaos_supervisor(tmp_path, plan, worker_deadline=1.0)
    _assert_chaos_identical(reference, supervisor, tmp_path)


# ----------------------------------------------------------------------
# quarantine: the sanctioned divergence
# ----------------------------------------------------------------------
def _socket_path(tmp_path):
    path = tmp_path / "s"
    assert len(str(path)) < 100
    return str(path)


def _run_daemon(tmp_path, supervisor, **kwargs):
    socket_path = _socket_path(tmp_path)
    daemon = FleetDaemon(socket_path, supervisor, **kwargs)
    thread = threading.Thread(target=daemon.serve_forever, daemon=True)
    thread.start()
    deadline = time.monotonic() + 30
    while not os.path.exists(socket_path):
        assert time.monotonic() < deadline, "daemon never bound its socket"
        time.sleep(0.01)
    return socket_path, thread


def test_crash_loop_quarantines_shard_daemon_keeps_serving(tmp_path):
    # four scripted kills at the same (tick, shard): the initial death
    # plus every recovery attempt dies, tripping the breaker after
    # quarantine_after failed recoveries
    plan = FaultPlan(
        tuple(
            Fault(site="worker.command", kind="kill", command="step",
                  tick=2, shard=1, fault_id=f"kill-{i}")
            for i in range(4)
        )
    )
    supervisor = ShardSupervisor(
        3,
        slices_per_tick=SLICES,
        spool_dir=tmp_path / "spool",
        fault_plan=plan,
        restart_backoff=0.01,
        quarantine_after=2,
        worker_deadline=30.0,
    )
    sink = MemoryTelemetry()
    socket_path, thread = _run_daemon(
        tmp_path, supervisor, telemetry=sink, telemetry_per_device=True
    )
    with ServiceClient(socket_path, timeout=120) as client:
        for group in SPEC["groups"]:
            client.register_group(group, base_seed=SEED)
        # the quarantine trips inside this step; the step still lands
        assert client.step(4) == {"tick": 4, "ticks_run": 4}
        info = client.info()
        assert info["quarantined"] == [1]
        assert info["worker_pids"][1] is None
        # the daemon keeps answering: ping, further steps, snapshots
        assert client.ping() == {"pong": True, "tick": 4}
        assert client.step(1) == {"tick": 5, "ticks_run": 1}
        snap = client.snapshot(per_device=True)
        assert snap["quarantined"] == [1]
        # full device census survives: parked shards serve stale records
        assert len(snap["devices"]) == 18
        assert {record["id"] for record in snap["devices"]} == set(
            supervisor._owner
        )
        # mutations touching the parked shard are refused, clearly
        parked_id = next(
            device_id
            for device_id, shard in supervisor._owner.items()
            if shard == 1
        )
        with pytest.raises(ServiceError, match="quarantined"):
            client.remove_device(parked_id)
        # mutations on healthy shards still work
        healthy_id = next(
            device_id
            for device_id, shard in supervisor._owner.items()
            if shard == 0
        )
        assert client.update_policy(healthy_id, NEW_AGENT)["device_id"] == (
            healthy_id
        )
        client.shutdown()
    thread.join(timeout=30)
    assert not thread.is_alive()
    # telemetry kept flowing while degraded (one record per tick)
    assert [record["tick"] for record in sink.records] == [1, 2, 3, 4, 5]
    assert sink.records[-1]["quarantined"] == [1]


def test_quarantined_mutation_refused_at_supervisor_level(tmp_path):
    plan = FaultPlan(
        tuple(
            Fault(site="worker.command", kind="kill", command="step",
                  tick=2, shard=0, fault_id=f"kill-{i}")
            for i in range(4)
        )
    )
    supervisor = _chaos_supervisor(
        tmp_path, plan, quarantine_after=2, worker_deadline=30.0
    )
    try:
        supervisor.run(3)
        assert supervisor.quarantined == [0]
        assert supervisor.restarts >= 2
        parked_id = next(
            device_id
            for device_id, shard in supervisor._owner.items()
            if shard == 0
        )
        system, costs = supervisor.canonical_model(parked_id)
        with pytest.raises(ValidationError, match="quarantined"):
            supervisor.replace_agents(
                [(parked_id, build_agent_from_spec(NEW_AGENT, system, costs))]
            )
        # records still cover every device, stale ones included
        records = supervisor.collect_records()
        assert len(records) == 18
    finally:
        supervisor.stop()


def _quarantine_shard_0(tmp_path):
    """A 3-shard supervisor, 3 ticks in, with shard 0 quarantined."""
    plan = FaultPlan(
        tuple(
            Fault(site="worker.command", kind="kill", command="step",
                  tick=2, shard=0, fault_id=f"kill-{i}")
            for i in range(4)
        )
    )
    supervisor = _chaos_supervisor(
        tmp_path, plan, quarantine_after=2, worker_deadline=30.0
    )
    supervisor.run(3)
    assert supervisor.quarantined == [0]
    return supervisor


#: Four timeout disks: dealt round-robin after the six ``tmo`` ones,
#: their first lands on shard 0.
LATE_GROUP = {**SPEC["groups"][1], "id": "late", "count": 4}


def test_refused_registration_leaves_supervisor_untouched(tmp_path):
    late = build_group_devices(LATE_GROUP, group_index=2, base_seed=SEED)
    reference = Partitioner(3)
    for device in build_fleet(SPEC, base_seed=SEED)[0]:
        reference.assign(device)
    supervisor = _quarantine_shard_0(tmp_path)
    try:
        info = supervisor.info()
        with pytest.raises(ValidationError, match="quarantined"):
            supervisor.register_devices(late)
        assert supervisor.n_devices == 18
        assert supervisor.info()["devices_per_shard"] == (
            info["devices_per_shard"]
        )
        # The deal continues as if the refused call never happened.
        assert supervisor._partitioner.deal(late)[0] == (
            reference.deal(late)[0]
        )
        # Step, snapshot and checkpoint keep working while degraded.
        supervisor.step_tick()
        records = supervisor.collect_records()
        assert [record["id"] for record in records] == list(
            build_fleet(SPEC, base_seed=SEED)[0].device_ids
        )
        snap = FleetDaemon("unused.sock", supervisor)._fleet_snapshot(False)
        assert snap["n_devices"] == 18 and snap["quarantined"] == [0]
        supervisor.save_checkpoint(tmp_path / "degraded.ckpt")
    finally:
        supervisor.stop()


def test_refused_policy_push_keeps_the_canonical_agent(tmp_path):
    supervisor = _quarantine_shard_0(tmp_path)
    try:
        parked_id = next(
            device_id
            for device_id, shard in supervisor._owner.items()
            if shard == 0 and device_id.startswith("disks")
        )
        system, costs = supervisor.canonical_model(parked_id)
        eager = build_agent_from_spec(
            {"type": "eager", "active": "go_active", "sleep": "go_standby"},
            system,
            costs,
        )
        before, after = tmp_path / "before.ckpt", tmp_path / "after.ckpt"
        supervisor.save_checkpoint(before)
        with pytest.raises(ValidationError, match="quarantined"):
            supervisor.replace_agents([(parked_id, eager)])
        supervisor.save_checkpoint(after)
    finally:
        supervisor.stop()
    assert after.read_bytes() == before.read_bytes()


def test_folded_snapshot_covers_parked_devices(tmp_path):
    supervisor = _quarantine_shard_0(tmp_path)
    try:
        daemon = FleetDaemon("unused.sock", supervisor)
        folded = daemon._fleet_snapshot(per_device=False)
        from_records = snapshot_from_records(
            supervisor.tick, supervisor.collect_records()
        )
    finally:
        supervisor.stop()
    from_records["quarantined"] = [0]
    assert json.dumps(folded) == json.dumps(from_records)


# ----------------------------------------------------------------------
# client drops: reconnect, idempotent retry, daemon serviceability
# ----------------------------------------------------------------------
def test_client_drop_mid_step_is_not_double_applied(reference, tmp_path):
    supervisor = ShardSupervisor(
        2, slices_per_tick=SLICES, spool_dir=tmp_path / "spool"
    )
    sink = MemoryTelemetry()
    socket_path, thread = _run_daemon(
        tmp_path, supervisor, telemetry=sink, telemetry_per_device=True
    )
    streamed: list = []
    client = ServiceClient(
        socket_path, timeout=120, retries=5, retry_backoff=0.01
    )
    try:
        with client:
            for group in SPEC["groups"]:
                client.register_group(group, base_seed=SEED)
            # sever the client's socket after it has received two
            # frames of the step's reply stream; the daemon must finish
            # all four ticks, and the client's retry must land on the
            # replay cache instead of re-stepping
            faults.install(
                FaultPlan(
                    (Fault(site="client.recv", kind="drop", after=2),)
                ),
                tmp_path / "ledger",
            )
            result = client.step(4, on_telemetry=streamed.append)
            assert result == {"tick": 4, "ticks_run": 4}
            # the daemon's sink is authoritative and complete...
            assert _dump(sink.records) == reference["records"][:4]
            # ...while the client saw only the pre-drop stream
            assert _dump(streamed) == reference["records"][:2]
            # the reconnected session keeps working
            assert client.ping() == {"pong": True, "tick": 4}
            assert client.step(2) == {"tick": 6, "ticks_run": 2}
            assert _dump(sink.records) == reference["records"]
            client.shutdown()
    finally:
        faults.uninstall()
    thread.join(timeout=30)
    assert not thread.is_alive()


def test_client_retries_are_bounded(tmp_path):
    # with nothing listening, a retrying client still fails promptly
    # and with a ServiceError, not an infinite loop
    client = ServiceClient(
        _socket_path(tmp_path), timeout=5, retries=2, retry_backoff=0.01
    )
    with pytest.raises(ServiceError, match="cannot connect"):
        client.connect()


def test_client_rejects_negative_retries(tmp_path):
    with pytest.raises(ServiceError, match="retries"):
        ServiceClient(_socket_path(tmp_path), retries=-1)


# ----------------------------------------------------------------------
# reap_process: the shutdown safety net
# ----------------------------------------------------------------------
def _ignore_sigterm_forever(started):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    started.set()
    while True:
        time.sleep(0.5)


def test_reap_process_escalates_to_sigkill():
    ctx = multiprocessing.get_context(
        "fork"
        if "fork" in multiprocessing.get_all_start_methods()
        else "spawn"
    )
    started = ctx.Event()
    process = ctx.Process(target=_ignore_sigterm_forever, args=(started,))
    process.start()
    assert started.wait(timeout=30)
    # join times out, SIGTERM is ignored, SIGKILL must finish the job
    reap_process(process, join_timeout=0.2, term_timeout=0.2)
    assert not process.is_alive()
    assert process.exitcode == -signal.SIGKILL
