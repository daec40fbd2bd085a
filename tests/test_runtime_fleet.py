"""The fleet runtime: registry, determinism, checkpointing, telemetry.

The central contracts under test:

* **per-device determinism** — a fleet of N devices stepped together
  produces metrics *identical* (bitwise) to the same N devices stepped
  independently with the same per-device seeds, however they are
  grouped and whatever else shares the fleet (the fleet analogue of
  the loop==vector common-random-numbers suite);
* **checkpoint/resume** — a resumed campaign's telemetry is
  byte-identical to an uninterrupted run's.
"""

from __future__ import annotations

import io
import json
import pickle
from pathlib import Path
from typing import ClassVar

import numpy as np
import pytest

from repro.policies import (
    ConstantAgent,
    StationaryPolicyAgent,
    TimeoutAgent,
    eager_markov_policy,
)
from repro.runtime import (
    Device,
    Fleet,
    FleetController,
    JsonLinesTelemetry,
    MemoryTelemetry,
    MMPP2Stream,
    PeriodicBurstStream,
    PolicyCache,
    build_agent_from_spec,
    build_fleet,
    build_group_devices,
    device_record,
    device_rng,
    load_checkpoint,
    snapshot,
    snapshot_from_records,
)
from repro.runtime.streams import CallableStream, TraceStream
from repro.sim.backends import VectorBackend
from repro.sim.trace_sim import simulate_trace
from repro.sim.rng_batched import device_positions, holds_position
from repro.util.validation import ValidationError

DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture(scope="module")
def eager_policy(example_bundle):
    return eager_markov_policy(example_bundle.system, "s_on", "s_off")


def _stationary_device(bundle, policy, fleet, device_id, seed, index):
    return fleet.add_device(
        device_id,
        bundle.system,
        bundle.costs,
        StationaryPolicyAgent(bundle.system, policy),
        rng=device_rng(seed, index),
    )


def _device_fingerprint(device):
    """Everything a determinism comparison should pin down."""
    return (
        device.totals.tolist(),
        device.state,
        device.prev_arrivals,
        device.arrivals,
        device.serviced,
        device.lost,
        device.loss_event_slices,
        device.command_counts.tolist(),
        device.provider_occupancy.tolist(),
        device.slices,
    )


class TestFleetRegistry:
    def test_add_and_lookup(self, example_bundle, eager_policy):
        fleet = Fleet()
        device = _stationary_device(
            example_bundle, eager_policy, fleet, "d-0", 0, 0
        )
        assert len(fleet) == 1
        assert fleet.device("d-0") is device
        assert "d-0" in fleet
        assert fleet.device_ids == ("d-0",)
        assert device.vector_eligible

    def test_duplicate_id_rejected(self, example_bundle, eager_policy):
        fleet = Fleet()
        _stationary_device(example_bundle, eager_policy, fleet, "d-0", 0, 0)
        with pytest.raises(ValidationError, match="duplicate"):
            _stationary_device(
                example_bundle, eager_policy, fleet, "d-0", 0, 1
            )

    def test_unknown_id_rejected(self):
        fleet = Fleet()
        with pytest.raises(ValidationError, match="unknown device"):
            fleet.device("nope")

    def test_add_devices_validates_the_whole_block_first(
        self, example_bundle, eager_policy
    ):
        fleet = Fleet()
        _stationary_device(example_bundle, eager_policy, fleet, "d-0", 0, 0)
        version = fleet.version
        system, costs = example_bundle.system, example_bundle.costs
        agent = StationaryPolicyAgent(system, eager_policy)
        positions = device_positions(0, np.arange(3))
        with pytest.raises(ValidationError, match="duplicate device id 'd-2'"):
            fleet.add_devices(
                ["d-1", "d-2", "d-2"], system, costs, [agent] * 3,
                positions=positions,
            )
        with pytest.raises(ValidationError, match="duplicate device id 'd-0'"):
            fleet.add_devices(
                ["d-1", "d-2", "d-0"], system, costs, [agent] * 3,
                positions=positions,
            )
        with pytest.raises(ValidationError, match="exactly one"):
            fleet.add_devices(["d-1"], system, costs, [agent])
        with pytest.raises(ValidationError, match="keep a generator"):
            fleet.add_devices(
                ["d-1"], system, costs, [agent], positions=positions[:1],
                streams=[PeriodicBurstStream(2, 3)],
            )
        with pytest.raises(ValidationError, match=r"\(2, 4\) uint64"):
            fleet.add_devices(
                ["d-1", "d-2"], system, costs, [agent] * 2,
                positions=positions,
            )
        # Nothing registered, nothing bumped.
        assert fleet.device_ids == ("d-0",) and fleet.version == version

    def test_add_devices_registers_a_block_in_order(
        self, example_bundle, eager_policy
    ):
        fleet = Fleet()
        _stationary_device(example_bundle, eager_policy, fleet, "a", 0, 0)
        system, costs = example_bundle.system, example_bundle.costs
        agent = StationaryPolicyAgent(system, eager_policy)
        devices = fleet.add_devices(
            ["b", "c", "d"], system, costs, [agent] * 3,
            positions=device_positions(4, np.arange(3)),
            initial_state=("on", "0", 1),
        )
        assert fleet.device_ids == ("a", "b", "c", "d")
        assert fleet.version == 4
        assert [device._row for device in devices] == [1, 2, 3]
        for i, device in enumerate(devices):
            assert device.state == (0, 0, 1)
            assert device.slices == 0 and not device.totals.any()
            assert device._rng is None
            assert (device.rng.random(4) == device_rng(4, i).random(4)).all()

    def test_add_devices_resets_agents_and_starts_at_the_tracker(
        self, example_bundle
    ):
        from repro.sim.trace_sim import ArrivalTracker, NearestArrivalTracker

        class Busy(ArrivalTracker):
            def reset(self):
                return 1

            def update(self, arrivals):
                return 1

        fleet = Fleet()
        system, costs = example_bundle.system, example_bundle.costs
        agents = [TimeoutAgent(5, 0, 1), TimeoutAgent(5, 0, 1)]
        for agent in agents:
            agent._idle_slices = 3  # dirty state the reset must clear
        first, second = fleet.add_devices(
            ["s-0", "s-1"], system, costs, agents,
            rngs=[device_rng(6, 0), device_rng(6, 1)],
            streams=[PeriodicBurstStream(2, 3), PeriodicBurstStream(2, 3)],
            trackers=[Busy(), None],
            initial_state=("on", "0", 1),
        )
        assert [agent._idle_slices for agent in agents] == [0, 0]
        # A stream-driven device starts in its tracker's SR state.
        assert first.state == (0, 1, 1)
        assert isinstance(second.tracker, NearestArrivalTracker)
        assert second.state == (0, second.tracker.reset(), 1)

    def test_remove_bumps_version(self, example_bundle, eager_policy):
        fleet = Fleet()
        _stationary_device(example_bundle, eager_policy, fleet, "d-0", 0, 0)
        version = fleet.version
        fleet.remove_device("d-0")
        assert len(fleet) == 0
        assert fleet.version > version

    def test_adopt_device_keeps_state_and_bumps_version(
        self, example_bundle, eager_policy
    ):
        staging = Fleet()
        device = _stationary_device(
            example_bundle, eager_policy, staging, "d-0", 0, 0
        )
        device.slices = 123  # accumulated state an adopt must not touch
        fleet = Fleet()
        version, staged = fleet.version, staging.version
        assert fleet.adopt_device(device) is device
        assert fleet.device("d-0") is device
        assert device.slices == 123
        assert fleet.version > version
        # A device belongs to one fleet: adopting moves it out.
        assert "d-0" not in staging and staging.version > staged
        assert snapshot(staging, 0)["n_devices"] == 0
        with pytest.raises(ValidationError, match="duplicate"):
            fleet.adopt_device(device)
        with pytest.raises(ValidationError, match="takes a Device"):
            fleet.adopt_device("d-1")

    def test_replace_agent_resets_and_bumps_version(
        self, example_bundle, eager_policy
    ):
        fleet = Fleet()
        device = _stationary_device(
            example_bundle, eager_policy, fleet, "d-0", 0, 0
        )
        agent = TimeoutAgent(5, 0, 1)
        agent._idle_slices = 3  # dirty state the reset must clear
        version = fleet.version
        assert fleet.replace_agent("d-0", agent) is device
        assert device.agent is agent
        assert agent._idle_slices == 0
        assert fleet.version > version
        with pytest.raises(ValidationError, match="unknown device"):
            fleet.replace_agent("ghost", agent)
        with pytest.raises(ValidationError, match="must be a PolicyAgent"):
            fleet.replace_agent("d-0", "always_on")

    def test_foreign_costs_rejected(self, example_bundle, disk_bundle):
        fleet = Fleet()
        with pytest.raises(ValidationError, match="different system"):
            fleet.add_device(
                "d-0",
                example_bundle.system,
                disk_bundle.costs,
                ConstantAgent(0),
            )

    def test_stream_device_not_vector_eligible(
        self, example_bundle, eager_policy
    ):
        fleet = Fleet()
        rng = device_rng(0, 0)
        device = fleet.add_device(
            "d-0",
            example_bundle.system,
            example_bundle.costs,
            StationaryPolicyAgent(example_bundle.system, eager_policy),
            rng=rng,
            stream=PeriodicBurstStream(2, 5),
        )
        assert not device.vector_eligible


class TestFleetDeterminism:
    """Together == independently, bitwise, for every stepping path."""

    def _run_together(self, example_bundle, eager_policy, n, ticks, spt):
        fleet = Fleet()
        for i in range(n):
            _stationary_device(
                example_bundle, eager_policy, fleet, f"d-{i}", 0, i
            )
        FleetController(fleet, slices_per_tick=spt).run(ticks)
        return fleet

    def _run_alone(self, example_bundle, eager_policy, i, ticks, spt):
        fleet = Fleet()
        _stationary_device(example_bundle, eager_policy, fleet, f"d-{i}", 0, i)
        FleetController(fleet, slices_per_tick=spt).run(ticks)
        return fleet.device(f"d-{i}")

    def test_vector_group_equals_independent_devices(
        self, example_bundle, eager_policy
    ):
        together = self._run_together(example_bundle, eager_policy, 6, 3, 200)
        for i in range(6):
            alone = self._run_alone(example_bundle, eager_policy, i, 3, 200)
            assert _device_fingerprint(alone) == _device_fingerprint(
                together.device(f"d-{i}")
            )

    def test_loop_devices_equal_independent_devices(self, example_bundle):
        def build(ids):
            fleet = Fleet()
            for i in ids:
                fleet.add_device(
                    f"t-{i}",
                    example_bundle.system,
                    example_bundle.costs,
                    TimeoutAgent(4, 0, 1),
                    rng=device_rng(5, i),
                )
            FleetController(fleet, slices_per_tick=150).run(2)
            return fleet

        together = build(range(4))
        for i in range(4):
            alone = build([i]).device(f"t-{i}")
            assert _device_fingerprint(alone) == _device_fingerprint(
                together.device(f"t-{i}")
            )

    def test_grouping_invariance_in_mixed_fleet(
        self, example_bundle, disk_bundle, eager_policy
    ):
        """A device's trajectory ignores everything else in the fleet."""
        alone = self._run_alone(example_bundle, eager_policy, 0, 2, 250)

        mixed = Fleet()
        _stationary_device(example_bundle, eager_policy, mixed, "d-0", 0, 0)
        # A second vector group on a different system...
        disk_policy = eager_markov_policy(
            disk_bundle.system, "go_active", "go_idle"
        )
        mixed.add_device(
            "disk-0",
            disk_bundle.system,
            disk_bundle.costs,
            StationaryPolicyAgent(disk_bundle.system, disk_policy),
            rng=device_rng(9, 0),
        )
        # ... a loop heuristic, and a stream-driven device.
        mixed.add_device(
            "t-0",
            example_bundle.system,
            example_bundle.costs,
            TimeoutAgent(4, 0, 1),
            rng=device_rng(9, 1),
        )
        rng = device_rng(9, 2)
        mixed.add_device(
            "s-0",
            example_bundle.system,
            example_bundle.costs,
            TimeoutAgent(3, 0, 1),
            rng=rng,
            stream=MMPP2Stream(0.9, 0.8, rng),
        )
        FleetController(mixed, slices_per_tick=250).run(2)
        assert _device_fingerprint(alone) == _device_fingerprint(
            mixed.device("d-0")
        )

    def test_tick_size_invariance_for_vector_devices(
        self, example_bundle, eager_policy
    ):
        """Stream consumption is per-slice, so tick length is neutral.

        Trajectories and integer counters are *identical* across tick
        schedules; float totals fold at different chunk boundaries, so
        they agree only to summation rounding (the bitwise guarantee
        holds for equal tick schedules, which is what checkpoints keep).
        """
        a = self._run_together(example_bundle, eager_policy, 3, 4, 125)
        b = self._run_together(example_bundle, eager_policy, 3, 2, 250)
        for i in range(3):
            da, db = a.device(f"d-{i}"), b.device(f"d-{i}")
            assert _device_fingerprint(da)[1:] == _device_fingerprint(db)[1:]
            np.testing.assert_allclose(
                da.totals, db.totals, rtol=1e-12, atol=1e-9
            )

    def test_randomized_policy_group(self, example_bundle, example_optimizer):
        """Non-deterministic policies batch too (4-kind uniform path)."""
        result = example_optimizer.minimize_power(
            penalty_bound=0.5, loss_bound=0.2
        )
        assert not result.policy.is_deterministic

        def run(ids):
            fleet = Fleet()
            for i in ids:
                fleet.add_device(
                    f"r-{i}",
                    example_bundle.system,
                    example_bundle.costs,
                    StationaryPolicyAgent(example_bundle.system, result.policy),
                    rng=device_rng(21, i),
                )
            FleetController(fleet, slices_per_tick=300).run(2)
            return fleet

        together = run(range(5))
        alone = run([2]).device("r-2")
        assert _device_fingerprint(alone) == _device_fingerprint(
            together.device("r-2")
        )


class TestControllerBackends:
    def test_grouping_splits_by_policy_determinism(
        self, example_bundle, example_optimizer, eager_policy
    ):
        randomized = example_optimizer.minimize_power(
            penalty_bound=0.5, loss_bound=0.2
        ).policy
        fleet = Fleet()
        _stationary_device(example_bundle, eager_policy, fleet, "d-0", 0, 0)
        fleet.add_device(
            "r-0",
            example_bundle.system,
            example_bundle.costs,
            StationaryPolicyAgent(example_bundle.system, randomized),
            rng=device_rng(0, 1),
        )
        controller = FleetController(fleet, slices_per_tick=50)
        groups = controller.grouping()["vector_groups"]
        assert len(groups) == 2  # deterministic and randomized never mix

    def test_lane_kinds_route_by_device(self, example_bundle):
        """A fleet_spec-shaped fleet steps wholly on the kernel: its
        timeout disks are lanes of the disk group, its MMPP2-driven
        devices one stream group.  Agents that need Python, and custom
        trackers, stay on the loop."""
        from repro.traces.extractor import SRExtractor

        disk_timeout = {"type": "timeout", "timeout": 150,
                        "active": "go_active", "sleep": "go_standby"}
        edge_eager = {"type": "eager", "active": "s_on", "sleep": "s_off"}
        spec = {"groups": [
            {"id": "disk-opt", "count": 4, "system": "disk_drive",
             "agent": {"type": "optimal", "penalty_bound": 0.5,
                       "formulation": "average"},
             "initial_state": ["active", "0", 0]},
            {"id": "disk-eager", "count": 3, "system": "disk_drive",
             "agent": {"type": "eager", "active": "go_active",
                       "sleep": "go_standby"}},
            {"id": "edge", "count": 3, "system": "example",
             "agent": edge_eager},
            {"id": "disk-timeout", "count": 2, "system": "disk_drive",
             "agent": disk_timeout, "initial_state": ["active", "0", 0]},
            {"id": "edge-mmpp", "count": 2, "system": "example",
             "agent": edge_eager,
             "workload": {"type": "mmpp2", "p_stay_idle": 0.95,
                          "p_stay_busy": 0.85}},
        ]}
        fleet, _ = build_fleet(spec, base_seed=1)
        controller = FleetController(fleet, slices_per_tick=8)
        controller.step_tick()
        assert controller.grouping()["loop_devices"] == 0

        def kinds(group):
            return {device.device_id.rsplit("-", 1)[0] for device in group.devices}

        (timeout_group,) = [
            group for group in controller._vector_groups if len(group._timeout_rules)
        ]
        assert len(timeout_group._timeout_rules) == 2
        assert {"disk-eager", "disk-timeout"} <= kinds(timeout_group)
        (stream_group,) = [
            group for group in controller._vector_groups if group.stream_driven
        ]
        assert kinds(stream_group) == {"edge-mmpp"}

        system, costs = example_bundle.system, example_bundle.costs
        rng = device_rng(2, 0)  # the k-memory device's, shared by its stream
        for i, (device_id, agent, stream, tracker) in enumerate((
            ("clocked", _ClockedTimeoutAgent(3, 0, 1), None, None),
            ("adaptive", build_agent_from_spec(
                {"type": "adaptive", "window": 50, "refit_every": 30,
                 "penalty_bound": 0.5}, system, costs,
            ), None, None),
            ("k-memory", StationaryPolicyAgent(system, eager_markov_policy(
                system, "s_on", "s_off",
            )), MMPP2Stream(0.9, 0.8, rng),
                SRExtractor(memory=1).fit([0, 1, 1, 0, 1]).tracker()),
            ("timeout-stream", TimeoutAgent(3, 0, 1),
             PeriodicBurstStream(2, 3), None),
        )):
            fleet.add_device(
                device_id, system, costs, agent,
                rng=rng if device_id == "k-memory" else device_rng(2, i + 1),
                stream=stream, tracker=tracker,
            )
        controller.step_tick()
        assert [device.device_id for device in controller._loop_devices] == [
            "clocked", "adaptive", "k-memory", "timeout-stream",
        ]

    def test_empty_fleet_rejected(self):
        controller = FleetController(Fleet())
        with pytest.raises(ValidationError, match="empty fleet"):
            controller.step_tick()

    def test_loop_device_bad_command_names_the_device(self, example_bundle):
        fleet = Fleet()
        fleet.add_device(
            "bad-0",
            example_bundle.system,
            example_bundle.costs,
            TimeoutAgent(0, 9, 9),
            rng=device_rng(0, 0),
        )
        controller = FleetController(fleet, slices_per_tick=5)
        with pytest.raises(
            ValidationError, match=r"device 'bad-0': agent returned command 9"
        ):
            controller.step_tick()

    def test_membership_change_regroups(self, example_bundle, eager_policy):
        fleet = Fleet()
        _stationary_device(example_bundle, eager_policy, fleet, "d-0", 0, 0)
        controller = FleetController(fleet, slices_per_tick=50)
        controller.run(1)
        _stationary_device(example_bundle, eager_policy, fleet, "d-1", 0, 1)
        controller.run(1)
        assert fleet.device("d-0").slices == 100
        assert fleet.device("d-1").slices == 50

    def test_parameter_validation(self, example_bundle, eager_policy):
        fleet = Fleet()
        _stationary_device(example_bundle, eager_policy, fleet, "d-0", 0, 0)
        with pytest.raises(ValidationError, match="slices_per_tick"):
            FleetController(fleet, slices_per_tick=0)
        with pytest.raises(ValidationError, match="telemetry_every"):
            FleetController(fleet, telemetry_every=0)


class TestTelemetry:
    def _controller(self, example_bundle, eager_policy, sink, **kwargs):
        fleet = Fleet()
        for i in range(3):
            _stationary_device(
                example_bundle, eager_policy, fleet, f"d-{i}", 0, i
            )
        return FleetController(
            fleet, slices_per_tick=100, telemetry=sink, **kwargs
        )

    def test_snapshot_structure(self, example_bundle, eager_policy):
        sink = MemoryTelemetry()
        controller = self._controller(example_bundle, eager_policy, sink)
        controller.run(2)
        assert [r["tick"] for r in sink.records] == [1, 2]
        record = sink.records[-1]
        assert record["n_devices"] == 3
        assert record["fleet_slices"] == 600
        assert set(record["metrics"]) == set(
            example_bundle.costs.metric_names
        )
        for stats in record["metrics"].values():
            assert stats["min"] <= stats["mean"] <= stats["max"]

    def test_telemetry_every(self, example_bundle, eager_policy):
        sink = MemoryTelemetry()
        controller = self._controller(
            example_bundle, eager_policy, sink, telemetry_every=2
        )
        controller.run(5)
        assert [r["tick"] for r in sink.records] == [2, 4]

    def test_per_device_records(self, example_bundle, eager_policy):
        sink = MemoryTelemetry()
        controller = self._controller(
            example_bundle, eager_policy, sink, telemetry_per_device=True
        )
        controller.run(1)
        devices = sink.records[0]["devices"]
        assert [d["id"] for d in devices] == ["d-0", "d-1", "d-2"]
        assert all(d["workload"] == "model" for d in devices)

    def test_jsonl_sink_round_trips(
        self, example_bundle, eager_policy, tmp_path
    ):
        path = tmp_path / "telemetry.jsonl"
        with JsonLinesTelemetry(path) as sink:
            self._controller(example_bundle, eager_policy, sink).run(3)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[-1])["tick"] == 3

    def test_snapshot_of_empty_fleet(self):
        record = snapshot(Fleet(), tick=0)
        assert record["n_devices"] == 0
        assert record["metrics"] == {}

    def test_jsonl_sink_opens_lazily(self, tmp_path):
        """Constructing a sink must not truncate an existing file; only
        the first record does (a failed CLI run keeps old telemetry)."""
        path = tmp_path / "telemetry.jsonl"
        path.write_text("precious old telemetry\n")
        sink = JsonLinesTelemetry(path)
        sink.close()
        assert path.read_text() == "precious old telemetry\n"
        with JsonLinesTelemetry(path) as live:
            live.record({"tick": 1})
        assert json.loads(path.read_text())["tick"] == 1

    def test_jsonl_flush_every_batches_writes(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        sink = JsonLinesTelemetry(path, flush_every=3)
        try:
            sink.record({"tick": 1})
            sink.record({"tick": 2})
            # below the batch threshold: nothing has reached the OS yet
            assert path.read_text() == ""
            sink.record({"tick": 3})
            assert len(path.read_text().splitlines()) == 3
            sink.record({"tick": 4})  # pending again...
        finally:
            sink.close()  # ...but close never drops records
        assert len(path.read_text().splitlines()) == 4

    def test_jsonl_flush_every_validated(self, tmp_path):
        with pytest.raises(ValidationError, match="flush_every"):
            JsonLinesTelemetry(tmp_path / "t.jsonl", flush_every=0)

    def test_jsonl_fsync_follows_every_flush(self, tmp_path, monkeypatch):
        import repro.runtime.telemetry as telemetry_module

        synced = []
        monkeypatch.setattr(
            telemetry_module.os, "fsync", lambda fd: synced.append(fd)
        )
        with JsonLinesTelemetry(
            tmp_path / "t.jsonl", flush_every=2, fsync=True
        ) as sink:
            for tick in range(5):
                sink.record({"tick": tick})
        # two full batches plus the close-time flush of the remainder
        assert len(synced) == 3


def _mixed_fleet(example_bundle, eager_policy):
    """All three stepping paths: vector group, loop, stream-driven."""
    fleet = Fleet()
    for i in range(4):
        fleet.add_device(
            f"v-{i}",
            example_bundle.system,
            example_bundle.costs,
            StationaryPolicyAgent(example_bundle.system, eager_policy),
            rng=device_rng(0, i),
        )
    fleet.add_device(
        "t-0",
        example_bundle.system,
        example_bundle.costs,
        TimeoutAgent(4, 0, 1),
        rng=device_rng(1, 0),
    )
    rng = device_rng(2, 0)
    fleet.add_device(
        "s-0",
        example_bundle.system,
        example_bundle.costs,
        TimeoutAgent(3, 0, 1),
        rng=rng,
        stream=MMPP2Stream(0.95, 0.85, rng),
    )
    return fleet


class TestCheckpoint:
    def test_resume_telemetry_byte_identical(
        self, example_bundle, eager_policy, tmp_path
    ):
        """The headline contract: resume == never stopped, bytewise."""
        full_path = tmp_path / "full.jsonl"
        with JsonLinesTelemetry(full_path) as sink:
            FleetController(
                _mixed_fleet(example_bundle, eager_policy),
                slices_per_tick=150,
                telemetry=sink,
            ).run(6)

        split_path = tmp_path / "split.jsonl"
        ckpt = tmp_path / "fleet.ckpt"
        with JsonLinesTelemetry(split_path) as sink:
            controller = FleetController(
                _mixed_fleet(example_bundle, eager_policy),
                slices_per_tick=150,
                telemetry=sink,
            )
            controller.run(3)
            controller.save_checkpoint(ckpt)
        with JsonLinesTelemetry(split_path, append=True) as sink:
            FleetController.resume(ckpt, telemetry=sink).run(3)

        assert full_path.read_bytes() == split_path.read_bytes()

    def test_resume_restores_counters_and_settings(
        self, example_bundle, eager_policy, tmp_path
    ):
        controller = FleetController(
            _mixed_fleet(example_bundle, eager_policy),
            slices_per_tick=120,
            telemetry_every=2,
        )
        controller.run(2)
        path = tmp_path / "fleet.ckpt"
        controller.save_checkpoint(path)
        resumed = FleetController.resume(path)
        assert resumed.tick == 2
        assert resumed.slices_per_tick == 120
        assert resumed._telemetry_every == 2
        assert resumed.fleet.device_ids == controller.fleet.device_ids
        assert resumed.fleet.total_slices == controller.fleet.total_slices

    def test_adaptive_fleet_pickles_are_a_function_of_state(self):
        """Two runs of one spec and seed pickle to the same bytes, also
        after adaptive refits solved LPs through the policy cache."""
        spec = {
            "groups": [
                {
                    "id": "adaptive", "count": 2, "system": "example",
                    "agent": {
                        "type": "adaptive", "window": 200,
                        "refit_every": 100, "penalty_bound": 0.5,
                    },
                },
                {
                    "id": "optimal", "count": 2, "system": "example",
                    "agent": {"type": "optimal", "penalty_bound": 0.5},
                },
            ]
        }

        def run():
            fleet, cache = build_fleet(spec, base_seed=1)
            FleetController(fleet, slices_per_tick=100).run(3)
            refits = [
                fleet.device(f"adaptive-{i:04d}").agent.refits
                for i in range(2)
            ]
            return pickle.dumps(fleet, protocol=4), cache, refits

        first, cache, refits = run()
        second, _, _ = run()
        assert min(refits) >= 1
        assert cache.stats.misses > 1
        assert first == second

    def test_callable_stream_refused(self, example_bundle, tmp_path):
        fleet = Fleet()
        fleet.add_device(
            "c-0",
            example_bundle.system,
            example_bundle.costs,
            TimeoutAgent(3, 0, 1),
            rng=device_rng(0, 0),
            stream=CallableStream(lambda start, n: np.zeros(n, dtype=int)),
        )
        controller = FleetController(fleet, slices_per_tick=50)
        with pytest.raises(ValidationError, match="non-checkpointable"):
            controller.save_checkpoint(tmp_path / "fleet.ckpt")

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "not_a_checkpoint.ckpt"
        path.write_bytes(b"garbage")
        with pytest.raises(ValidationError, match="not readable|not a repro"):
            load_checkpoint(path)
        with pytest.raises(ValidationError, match="does not exist"):
            load_checkpoint(tmp_path / "missing.ckpt")


class TestBuildFleet:
    def test_example_spec_file_builds_and_steps(self):
        from pathlib import Path

        spec_path = (
            Path(__file__).resolve().parent.parent
            / "examples"
            / "fleet_spec.json"
        )
        raw = json.loads(spec_path.read_text())
        fleet, cache = build_fleet(raw)
        assert len(fleet) == 12
        # 8 identical optimal disks: one LP solve, deduped via the cache.
        assert cache.stats.misses == 1
        controller = FleetController(fleet, slices_per_tick=50)
        controller.run(1)
        grouping = controller.grouping()
        # Timeout disks step as lanes of the disk group and the
        # stream-driven edge devices as a stream group: nothing loops.
        assert sum(g["devices"] for g in grouping["vector_groups"]) == 12
        assert grouping["loop_devices"] == 0

    def test_inline_system_spec(self):
        raw = {
            "groups": [
                {
                    "count": 2,
                    "system": {
                        "name": "inline",
                        "queue_capacity": 1,
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
                            "transitions": [[0.9, 0.1], [0.2, 0.8]],
                            "arrivals": [0, 1],
                        },
                    },
                    "agent": {"type": "optimal", "penalty_bound": 0.5},
                }
            ]
        }
        fleet, _ = build_fleet(raw)
        assert len(fleet) == 2
        FleetController(fleet, slices_per_tick=50).run(1)

    def test_adaptive_auto_memory_agent(self):
        raw = {
            "groups": [
                {
                    "id": "auto",
                    "count": 1,
                    "system": "example",
                    "agent": {
                        "type": "adaptive",
                        "window": 50,
                        "refit_every": 30,
                        "auto_memory": True,
                        "memories": [1, 2],
                        "penalty_bound": 0.5,
                        "loss_bound": 0.25,
                    },
                }
            ]
        }
        fleet, _ = build_fleet(raw, base_seed=5)
        FleetController(fleet, slices_per_tick=60).run(2)
        agent = fleet.device("auto-0000").agent
        assert agent.refits >= 1
        assert agent.fitted_memory in (1, 2)
        assert "chain-estimator" in agent.describe()

    def test_spec_validation_errors(self):
        with pytest.raises(ValidationError, match="groups"):
            build_fleet({"groups": []})
        with pytest.raises(ValidationError, match="missing 'system'"):
            build_fleet({"groups": [{"agent": {"type": "optimal"}}]})
        with pytest.raises(ValidationError, match="unknown system"):
            build_fleet(
                {"groups": [{"system": "toaster", "agent": {"type": "optimal"}}]}
            )
        with pytest.raises(ValidationError, match="unknown agent type"):
            build_fleet(
                {"groups": [{"system": "example", "agent": {"type": "psychic"}}]}
            )

    def test_trace_workload_loaded_once_per_group(self, tmp_path):
        from repro.traces.trace import Trace

        path = tmp_path / "trace.txt"
        Trace([0.5, 1.5, 2.5], duration=4).save(path)
        raw = {
            "groups": [
                {
                    "count": 3,
                    "system": "example",
                    "agent": {"type": "timeout", "timeout": 2,
                              "active": "s_on", "sleep": "s_off"},
                    "workload": {
                        "type": "trace",
                        "path": str(path),
                        "resolution": 1.0,
                    },
                }
            ]
        }
        fleet, _ = build_fleet(raw)
        streams = [device.stream for device in fleet]
        # One shared backing buffer, one private cursor per device.
        assert all(
            np.shares_memory(s.counts, streams[0].counts)
            for s in streams[1:]
        )
        FleetController(fleet, slices_per_tick=10).run(1)
        assert all(s.position == 10 for s in streams)

    def test_infeasible_optimal_agent_reported(self):
        raw = {
            "groups": [
                {
                    "system": "example",
                    "agent": {"type": "optimal", "penalty_bound": 1e-9},
                }
            ]
        }
        with pytest.raises(ValidationError, match="infeasible"):
            build_fleet(raw)

    @pytest.mark.parametrize("formulation", ["average", "discounted"])
    def test_cpu_group_keeps_the_reactive_wake_mask(self, formulation):
        from repro.core.average_cost import AverageCostOptimizer
        from repro.core.optimizer import PolicyOptimizer
        from repro.systems import cpu

        agent = {
            "type": "optimal",
            "penalty_bound": 0.3,
            "formulation": formulation,
        }
        fleet, _ = build_fleet(
            {"groups": [{"system": "cpu", "count": 2, "agent": agent}]}
        )
        (device,) = build_group_devices({"system": "cpu", "agent": agent})
        bundle = cpu.build()
        if formulation == "average":
            optimizer = AverageCostOptimizer(
                bundle.system, bundle.costs, action_mask=bundle.action_mask
            )
        else:
            optimizer = PolicyOptimizer(
                bundle.system,
                bundle.costs,
                gamma=bundle.gamma,
                initial_distribution=bundle.initial_distribution,
                action_mask=bundle.action_mask,
            )
        expected = optimizer.minimize_power(penalty_bound=0.3).policy.matrix
        for built in (*fleet, device):
            matrix = built.agent.policy.matrix
            assert not matrix[~bundle.action_mask].any()
            assert np.array_equal(matrix, expected)


class TestCallerCache:
    """A caller's policy cache is used even while it is empty (and so
    falsy, since ``PolicyCache`` has a length)."""

    GROUP: ClassVar[dict] = {
        "id": "opt", "count": 2, "system": "example",
        "agent": {"type": "optimal", "penalty_bound": 0.5},
    }

    def test_build_fleet_keeps_an_empty_cache(self):
        cache = PolicyCache()
        _, used = build_fleet({"groups": [self.GROUP]}, cache=cache)
        assert used is cache
        assert (cache.stats.misses, cache.stats.hits) == (1, 0)

    def test_build_group_devices_keeps_an_empty_cache(self):
        cache = PolicyCache()
        build_group_devices(self.GROUP, cache=cache)
        assert (cache.stats.misses, cache.stats.hits) == (1, 0)
        build_group_devices(self.GROUP, group_index=1, cache=cache)
        assert (cache.stats.misses, cache.stats.hits) == (1, 1)

    def test_build_agent_from_spec_keeps_an_empty_cache(self, example_bundle):
        cache = PolicyCache()
        build_agent_from_spec(
            self.GROUP["agent"],
            example_bundle.system,
            example_bundle.costs,
            cache=cache,
        )
        assert (cache.stats.misses, cache.stats.hits) == (1, 0)

    def test_daemon_keeps_an_empty_cache(self, example_bundle):
        from types import SimpleNamespace

        from repro.service.daemon import FleetDaemon

        supervisor = SimpleNamespace(
            lp_backend="scipy",
            canonical_model=lambda device_id: (
                example_bundle.system, example_bundle.costs,
            ),
            replace_agents=lambda pairs: None,
        )
        cache = PolicyCache()
        daemon = FleetDaemon("unused.sock", supervisor, policy_cache=cache)
        params = {"device_id": "opt-0000", "agent": self.GROUP["agent"]}
        for _ in range(2):
            daemon._dispatch("update_policy", 1, params, channel=None)
        assert (cache.stats.misses, cache.stats.hits) == (1, 1)


# ----------------------------------------------------------------------
# bulk construction: byte-identical to device-by-device registration
# ----------------------------------------------------------------------
def _every_kind_spec(trace_path) -> dict:
    """Every agent kind and workload type, both row layouts, interleaved."""
    disk_timeout = {
        "type": "timeout", "timeout": 20,
        "active": "go_active", "sleep": "go_standby",
    }
    edge_timeout = {
        "type": "timeout", "timeout": 3, "active": "s_on", "sleep": "s_off",
    }
    return {
        "groups": [
            {
                "id": "opt-avg", "count": 5, "system": "disk_drive",
                "agent": {"type": "optimal", "penalty_bound": 0.5},
                "initial_state": ["active", "0", 0],
            },
            {
                "id": "opt-disc", "count": 4, "system": "example",
                "agent": {
                    "type": "optimal", "penalty_bound": 0.5,
                    "formulation": "discounted",
                },
                "seed": 2**32,
            },
            {
                "id": "eager", "count": 6, "system": "disk_drive",
                "agent": {
                    "type": "eager", "active": "go_active",
                    "sleep": "go_standby",
                },
                "seed": 0,
            },
            {
                "id": "const", "count": 3, "system": "example",
                "agent": {"type": "constant", "command": "s_on"},
            },
            {
                "id": "poisson", "count": 3, "system": "disk_drive",
                "agent": disk_timeout,
                "workload": {"type": "poisson", "rate_per_slice": 0.2},
                "initial_state": ["active", "0", 0],
            },
            {
                "id": "adaptive", "count": 2, "system": "example",
                "agent": {
                    "type": "adaptive", "window": 50, "refit_every": 30,
                    "penalty_bound": 0.5,
                },
                "workload": {"type": "mmpp2"},
            },
            {
                "id": "periodic", "count": 2, "system": "example",
                "agent": edge_timeout,
                "workload": {
                    "type": "periodic", "burst_length": 3, "gap_length": 7,
                },
            },
            {
                "id": "trace", "count": 3, "system": "example",
                "agent": edge_timeout,
                "workload": {
                    "type": "trace", "path": str(trace_path),
                    "resolution": 1.0,
                },
                "seed": 2**130 + 99,
            },
            {
                "id": "timeout", "count": 3, "system": "disk_drive",
                "agent": disk_timeout,
            },
        ]
    }


def _fleet_bytes(spec, base_seed) -> bytes:
    """The pickle of ``build_fleet(spec)``."""
    fleet, _ = build_fleet(spec, base_seed=base_seed)
    return pickle.dumps(fleet, protocol=4)


def _group_bytes(spec, base_seed) -> list[bytes]:
    """The pickle of each group's ``build_group_devices`` list."""
    return [
        pickle.dumps(
            build_group_devices(group, group_index=gi, base_seed=base_seed),
            protocol=4,
        )
        for gi, group in enumerate(spec["groups"])
    ]


def _trace_file(tmp_path):
    from repro.traces.trace import Trace

    path = tmp_path / "trace.txt"
    Trace([0.5, 1.5, 2.5, 6.0], duration=9).save(path)
    return path


def _force_failed_self_check():
    from unittest import mock

    from repro.sim import rng_batched

    return mock.patch.object(
        rng_batched,
        "_DERIVED",
        {"mult": None, "reason": "simulated unsupported build"},
    )


class TestBulkConstruction:
    """``build_fleet`` registers each group in bulk, with stream
    positions seeded in one array pass, and must build exactly the
    fleet that device-by-device construction built.

    ``tests/data/bulk_build_parent.pkl.xz`` holds that construction's
    bytes, ``{"fleet": _fleet_bytes(spec, 3), "groups": _group_bytes(spec,
    3)}`` for ``spec = _every_kind_spec(...)``, pickled (protocol 4) and
    lzma-compressed (``preset=9 | lzma.PRESET_EXTREME``).  It was written
    on the build before groups registered in bulk, whose
    ``_build_group`` registered each device with its own
    ``add_device(rng=device_rng(seed, i))`` call: a ``Device`` record
    built on a private one-row column set, then moved into the fleet.
    That build's ``CacheStats`` had a wall-clock ``solve_seconds``
    field, which the adaptive agents' policy cache pickled; it was
    deleted there before writing, as it is here.  (The trace file's
    path does not reach the pickles.)
    """

    PARENT = DATA / "bulk_build_parent.pkl.xz"
    BASE_SEED = 3

    @pytest.fixture(scope="class")
    def parent(self) -> dict:
        import lzma

        return pickle.loads(lzma.decompress(self.PARENT.read_bytes()))

    @staticmethod
    def _self_check(outcome):
        from contextlib import nullcontext

        if outcome == "passes":
            return nullcontext()
        return _force_failed_self_check()

    @pytest.mark.parametrize("self_check", ["passes", "fails"])
    def test_build_fleet_pickles_like_device_by_device_construction(
        self, tmp_path, parent, self_check
    ):
        spec = _every_kind_spec(_trace_file(tmp_path))
        with self._self_check(self_check):
            built = _fleet_bytes(spec, self.BASE_SEED)
        assert built == parent["fleet"]
        fleet = pickle.loads(built)
        assert len(fleet) == 31 and len(fleet.column_sets()) == 2

    @pytest.mark.parametrize("self_check", ["passes", "fails"])
    def test_build_group_devices_pickles_like_device_by_device_construction(
        self, tmp_path, parent, self_check
    ):
        spec = _every_kind_spec(_trace_file(tmp_path))
        with self._self_check(self_check):
            built = _group_bytes(spec, self.BASE_SEED)
        assert len(built) == len(parent["groups"]) == 9
        for group, mine, theirs in zip(spec["groups"], built, parent["groups"]):
            assert mine == theirs, group["id"]

    def test_built_streams_start_at_device_rng(self, tmp_path):
        spec = _every_kind_spec(_trace_file(tmp_path))
        fleet, _ = build_fleet(spec, base_seed=self.BASE_SEED)
        for gi, group in enumerate(spec["groups"]):
            seed = group.get("seed", self.BASE_SEED * 7919 + gi)
            for i in range(group["count"]):
                device = fleet.device(f"{group['id']}-{i:04d}")
                assert (
                    device.rng.bit_generator.state["state"]
                    == device_rng(seed, i).bit_generator.state["state"]
                )
                # Only stream-driven devices keep a generator object.
                assert (device._rng is None) == (device.stream is None)


class TestSeedValidation:
    """Negative seeds are spec errors naming their group, not numpy
    tracebacks from inside the stream seeding."""

    GROUP = {"id": "disks", "count": 2, "system": "example",
             "agent": {"type": "eager", "active": "s_on", "sleep": "s_off"}}

    @pytest.mark.parametrize("seed", [-5, 1.5, True, "7"])
    def test_group_seed_must_be_a_nonnegative_int(self, seed):
        group = dict(self.GROUP, seed=seed)
        with pytest.raises(ValidationError, match=r"groups\[0\] \('disks'\): seed"):
            build_fleet({"groups": [group]})
        with pytest.raises(ValidationError, match=r"'disks'\): seed"):
            build_group_devices(group)

    def test_negative_base_seed_names_the_group(self):
        with pytest.raises(ValidationError, match="group 'disks'.*>= 0"):
            build_fleet({"groups": [self.GROUP]}, base_seed=-1)
        with pytest.raises(ValidationError, match="group 'disks'.*>= 0"):
            build_group_devices(self.GROUP, base_seed=-1)
        with pytest.raises(ValidationError, match="group 'disks'.*>= 0"):
            build_group_devices(self.GROUP, group_index=-1)
        # A group with its own seed does not use the base seed.
        fleet, _ = build_fleet(
            {"groups": [dict(self.GROUP, seed=4)]}, base_seed=-1
        )
        assert len(fleet) == 2

    def test_cli_reports_a_negative_seed_as_a_spec_error(
        self, tmp_path, capsys
    ):
        from repro.tool.cli import main as cli_main

        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"groups": [self.GROUP]}))
        assert cli_main(["fleet", str(spec), "--seed", "-1"]) == 2
        assert "error: group 'disks'" in capsys.readouterr().err
        spec.write_text(json.dumps({"groups": [dict(self.GROUP, seed=-5)]}))
        assert cli_main(["fleet", str(spec)]) == 2
        assert "error: groups[0] ('disks'): seed" in capsys.readouterr().err


# ----------------------------------------------------------------------
# columnar state: row bookkeeping and the exactly-rounded fold
# ----------------------------------------------------------------------
class _ClockedTimeoutAgent(TimeoutAgent):
    """A timeout agent that also reads the slice index: every 16th
    slice it issues the active command whatever the timeout says, so a
    device whose slice count restarted at a tick would step otherwise."""

    def select_command(self, observation, rng):
        command = super().select_command(observation, rng)
        return self._active if observation.slice_index % 16 == 15 else command


def _timeout_lane_run(device, n_slices):
    """``device`` stepped as one timeout lane of the vector kernel from
    its current state: the lane's result, its accumulators (final idle
    counter and previous-slice arrivals) and the generator it drew."""
    from repro.core.policy import MarkovPolicy
    from repro.sim.backends.base import SimulationTables
    from repro.sim.backends.vector import (
        CompiledPolicyBatch,
        TimeoutLanes,
        _lane_result,
    )

    system, agent = device.system, device.agent
    tables = SimulationTables.compile(system, device.costs)
    compiled = CompiledPolicyBatch.compile(
        system,
        [
            MarkovPolicy.constant(command, system.n_states, system.n_commands)
            for command in (agent.active_command, agent.sleep_command)
        ],
    )
    rng = device.rng
    lane = np.zeros(1, dtype=np.int64)
    acc = VectorBackend().step_lanes(
        tables,
        compiled,
        lane,
        np.full(1, n_slices, dtype=np.int64),
        device.state,
        rng,
        timeouts=TimeoutLanes(
            lane, np.array([agent.timeout]), lane, lane + 1,
            np.array([agent.idle_slices]),
        ),
        prev_arrivals=np.array([device.prev_arrivals]),
    )
    return _lane_result(tables, acc, 0, n_slices), acc, rng


@pytest.fixture
def recipes(example_bundle, disk_bundle, eager_policy):
    """Device kinds by name: both layouts, vector and loop paths."""
    disk_policy = eager_markov_policy(
        disk_bundle.system, "go_active", "go_idle"
    )
    disk = disk_bundle.system.chain

    def build(fleet, device_id, kind, index):
        rng = device_rng(31, index)
        stream = None
        if kind == "ex-vec":
            bundle = example_bundle
            agent = StationaryPolicyAgent(bundle.system, eager_policy)
        elif kind == "disk-vec":
            bundle = disk_bundle
            agent = StationaryPolicyAgent(bundle.system, disk_policy)
        elif kind == "ex-loop":
            bundle = example_bundle
            agent = TimeoutAgent(4, 0, 1)
        elif kind == "ex-stream":
            bundle = example_bundle
            agent = TimeoutAgent(3, 0, 1)
            stream = MMPP2Stream(0.9, 0.8, rng)
        elif kind == "ex-trace":
            bundle = example_bundle
            agent = _ClockedTimeoutAgent(3, 0, 1)
            # Three ticks' worth at TestColumnarState.SLICES per tick.
            counts = np.random.default_rng(index).integers(0, 3, size=120)
            stream = TraceStream(counts, cycle=False)
        else:  # "disk-loop"
            bundle = disk_bundle
            agent = TimeoutAgent(
                6,
                disk.command_index("go_active"),
                disk.command_index("go_standby"),
            )
        return fleet.add_device(
            device_id,
            bundle.system,
            bundle.costs,
            agent,
            rng=rng,
            stream=stream,
        )

    return build


class TestColumnarState:
    """Fleet-owned columns: row bookkeeping never leaks into a device."""

    SLICES = 40

    def test_churn_matches_single_device_twins(self, recipes, disk_bundle):
        """Ticks interleaved with every membership change and a pickle
        round trip: each device ends bit-equal to a twin stepped alone,
        and a removed device's values stay frozen after its row is
        reused."""
        import pickle

        twins: dict = {}

        def twin(device_id, kind, index):
            solo = Fleet()
            recipes(solo, device_id, kind, index)
            twins[device_id] = FleetController(solo, slices_per_tick=self.SLICES)

        def add(fleet, device_id, kind, index):
            twin(device_id, kind, index)
            return recipes(fleet, device_id, kind, index)

        def tick(controller, members):
            controller.step_tick()
            for device_id in members:
                twins[device_id].step_tick()

        fleet = Fleet()
        for i, kind in enumerate(
            ["ex-vec", "disk-vec", "ex-loop", "disk-vec", "ex-stream",
             "ex-vec", "disk-loop", "disk-vec"]
        ):
            add(fleet, f"d-{i}", kind, i)
        controller = FleetController(fleet, slices_per_tick=self.SLICES)
        tick(controller, fleet.device_ids)

        # Remove a vector disk from the middle of its column set, then
        # register another disk: the freed row is refilled at once.
        columns, (row,) = fleet.rows_of([fleet.device("d-1")])
        removed = fleet.remove_device("d-1")
        frozen = _device_fingerprint(removed)
        add(fleet, "n-0", "disk-vec", 20)
        assert row < columns.n and columns.handles[row]() is not removed
        tick(controller, fleet.device_ids)

        # A live policy push on a loop device, mirrored on its twin.
        for target in (fleet, twins["d-2"].fleet):
            target.replace_agent("d-2", TimeoutAgent(2, 0, 1))
        # Adopt from a staging fleet that has stepped on its own.
        staging = Fleet()
        for device_id, kind, index in (
            ("s-0", "disk-vec", 30), ("s-1", "ex-loop", 31)
        ):
            add(staging, device_id, kind, index)
        tick(FleetController(staging, slices_per_tick=self.SLICES),
             staging.device_ids)
        for device_id in ("s-0", "s-1"):
            fleet.adopt_device(staging.device(device_id))
        assert len(staging) == 0
        tick(controller, fleet.device_ids)

        # A pickle round trip, then more churn on the restored fleet.
        fleet = pickle.loads(pickle.dumps(fleet, protocol=4))
        controller = FleetController(fleet, slices_per_tick=self.SLICES)
        tick(controller, fleet.device_ids)
        fleet.remove_device("d-6")
        add(fleet, "n-1", "ex-vec", 21)
        tick(controller, fleet.device_ids)

        assert _device_fingerprint(removed) == frozen
        assert frozen == _device_fingerprint(twins["d-1"].fleet.device("d-1"))
        for device in fleet:
            solo = twins[device.device_id].fleet.device(device.device_id)
            assert _device_fingerprint(device) == _device_fingerprint(solo), (
                device.device_id
            )
            columns, (row,) = fleet.rows_of([device])
            assert columns.handles[row]() is device
        assert fleet.total_slices == sum(device.slices for device in fleet)

    def test_tick_lands_single_run_results_on_rows(self, recipes):
        """One tick puts exactly what a single-run simulation of each
        device produces into its row: one-lane kernel runs for policy
        and timeout devices.  A trace-fed device on the loop (its agent
        reads the slice index) stepped over three ticks, carrying its
        previous-slice arrivals and slice index across them, lands what
        one trace-driven run over the concatenated counts produces."""
        kinds = ["disk-vec", "ex-vec", "disk-loop", "ex-loop", "disk-vec", "ex-trace"]
        fleet, reference = Fleet(), Fleet()
        for i, kind in enumerate(kinds):
            recipes(fleet, f"d-{i}", kind, i)
            recipes(reference, f"d-{i}", kind, i)

        def assert_lands(device, result, n_slices):
            assert device.state == result.final_state
            assert device.totals.tolist() == [
                result.totals[name] for name in device.metric_names
            ]
            assert device.command_counts.tolist() == (
                result.command_counts.tolist()
            )
            assert device.provider_occupancy.tolist() == (
                result.provider_occupancy.tolist()
            )
            assert (
                device.slices, device.arrivals, device.serviced,
                device.lost, device.loss_event_slices,
            ) == (
                n_slices, result.arrivals, result.serviced,
                result.lost, result.loss_event_slices,
            )

        controller = FleetController(fleet, slices_per_tick=self.SLICES)
        controller.run(1)
        for i, kind in enumerate(kinds):
            device, twin = fleet.device(f"d-{i}"), reference.device(f"d-{i}")
            if kind.endswith("vec"):
                policy = twin.agent.stationary_policy(twin.system)
                result = VectorBackend().simulate_batch(
                    twin.system, twin.costs, [policy], self.SLICES, twin.rng
                )[0][0]
            elif kind.endswith("loop"):
                # A model-driven TimeoutAgent steps as a timeout lane.
                result, acc, rng = _timeout_lane_run(twin, self.SLICES)
                assert device.agent.idle_slices == int(acc.idle[0])
                assert device.prev_arrivals == int(acc.prev_arrivals[0])
                assert (
                    device.rng.bit_generator.state == rng.bit_generator.state
                )
            else:
                continue
            assert_lands(device, result, self.SLICES)

        controller.run(2)
        device, twin = fleet.device("d-5"), reference.device("d-5")
        assert device.stream.position == 3 * self.SLICES
        result = simulate_trace(
            twin.system,
            twin.costs,
            twin.agent,
            twin.stream.counts,
            twin.rng,
            tracker=twin.tracker,
        )
        assert result.n_slices == 3 * self.SLICES
        assert_lands(device, result, 3 * self.SLICES)
        assert device.prev_arrivals == int(twin.stream.counts[-1])
        assert device.rng.bit_generator.state == twin.rng.bit_generator.state

    def test_stream_lane_carries_its_arrivals_across_ticks(
        self, example_bundle, eager_policy
    ):
        """A stream lane stepped over three ticks follows one
        trace-driven loop run over the concatenated counts draw for
        draw (every slice has arrivals, so the loop draws its service
        uniform every slice too).  Loss events at a tick's first slice
        read the previous tick's last arrivals, so they must carry."""
        system, costs = example_bundle.system, example_bundle.costs
        counts = np.random.default_rng(7).integers(1, 3, size=3 * self.SLICES)
        fleet = Fleet()
        device = fleet.add_device(
            "s-0", system, costs, StationaryPolicyAgent(system, eager_policy),
            rng=device_rng(31, 9), stream=TraceStream(counts, cycle=False),
        )
        controller = FleetController(fleet, slices_per_tick=self.SLICES)
        controller.run(3)
        assert controller._loop_devices == []
        twin_rng = device_rng(31, 9)
        result = simulate_trace(
            system, costs, StationaryPolicyAgent(system, eager_policy),
            counts, twin_rng,
        )
        assert result.loss_event_slices > 0
        assert device.state == result.final_state
        assert (
            device.slices, device.arrivals, device.serviced, device.lost,
            device.loss_event_slices,
        ) == (
            result.n_slices, result.arrivals, result.serviced, result.lost,
            result.loss_event_slices,
        )
        assert device.command_counts.tolist() == result.command_counts.tolist()
        assert (
            device.provider_occupancy.tolist()
            == result.provider_occupancy.tolist()
        )
        # The kernel adds a chunk's costs at a time, the loop a slice's.
        assert device.totals.tolist() == pytest.approx(
            [result.totals[name] for name in device.metric_names], rel=1e-12
        )
        assert device.prev_arrivals == int(counts[-1])
        assert device.rng.bit_generator.state == twin_rng.bit_generator.state

    def test_device_pickles_as_its_field_mapping(self, recipes):
        fleet = Fleet()
        device = recipes(fleet, "d-0", "disk-vec", 0)
        FleetController(fleet, slices_per_tick=self.SLICES).run(2)
        state = device.__getstate__()
        assert list(state) == [
            "device_id", "system", "costs", "agent", "rng", "stream",
            "tracker", "state", "prev_arrivals", "slices", "metric_names",
            "totals", "arrivals", "serviced", "lost", "loss_event_slices",
            "command_counts", "provider_occupancy",
        ]
        assert type(state["state"]) is tuple and type(state["slices"]) is int
        # A field mapping alone (what an existing checkpoint holds)
        # restores an equal, detached device.
        restored = Device.__new__(Device)
        restored.__setstate__(dict(state))
        assert _device_fingerprint(restored) == _device_fingerprint(device)
        restored.slices = 0
        assert device.slices == 2 * self.SLICES


    def test_agent_switches_carry_one_stream_across_paths(
        self, example_bundle, eager_policy, tmp_path
    ):
        """Eager (kernel) -> timeout (loop) -> eager, with a checkpoint
        and resume in between: the device ends bit-equal to a solo twin
        stepped the same way, stream position included."""
        fleet, solo = Fleet(), Fleet()
        for i in range(4):
            _stationary_device(
                example_bundle, eager_policy, fleet, f"d-{i}", 8, i
            )
        _stationary_device(example_bundle, eager_policy, solo, "d-2", 8, 2)
        controller = FleetController(fleet, slices_per_tick=self.SLICES)
        twin = FleetController(solo, slices_per_tick=self.SLICES)

        def switch(make_agent):
            for target in (controller.fleet, solo):
                target.replace_agent("d-2", make_agent())

        def tick():
            controller.step_tick()
            twin.step_tick()

        tick()
        switch(lambda: TimeoutAgent(3, 0, 1))
        tick()
        path = tmp_path / "switch.ckpt"
        controller.save_checkpoint(path)
        controller = FleetController.resume(path)
        tick()
        switch(
            lambda: StationaryPolicyAgent(example_bundle.system, eager_policy)
        )
        tick()
        device, alone = controller.fleet.device("d-2"), solo.device("d-2")
        assert _device_fingerprint(device) == _device_fingerprint(alone)
        assert device.slices == 4 * self.SLICES
        assert (
            device.rng.bit_generator.state == alone.rng.bit_generator.state
        )


class TestExactFold:
    """Fleet means are exactly rounded and order-independent."""

    def _fleet(self, example_bundle, eager_policy, averages):
        fleet = Fleet()
        for i, value in enumerate(averages):
            device = _stationary_device(
                example_bundle, eager_policy, fleet, f"d-{i}", 0, i
            )
            device.slices = 1
            device.totals[:] = value
        return fleet

    def test_mean_of_tenths_is_exact(self, example_bundle, eager_policy):
        fleet = self._fleet(example_bundle, eager_policy, [0.1] * 10)
        for record in (
            snapshot(fleet, 0),
            snapshot_from_records(0, [device_record(d) for d in fleet]),
        ):
            for stats in record["metrics"].values():
                assert stats == {"mean": 0.1, "min": 0.1, "max": 0.1}

    def test_fold_ignores_device_order(self, example_bundle, eager_policy):
        values = np.random.default_rng(3).lognormal(size=50).tolist()
        order = np.random.default_rng(4).permutation(50).tolist()
        forward = self._fleet(example_bundle, eager_policy, values)
        shuffled = self._fleet(
            example_bundle, eager_policy, [values[i] for i in order]
        )
        records = [device_record(d) for d in forward]
        expected = snapshot(forward, 0)["metrics"]
        assert snapshot(shuffled, 0)["metrics"] == expected
        assert (
            snapshot_from_records(0, [records[i] for i in order])["metrics"]
            == expected
        )

    def test_both_producers_agree_on_mixed_fleet(self, recipes):
        fleet = Fleet()
        for i, kind in enumerate(
            ["ex-vec", "disk-vec", "ex-stream", "disk-loop", "ex-vec"]
        ):
            recipes(fleet, f"d-{i}", kind, i)
        FleetController(fleet, slices_per_tick=90).run(2)
        fleet.remove_device("d-0")
        direct = snapshot(fleet, 2, per_device=True)
        folded = snapshot_from_records(
            2, [device_record(d) for d in fleet], per_device=True
        )
        assert json.dumps(direct) == json.dumps(folded)


class _HeadLayoutFleet:
    """Pickles ``fleet`` in the per-device form written before fleets
    pickled as columns: ``{"_devices": ..., "version": ...}``."""

    def __init__(self, fleet):
        self.fleet = fleet

    def __reduce__(self):
        state = {"_devices": dict(self.fleet._devices), "version": 7}
        return Fleet.__new__, (Fleet,), state


class TestFleetPickle:
    """A fleet pickles as its column arrays plus shared references."""

    @staticmethod
    def _growth_per_device(make_fleet) -> float:
        import pickle

        sizes = [
            len(pickle.dumps(make_fleet(n), protocol=4)) for n in (500, 1000)
        ]
        return (sizes[1] - sizes[0]) / 500

    def test_spec_fleet_shares_one_agent_per_group(self):
        import pickle

        def make(n):
            fleet, _ = build_fleet(
                {
                    "groups": [
                        {
                            "count": n,
                            "system": "disk_drive",
                            "agent": {"type": "optimal", "penalty_bound": 0.05},
                        }
                    ]
                },
                base_seed=1,
            )
            return fleet

        # ~6.7 KB per device when each device pickled its own agent
        # and field mapping.
        assert self._growth_per_device(make) < 600
        restored = pickle.loads(pickle.dumps(make(20), protocol=4))
        assert len({id(device.agent) for device in restored}) == 1

    def test_hand_built_fleet_pickles_agents_as_inputs(self, disk_bundle):
        import pickle

        policy = eager_markov_policy(disk_bundle.system, "go_active", "go_idle")

        def make(n):
            fleet = Fleet()
            for i in range(n):
                fleet.add_device(
                    f"disk-{i:04d}",
                    disk_bundle.system,
                    disk_bundle.costs,
                    StationaryPolicyAgent(disk_bundle.system, policy),
                    rng=device_rng(0, i),
                    initial_state=("active", "0", 0),
                )
            return fleet

        assert self._growth_per_device(make) < 600
        original = make(1).device("disk-0000").agent
        agent = pickle.loads(pickle.dumps(original, protocol=4))
        assert type(agent) is StationaryPolicyAgent
        for name in ("_matrix", "_cumsum", "_deterministic_row", "_greedy"):
            np.testing.assert_array_equal(
                getattr(agent, name), getattr(original, name)
            )

    def test_unpickling_agents_compiles_no_tables(
        self, disk_bundle, monkeypatch
    ):
        # One stationary agent per device: loading the fleet rebuilds
        # 1,000 agents, none of which the batch kernel samples from, so
        # none compiles its sampling tables until it is asked for a
        # command.
        from repro.policies import stochastic
        from repro.policies.base import Observation

        policy = eager_markov_policy(disk_bundle.system, "go_active", "go_idle")
        fleet = Fleet()
        for i in range(1000):
            fleet.add_device(
                f"disk-{i:04d}",
                disk_bundle.system,
                disk_bundle.costs,
                StationaryPolicyAgent(disk_bundle.system, policy),
                rng=device_rng(0, i),
            )
        blob = pickle.dumps(fleet, protocol=4)
        calls = []
        compile_rows = stochastic.categorical_cumsum

        def counting(*args, **kwargs):
            calls.append(args)
            return compile_rows(*args, **kwargs)

        monkeypatch.setattr(stochastic, "categorical_cumsum", counting)
        restored = pickle.loads(blob)
        assert len(restored) == 1000 and calls == []
        # The tables appear on first use and pick the original commands.
        original = fleet.device("disk-0000").agent
        agent = restored.device("disk-0000").agent
        for provider_state in range(disk_bundle.system.provider.n_states):
            observation = Observation(provider_state, 0, 0, 0, 0)
            assert agent.select_command(
                observation, device_rng(0, 0)
            ) == original.select_command(observation, device_rng(0, 0))

    def test_round_trip_rebuilds_columns(self, recipes):
        import pickle

        fleet = Fleet()
        kinds = ["disk-vec", "ex-vec", "ex-stream", "disk-loop", "ex-vec"]
        for i, kind in enumerate(kinds):
            recipes(fleet, f"d-{i}", kind, i)
        FleetController(fleet, slices_per_tick=60).run(2)
        fleet.remove_device("d-1")  # rows no longer in registration order
        restored = pickle.loads(pickle.dumps(fleet, protocol=4))
        assert restored.device_ids == fleet.device_ids
        assert restored.version == fleet.version
        # One column set per layout, each holding exactly its devices.
        assert len(restored.column_sets()) == 2
        for columns in restored.column_sets():
            assert columns.fleet is restored
            assert [handle().device_id for handle in columns.handles] == [
                device.device_id
                for device in restored
                if device._cols is columns
            ]
        for device in restored:
            twin = fleet.device(device.device_id)
            assert _device_fingerprint(device) == _device_fingerprint(twin)
        # A stream-driven device's stream still draws from its own rng.
        stream_device = restored.device("d-2")
        assert stream_device.stream._rng is stream_device.rng

    def test_resumed_fleet_resaves_like_the_uninterrupted_one(
        self, recipes, tmp_path
    ):
        """A resumed fleet's checkpoint bytes equal the never-stopped
        fleet's: its columns keep the dtype objects the rest of its
        unpickled graph shares."""
        import pickle

        kinds = ["disk-vec", "ex-vec", "ex-stream", "disk-loop"]

        def make():
            fleet = Fleet()
            for i, kind in enumerate(kinds):
                recipes(fleet, f"d-{i}", kind, i)
            return fleet

        uninterrupted = FleetController(make(), slices_per_tick=50)
        uninterrupted.run(4)
        controller = FleetController(make(), slices_per_tick=50)
        controller.run(2)
        path = tmp_path / "mid.ckpt"
        controller.save_checkpoint(path)
        resumed = FleetController.resume(path)
        resumed.run(2)
        assert pickle.dumps(resumed.fleet, protocol=4) == pickle.dumps(
            uninterrupted.fleet, protocol=4
        )

    def test_pickle_holds_generators_only_for_stream_devices(self):
        """Column-backed devices pickle their stream as a position row:
        the only generators in a spec fleet's pickle are the
        stream-driven devices', one each (shared with the stream)."""

        class CountingPickler(pickle.Pickler):
            generators = 0

            def reducer_override(self, obj):
                # Called once per object pickle has not memoized yet.
                if isinstance(obj, np.random.Generator):
                    self.generators += 1
                return NotImplemented

        raw = json.loads((DATA / "compat_fleet_spec.json").read_text())
        fleet, _ = build_fleet(raw, base_seed=3)
        FleetController(fleet, slices_per_tick=20).run(2)
        streamed = [device for device in fleet if device.stream is not None]
        assert 0 < len(streamed) < len(fleet)
        pickler = CountingPickler(io.BytesIO(), protocol=4)
        pickler.dump(fleet)
        assert pickler.generators == len(streamed)
        for device in fleet:
            has_generator = device.stream is not None
            assert (device._rng is not None) == has_generator
            row = device._cols.pcg[[device._row]]
            assert bool(holds_position(row)[0]) != has_generator

    def test_head_layout_state_still_loads(self, recipes, tmp_path):
        """A checkpoint whose fleet is in the per-device form resumes
        and emits the uninterrupted run's telemetry."""
        from repro.runtime import checkpoint_payload
        from repro.runtime.checkpoint import write_checkpoint

        kinds = ["disk-vec", "ex-vec", "ex-stream", "disk-loop", "ex-loop"]

        def make():
            fleet = Fleet()
            for i, kind in enumerate(kinds):
                recipes(fleet, f"d-{i}", kind, i)
            return fleet

        reference = MemoryTelemetry()
        FleetController(make(), slices_per_tick=70, telemetry=reference).run(6)

        controller = FleetController(make(), slices_per_tick=70)
        controller.run(3)
        payload = checkpoint_payload(controller.fleet, 3, 70, 1, False)
        payload["fleet"] = _HeadLayoutFleet(controller.fleet)
        path = tmp_path / "head.ckpt"
        write_checkpoint(path, payload)

        resumed_sink = MemoryTelemetry()
        resumed = FleetController.resume(path, telemetry=resumed_sink)
        assert resumed.fleet.version == 7
        assert resumed.fleet.device_ids == controller.fleet.device_ids
        resumed.run(3)
        assert [json.dumps(r) for r in resumed_sink.records] == [
            json.dumps(r) for r in reference.records[3:]
        ]


class TestParentCheckpoint:
    """A checkpoint written before stream positions were a fleet column
    (``tests/data/compat_fleet_parent.ckpt``: ``repro-dpm fleet
    tests/data/compat_fleet_spec.json --seed 3 --ticks 3 --per-device
    --checkpoint ...`` on that build)."""

    CHECKPOINT = DATA / "compat_fleet_parent.ckpt"

    def test_generators_become_positions(self):
        fleet = load_checkpoint(self.CHECKPOINT)["fleet"]
        kinds = {device.device_id.split("-")[0] for device in fleet}
        assert kinds == {"opt", "eager", "timeout", "mmpp"}
        for device in fleet:
            row = device._cols.pcg[[device._row]]
            if device.stream is None:
                assert device._rng is None
                assert holds_position(row).all()
            else:
                # Stream-driven devices keep the generator their stream
                # shares.
                assert device.stream._rng is device.rng
                assert not holds_position(row).any()

    def test_resume_continues_this_builds_uninterrupted_run(
        self, tmp_path, capsys
    ):
        """The parent's model-driven timeout devices stepped on the
        loop; they now step as kernel timeout lanes, which consume
        their streams in fixed blocks.  So the per-device records of
        the kinds whose path is unchanged (opt, eager, and the
        stream-driven timeout agents of ``mmpp``) continue this build's
        uninterrupted run byte for byte, and the whole fleet continues
        from the parent checkpoint the same whether stepped in one run
        or checkpointed and resumed on the way."""
        from repro.tool.cli import main as cli_main

        full = tmp_path / "full.jsonl"
        resumed = tmp_path / "resumed.jsonl"
        assert cli_main([
            "fleet", str(DATA / "compat_fleet_spec.json"), "--seed", "3",
            "--ticks", "6", "--per-device", "--telemetry", str(full),
        ]) == 0
        assert cli_main([
            "fleet", "--resume", str(self.CHECKPOINT), "--ticks", "3",
            "--telemetry", str(resumed),
        ]) == 0
        lines = full.read_bytes().splitlines(keepends=True)
        assert len(lines) == 6
        resumed_lines = resumed.read_bytes().splitlines(keepends=True)
        assert len(resumed_lines) == 3

        def unchanged_paths(line):
            return [
                json.dumps(record)
                for record in json.loads(line)["devices"]
                if record["id"].split("-")[0] in ("opt", "eager", "mmpp")
            ]

        for resumed_line, line in zip(resumed_lines, lines[3:]):
            assert unchanged_paths(resumed_line) == unchanged_paths(line)
            assert len(unchanged_paths(line)) == 35

        # Resume == uninterrupted from the parent checkpoint, every
        # device included.
        split = tmp_path / "split.jsonl"
        midway = tmp_path / "midway.ckpt"
        assert cli_main([
            "fleet", "--resume", str(self.CHECKPOINT), "--ticks", "1",
            "--telemetry", str(split), "--checkpoint", str(midway),
        ]) == 0
        assert cli_main([
            "fleet", "--resume", str(midway), "--ticks", "2",
            "--telemetry", str(split),
        ]) == 0
        assert split.read_bytes() == resumed.read_bytes()
