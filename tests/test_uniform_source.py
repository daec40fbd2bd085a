"""The UniformSource API: byte-identical uniform producers.

The contract under test is the tentpole of the vectorized fan-in: a
:class:`~repro.sim.rng_batched.BatchedPCG64Source` serves every lane
the *same bytes* its device's private ``Generator.random`` would — for
any chunk size, across consecutive variable-shape requests, across
lane-block boundaries, and through checkpoint/resume and shard
re-partitioning — with the position rows it advances in place landing
on the exact states a serial fan-in leaves.  When the guarantee cannot
be given (non-PCG64 streams, a buffered half-draw, a numpy build that
fails the self-check), the fleet controller serves the lane block from
the serial :class:`~repro.sim.rng.FanInSource` instead, and a
:class:`~repro.sim.rng_batched.BatchedPCG64Source` built directly
raises, naming the cause.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.runtime import (
    Fleet,
    FleetController,
    MemoryTelemetry,
    device_rng,
)
from repro.sim import rng_batched
from repro.sim.rng import FanInSource, UniformSource
from repro.sim.rng_batched import (
    BatchedPCG64Source,
    batched_available,
    derive_pcg64_multiplier,
    device_positions,
    holds_position,
    pcg64_generator,
    pcg64_position,
)
from repro.util.validation import ValidationError


def _generators(n, seed=7):
    return [
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        for i in range(n)
    ]


def _positions(generators):
    """A position column holding ``generators``' streams (lane order)."""
    return np.array(
        [pcg64_position(generator) for generator in generators],
        dtype=np.uint64,
    )


def _reference_block(generators, chunk, n_kinds):
    out = np.empty((chunk, n_kinds, len(generators)))
    for lane, generator in enumerate(generators):
        out[:, :, lane] = generator.random((chunk, n_kinds))
    return out


# ----------------------------------------------------------------------
# the protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_sources_satisfy_protocol(self):
        generators = _generators(3)
        assert isinstance(FanInSource(generators), UniformSource)
        assert isinstance(
            BatchedPCG64Source(_positions(generators)), UniformSource
        )

    def test_plain_generator_satisfies_protocol(self):
        # Structural typing: the single-run simulate() path keeps
        # passing bare generators with no adapter.
        assert isinstance(np.random.default_rng(0), UniformSource)


# ----------------------------------------------------------------------
# FanInSource: the serial reference producer + request validation
# ----------------------------------------------------------------------
class TestFanInSource:
    def test_per_lane_byte_identity(self):
        generators = _generators(9)
        reference = _generators(9)
        source = FanInSource(generators)
        block = source.random((13, 4, 9))
        assert (block == _reference_block(reference, 13, 4)).all()

    def test_lane_count_mismatch_raises(self):
        source = FanInSource(_generators(4))
        with pytest.raises(ValidationError, match="4 lanes"):
            source.random((8, 4, 5))

    def test_declared_kinds_mismatch_raises(self):
        # Satellite contract: a mismatched (chunk, kinds) request must
        # raise instead of silently desynchronizing every lane's stream.
        source = FanInSource(_generators(4), n_kinds=4)
        with pytest.raises(ValidationError, match="desynchronize"):
            source.random((8, 3, 4))

    def test_chunk_cap_exceeded_raises(self):
        source = FanInSource(_generators(4), n_kinds=4, max_chunk=16)
        with pytest.raises(ValidationError, match="chunk cap"):
            source.random((17, 4, 4))

    def test_non_block_request_raises(self):
        source = FanInSource(_generators(4))
        with pytest.raises(ValidationError, match="chunk, kinds, lanes"):
            source.random((8, 4))
        with pytest.raises(ValidationError, match="> 0"):
            source.random((0, 4, 4))


# ----------------------------------------------------------------------
# the vectorized kernel
# ----------------------------------------------------------------------
class TestBatchedKernel:
    def test_multiplier_derivation_is_consistent(self):
        mult = derive_pcg64_multiplier()
        assert mult is not None
        # It must actually reproduce an observed transition.
        bit_generator = np.random.PCG64(99)
        inc = bit_generator.state["state"]["inc"]
        before = bit_generator.state["state"]["state"]
        bit_generator.random_raw(1)
        after = bit_generator.state["state"]["state"]
        assert (before * mult + inc) % (1 << 128) == after

    def test_available_on_this_build(self):
        assert batched_available()

    def test_supports_generator(self):
        assert pcg64_position(np.random.default_rng(0)) is not None
        mt = np.random.Generator(np.random.MT19937(0))
        assert pcg64_position(mt) is None
        assert pcg64_position(object()) is None

    def test_buffered_half_draw_is_unsupported(self):
        generator = np.random.default_rng(0)
        generator.integers(0, 10, dtype=np.uint32)  # buffers a uint32
        assert generator.bit_generator.state["has_uint32"]
        assert pcg64_position(generator) is None

    def test_positions_roundtrip_generators(self):
        generator = _generators(1)[0]
        generator.random(5)
        position = pcg64_position(generator)
        assert position is not None
        twin = pcg64_generator(position)
        assert twin.bit_generator.state == generator.bit_generator.state
        assert (twin.random(4) == generator.random(4)).all()
        mt = np.random.Generator(np.random.MT19937(0))
        assert pcg64_position(mt) is None

    def test_zero_rows_hold_no_position(self):
        positions = _positions(_generators(3))
        positions[1] = 0
        assert holds_position(positions).tolist() == [True, False, True]

    def test_streams_roundtrip_state_dicts(self):
        # A row is [state_hi, state_lo, inc_hi, inc_lo]: the integers of
        # the generator's pickled ``bit_generator.state`` dict.
        generators = _generators(5)
        positions = _positions(generators)
        assert BatchedPCG64Source(positions).n_lanes == 5
        for (s_hi, s_lo, inc_hi, inc_lo), generator in zip(
            positions.tolist(), generators
        ):
            assert {
                "state": s_hi << 64 | s_lo,
                "inc": inc_hi << 64 | inc_lo,
            } == generator.bit_generator.state["state"]

    def test_streams_reject_bad_stack_shape(self):
        with pytest.raises(ValidationError, match=r"\(n, 4\) uint64"):
            BatchedPCG64Source(np.zeros((3, 3), dtype=np.uint64))

    def test_streams_reject_non_pcg64_naming_lane(self):
        # A non-PCG64 stream has no position, so its row stays zero.
        generators = _generators(3)
        generators[2] = np.random.Generator(np.random.MT19937(0))
        assert pcg64_position(generators[2]) is None
        positions = np.zeros((3, 4), dtype=np.uint64)
        positions[:2] = _positions(generators[:2])
        with pytest.raises(ValidationError, match="lane 2"):
            BatchedPCG64Source(positions)

    def test_uniform_block_rejects_empty_request(self):
        source = BatchedPCG64Source(_positions(_generators(3)))
        with pytest.raises(ValidationError, match="chunk must be > 0"):
            source.random((0, 4, 3))
        with pytest.raises(ValidationError, match="kinds must be > 0"):
            source.random((4, 0, 3))

    @pytest.mark.parametrize("chunk", [1, 2, 17, 64, 256])
    def test_byte_identity_across_chunk_sizes(self, chunk):
        generators = _generators(33)
        reference = _generators(33)
        source = BatchedPCG64Source(_positions(generators))
        block = source.random((chunk, 4, 33))
        assert block.shape == (chunk, 4, 33)
        assert (block == _reference_block(reference, chunk, 4)).all()

    def test_consecutive_variable_shape_calls(self):
        reference = _generators(21)
        positions = _positions(_generators(21))
        source = BatchedPCG64Source(positions)
        for chunk, kinds in ((17, 4), (5, 3), (1, 1), (30, 4)):
            block = source.random((chunk, kinds, 21))
            assert (
                block == _reference_block(reference, chunk, kinds)
            ).all()
        # After all draws every row is its generator's position.
        for lane, generator in enumerate(reference):
            assert tuple(positions[lane].tolist()) == pcg64_position(generator)


# ----------------------------------------------------------------------
# BatchedPCG64Source: the fleet-facing source
# ----------------------------------------------------------------------
class TestBatchedSource:
    def test_draws_advance_positions_exactly(self):
        # Lanes are rows 5, 0 and 3 of an 8-row column: those rows
        # advance in place by exactly the draws served, the rest stay.
        generators = _generators(8)
        positions = _positions(generators)
        untouched = positions.copy()
        rows = [5, 0, 3]
        source = BatchedPCG64Source(positions, rows, n_kinds=4)
        first = source.random((11, 4, 3))
        second = source.random((5, 4, 3))
        for lane, row in enumerate(rows):
            expected = generators[row].random((16, 4))
            assert (first[:, :, lane] == expected[:11]).all()
            assert (second[:, :, lane] == expected[11:]).all()
            assert tuple(positions[row].tolist()) == pcg64_position(
                generators[row]
            )
        others = [row for row in range(8) if row not in rows]
        assert (positions[others] == untouched[others]).all()
        # A generator materialized at an advanced row continues it.
        for row in rows:
            assert (
                pcg64_generator(positions[row]).random(3)
                == generators[row].random(3)
            ).all()

    def test_sync_without_draws_is_noop(self):
        positions = _positions(_generators(2))
        before = positions.copy()
        source = BatchedPCG64Source(positions)
        source.sync()
        assert (positions == before).all()

    def test_validates_declared_geometry(self):
        source = BatchedPCG64Source(
            _positions(_generators(6)), n_kinds=4, max_chunk=32
        )
        with pytest.raises(ValidationError, match="desynchronize"):
            source.random((8, 3, 6))
        with pytest.raises(ValidationError, match="chunk cap"):
            source.random((33, 4, 6))
        with pytest.raises(ValidationError, match="6 lanes"):
            source.random((8, 4, 5))

    def test_rejects_ineligible_generator(self):
        # The row of a device whose stream is a generator object (here
        # an MT19937) holds no position.
        positions = _positions(_generators(3))
        positions[1] = 0
        with pytest.raises(ValidationError, match="lane 1"):
            BatchedPCG64Source(positions)
        with pytest.raises(ValidationError, match="lane 0"):
            BatchedPCG64Source(positions, [1, 2])
        with pytest.raises(ValidationError, match=r"\(n, 4\) uint64"):
            BatchedPCG64Source(positions.astype(np.int64))

    def test_unavailable_build_raises_with_reason(self, monkeypatch):
        positions = _positions(_generators(2))
        _simulate_unsupported_build(monkeypatch)
        assert not batched_available()
        with pytest.raises(ValidationError, match="simulated unsupported"):
            BatchedPCG64Source(positions)


# ----------------------------------------------------------------------
# seeding: device_positions == device_rng
# ----------------------------------------------------------------------
def _device_rng_rows(seed, indices):
    return np.array(
        [pcg64_position(device_rng(seed, int(i))) for i in indices],
        dtype=np.uint64,
    )


class TestDevicePositions:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**130),
        index=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(seed=0, index=0)
    @example(seed=2**32, index=0)
    @example(seed=5 * 2**32, index=2**32 - 1)
    @example(seed=2**128, index=1)
    @example(seed=2**130, index=0)
    def test_kernel_matches_device_rng(self, seed, index):
        # One-word indices are seeded by the array kernel.
        assert batched_available()
        got = device_positions(seed, [index, 0])
        assert (got == _device_rng_rows(seed, [index, 0])).all()

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**31 - 1, 2**40 + 7])
    def test_block_matches_device_rng(self, seed):
        indices = np.arange(3000)
        assert (
            device_positions(seed, indices) == _device_rng_rows(seed, indices)
        ).all()

    def test_two_word_indices_take_device_rng(self):
        # An index >= 2**32 is a two-word spawn key: the rows the kernel
        # cannot seed come from device_rng, in place among the others.
        indices = [2**32, 3, 2**32 + 7, 2**40 + 1, 2**32 - 1]
        assert (
            device_positions(99, indices) == _device_rng_rows(99, indices)
        ).all()

    def test_failed_self_check_falls_back_to_device_rng(self, monkeypatch):
        _simulate_unsupported_build(monkeypatch)
        indices = np.arange(50)
        assert (
            device_positions(11, indices) == _device_rng_rows(11, indices)
        ).all()

    def test_self_check_covers_seeding(self, monkeypatch):
        # A kernel that seeds one lane wrong fails the first-use check,
        # which switches the vectorized paths off and says why; the
        # positions still come out right, through device_rng.
        seed_block = rng_batched._seed_block

        def off_by_one(seed, words, mult):
            block = seed_block(seed, words, mult)
            block[-1, 0] ^= np.uint64(1)
            return block

        monkeypatch.setattr(rng_batched, "_DERIVED", None)
        monkeypatch.setattr(rng_batched, "_seed_block", off_by_one)
        assert not batched_available()
        assert "seeding" in rng_batched.batched_unavailable_reason()
        indices = np.arange(20)
        assert (
            device_positions(5, indices) == _device_rng_rows(5, indices)
        ).all()

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match=">= 0"):
            device_positions(-1, [0])


# ----------------------------------------------------------------------
# the controller's producer choice
# ----------------------------------------------------------------------
def _simulate_unsupported_build(monkeypatch):
    """Make the PCG64 self-check report failure, as on a numpy build
    whose PCG64 the vectorized path cannot reproduce."""
    monkeypatch.setattr(
        rng_batched,
        "_DERIVED",
        {"mult": None, "reason": "simulated unsupported build"},
    )


def _stationary_fleet(n, seed=0):
    from repro.policies import StationaryPolicyAgent, eager_markov_policy
    from repro.systems import disk_drive

    bundle = disk_drive.build()
    policy = eager_markov_policy(bundle.system, "go_active", "go_sleep")
    fleet = Fleet()
    for i in range(n):
        fleet.add_device(
            f"disk-{i:04d}",
            bundle.system,
            bundle.costs,
            StationaryPolicyAgent(bundle.system, policy),
            rng=device_rng(seed, i),
        )
    return fleet


def _run_records(fleet, ticks=3, slices=700, **kwargs):
    sink = MemoryTelemetry()
    controller = FleetController(
        fleet,
        slices_per_tick=slices,
        telemetry=sink,
        telemetry_per_device=True,
        **kwargs,
    )
    controller.run(ticks)
    return controller, sink.records


def _lines(records):
    return [json.dumps(record, sort_keys=True) for record in records]


def _producers(controller):
    """The uniform source type of every lane block, in stepping order."""
    return [
        type(source).__name__
        for group in controller._vector_groups
        for source in group._sources.values()
    ]


class TestControllerKnob:
    """The controller's one producer rule: the batched source for a lane
    block exactly when the self-check passed and every stream is a
    clean PCG64, else the serial fan-in — with identical bytes."""

    def test_fanin_batched_auto_byte_identical(self, monkeypatch):
        fleet = _stationary_fleet(40)
        controller, batched = _run_records(fleet)
        assert _producers(controller) == ["BatchedPCG64Source"]
        batched_states = [device.rng.bit_generator.state for device in fleet]

        _simulate_unsupported_build(monkeypatch)
        fleet = _stationary_fleet(40)
        controller, fanin = _run_records(fleet)
        assert _producers(controller) == ["FanInSource"]
        assert _lines(fanin) == _lines(batched)
        assert [device.rng.bit_generator.state for device in fleet] == batched_states

    def test_unsupported_build_steps_every_block_on_fanin(self, monkeypatch):
        from repro.runtime import controller as controller_module

        _simulate_unsupported_build(monkeypatch)
        monkeypatch.setattr(controller_module, "FLEET_LANE_BLOCK", 4)
        controller, _ = _run_records(_stationary_fleet(11), ticks=1, slices=50)
        assert _producers(controller) == ["FanInSource"] * 3

    def test_block_boundaries_are_bitwise_neutral(self, monkeypatch):
        # Shrink the lane block so 11 devices split 4|4|3: per-lane
        # streams must not notice which block (or source) serves them.
        from repro.runtime import controller as controller_module

        fleet_small = _stationary_fleet(11)
        monkeypatch.setattr(controller_module, "FLEET_LANE_BLOCK", 4)
        _, split = _run_records(fleet_small, ticks=2)
        monkeypatch.undo()
        fleet_whole = _stationary_fleet(11)
        _, whole = _run_records(fleet_whole, ticks=2)
        assert _lines(split) == _lines(whole)

    def test_mixed_generator_fleet_auto_falls_back(self, monkeypatch):
        # One MT19937 device sends its lane block to the fan-in; the
        # same fleet on an unsupported build (fan-in everywhere) agrees.
        fleet = _stationary_fleet(6)
        devices = list(fleet)
        devices[3].rng = np.random.Generator(np.random.MT19937(5))
        controller, auto_records = _run_records(fleet, ticks=2)
        assert _producers(controller) == ["FanInSource"]
        _simulate_unsupported_build(monkeypatch)
        reference = _stationary_fleet(6)
        list(reference)[3].rng = np.random.Generator(np.random.MT19937(5))
        _, fanin_records = _run_records(reference, ticks=2)
        assert _lines(auto_records) == _lines(fanin_records)

    def test_spec_built_fleet_uses_batched_producer(self):
        # The fast path can only be lost silently (a spec-built device
        # whose generator is not a clean PCG64), so pin it.
        from pathlib import Path

        from repro.runtime import build_fleet

        if not batched_available():
            pytest.skip("vectorized PCG64 unavailable on this numpy build")
        spec_path = (
            Path(__file__).resolve().parent.parent
            / "examples"
            / "fleet_spec.json"
        )
        fleet, _ = build_fleet(json.loads(spec_path.read_text()))
        controller = FleetController(fleet, slices_per_tick=20)
        controller.step_tick()
        # Every model-driven block is batched.  The stream group's
        # devices keep the generators their streams draw from, so the
        # fan-in serves it by design.
        producers = {
            (group.stream_driven, type(source).__name__)
            for group in controller._vector_groups
            for source in group._sources.values()
        }
        assert producers == {
            (False, "BatchedPCG64Source"),
            (True, "FanInSource"),
        }


class TestAssignedStreams:
    """Assigning ``device.rng`` between ticks redirects the device's
    next draws to the assigned stream, whichever producer serves it."""

    SLICES = 50

    def _eager_fleet(self, n):
        from repro.policies import StationaryPolicyAgent, eager_markov_policy
        from repro.systems import example_system

        bundle = example_system.build()
        policy = eager_markov_policy(bundle.system, "s_on", "s_off")
        fleet = Fleet()
        for i in range(n):
            fleet.add_device(
                f"dev-{i}",
                bundle.system,
                bundle.costs,
                StationaryPolicyAgent(bundle.system, policy),
                rng=device_rng(0, i),
            )
        return fleet

    @pytest.mark.parametrize("producer", ["BatchedPCG64Source", "FanInSource"])
    def test_next_tick_draws_from_the_assigned_stream(
        self, monkeypatch, producer
    ):
        if producer == "FanInSource":
            _simulate_unsupported_build(monkeypatch)
        fleet = self._eager_fleet(3)
        controller = FleetController(fleet, slices_per_tick=self.SLICES)
        controller.step_tick()
        assert _producers(controller) == [producer]
        device = fleet.device("dev-0")
        version = fleet.version
        device.rng = device_rng(99, 0)
        assert fleet.version == version  # a position swap, no regroup
        controller.step_tick()
        (group,) = controller._vector_groups
        n_kinds = 3 if group.compiled.fully_deterministic else 4
        expected = device_rng(99, 0)
        expected.random((self.SLICES, n_kinds))
        assert device.rng.bit_generator.state == expected.bit_generator.state

    def test_foreign_generator_moves_the_block_to_the_fan_in(self):
        fleet = self._eager_fleet(3)
        controller = FleetController(fleet, slices_per_tick=self.SLICES)
        controller.step_tick()
        assert _producers(controller) == ["BatchedPCG64Source"]
        device = fleet.device("dev-1")
        mt = np.random.Generator(np.random.MT19937(5))
        version = fleet.version
        device.rng = mt
        assert fleet.version == version + 1
        assert device.rng is mt
        controller.step_tick()
        assert _producers(controller) == ["FanInSource"]
        expected = np.random.Generator(np.random.MT19937(5))
        expected.random((self.SLICES, 3))
        assert (mt.random(4) == expected.random(4)).all()
        # A clean PCG64 again: back to a position and the batched path.
        device.rng = device_rng(7, 1)
        assert fleet.version == version + 2
        controller.step_tick()
        assert _producers(controller) == ["BatchedPCG64Source"]


# ----------------------------------------------------------------------
# checkpoint/resume and shard transport with batched active
# ----------------------------------------------------------------------
class TestPersistence:
    def test_checkpoint_resume_byte_identity(self, tmp_path):
        # Uninterrupted batched run vs checkpoint-at-2 + resumed run.
        _, straight = _run_records(_stationary_fleet(24), ticks=4)
        fleet = _stationary_fleet(24)
        controller, records = _run_records(fleet, ticks=2)
        path = tmp_path / "fleet.ckpt"
        controller.save_checkpoint(path)
        resumed = FleetController.resume(path, telemetry=None)
        sink = MemoryTelemetry()
        resumed._telemetry = sink
        resumed._telemetry_per_device = True
        resumed.run(2)
        assert _lines(records + sink.records) == _lines(straight)

    def test_pre_knob_checkpoint_resumes_as_auto(self, tmp_path):
        # Checkpoints of earlier builds carry a ``uniform_source``
        # field; it is ignored, and the run continues byte-identically.
        from repro.runtime.checkpoint import (
            CHECKPOINT_FIELDS,
            load_checkpoint,
            write_checkpoint,
        )

        _, straight = _run_records(_stationary_fleet(8), ticks=3, slices=50)
        controller, prefix = _run_records(
            _stationary_fleet(8), ticks=2, slices=50
        )
        path = tmp_path / "fleet.ckpt"
        controller.save_checkpoint(path)
        payload = load_checkpoint(path)
        assert set(payload) == CHECKPOINT_FIELDS
        assert "uniform_source" not in payload
        payload["uniform_source"] = "fanin"
        legacy = tmp_path / "legacy.ckpt"
        write_checkpoint(legacy, payload)
        sink = MemoryTelemetry()
        resumed = FleetController.resume(legacy, telemetry=sink)
        resumed.run(1)
        assert _lines(prefix + sink.records) == _lines(straight)

    def test_shard_repartition_identity_with_batched(self, tmp_path):
        # A 2-shard batched daemon's telemetry continues a 1-process
        # fanin run byte-for-byte after resuming its checkpoint with a
        # different partitioning.
        from repro.runtime.telemetry import snapshot_from_records
        from repro.service import ShardSupervisor

        _, straight = _run_records(
            _stationary_fleet(10), ticks=4, slices=200
        )
        fleet = _stationary_fleet(10)
        controller, prefix = _run_records(fleet, ticks=2, slices=200)
        path = tmp_path / "fleet.ckpt"
        controller.save_checkpoint(path)
        payload_fleet = FleetController.resume(path).fleet
        supervisor = ShardSupervisor(
            2,
            slices_per_tick=200,
            checkpoint_every=0,
        )
        supervisor.start(payload_fleet, tick=2)
        try:
            tail = []
            for _ in range(2):
                supervisor.step_tick()
                tail.append(
                    snapshot_from_records(
                        supervisor.tick,
                        supervisor.collect_records(),
                        per_device=True,
                    )
                )
            assert "uniform_source" not in supervisor.info()
        finally:
            supervisor.stop()
        assert _lines(prefix + tail) == _lines(straight)
