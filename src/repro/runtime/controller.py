"""The fleet controller: step thousands of devices through time.

:class:`FleetController` advances a registered
:class:`~repro.runtime.fleet.Fleet` tick by tick
(``slices_per_tick`` slices each).  The hot path is *grouped batch
stepping*: devices sharing a ``(system, costs, policy-determinism)``
signature are packed into one batch of the joint-state chunk kernel —
their distinct policies stacked into a single
:class:`~repro.sim.backends.vector.CompiledPolicyBatch` — so a
thousand stationary devices advance in a handful of fused calls per
chunk instead of a thousand Python loops.  The kernel is
:mod:`~repro.sim.backends.vector`'s lane stepper; groups of 100k+
devices are sharded into :data:`FLEET_LANE_BLOCK`-lane blocks to bound
buffer sizes.  One rule on the device alone picks its lane kind
(:func:`_lane_key`):

* a *policy lane*: a stationary agent and model-driven arrivals
  (:attr:`~repro.runtime.fleet.Device.vector_eligible`);
* a *timeout lane*: exactly a
  :class:`~repro.policies.timeout.TimeoutAgent` (not a subclass, which
  may read more of the observation) and model-driven arrivals.  It
  joins its model's deterministic policy group and steps on the
  kernel's timeout rule
  (:class:`~repro.sim.backends.vector.TimeoutLanes`), its idle counter
  kept in the agent;
* a *stream lane*: a stationary agent, an arrival stream and exactly a
  :class:`~repro.sim.trace_sim.NearestArrivalTracker`.  Stream lanes
  form groups of their own and step on the kernel's counts-driven
  mode, fed each tick's ``next_counts`` block;
* everything else (adaptive agents, other heuristics, timeout agents
  with a stream, custom trackers) steps on a per-device loop that
  resumes each device through the loop path's one per-slice
  interpreter, :func:`~repro.sim.backends.loop.run_slices` — the same
  loop :class:`~repro.sim.backends.loop.LoopBackend` and
  :func:`~repro.sim.trace_sim.simulate_trace` run.

Timeout and stream lanes carry the device's previous-slice arrivals
(``Device.prev_arrivals``) across ticks, as the loop does.

Determinism is per-device, not per-run: each device owns its stream
and the batch draws every lane's uniforms from its own stream through
a :class:`~repro.sim.rng.UniformSource` — the vectorized
:class:`~repro.sim.rng_batched.BatchedPCG64Source`, which draws from
and advances the lane block's rows of the fleet's ``pcg`` position
column in place, when this numpy build passed its self-check and every
device in the block is column-backed (see :mod:`repro.runtime.fleet`);
else the byte-identical serial :class:`~repro.sim.rng.FanInSource`,
which draws each column-backed lane through
:class:`~repro.sim.rng_batched.PositionStream` (writing its position
back after every draw) and every other lane from the device's
generator object — always at the fixed chunk length
:data:`FLEET_CHUNK_SLICES` (recorded in every checkpoint; a checkpoint
stepped at another length is refused).  A device therefore consumes
*exactly the same uniforms through the same reduction boundaries* no
matter how it is grouped, what else is in the fleet, or whether the
campaign was checkpoint/resumed — fleet results are bitwise
reproducible from per-device seeds alone.  Policies solved on the way
(optimal groups, policy pushes, adaptive refits) are functions of
their LP's content and backend, whatever the
:class:`~repro.runtime.policy_cache.PolicyCache` solved before.
"""

from __future__ import annotations

import numpy as np

from repro.core.policy import MarkovPolicy
from repro.policies.base import StationaryAgent
from repro.policies.timeout import TimeoutAgent
from repro.runtime.fleet import Device, Fleet
from repro.runtime.policy_cache import memoized_by_identity, policy_signature
from repro.runtime.telemetry import snapshot
from repro.sim.backends.base import SimulationTables
from repro.sim.backends.loop import run_slices
from repro.sim.backends.vector import (
    CompiledPolicyBatch,
    TimeoutLanes,
    VectorBackend,
)
from repro.sim.rng import FanInSource
from repro.sim.rng_batched import (
    BatchedPCG64Source,
    PositionStream,
    batched_available,
    holds_position,
)
from repro.sim.trace_sim import NearestArrivalTracker
from repro.util.validation import ValidationError

__all__ = [
    "FLEET_CHUNK_SLICES",
    "FLEET_LANE_BLOCK",
    "FleetController",
]

#: Pinned chunk length for every fleet batch.  A constant (rather
#: than the kernel's lane-count-scaled uniform budget) keeps each
#: lane's summation tree identical whether the device steps alone or
#: among thousands — the bitwise half of the fleet determinism
#: contract.  256 slices x 4 uniform kinds x 1024 lanes is an 8 MB
#: draw buffer.
FLEET_CHUNK_SLICES = 256

#: Lanes stepped per kernel call.  Groups larger than this are sharded
#: into consecutive lane blocks so a 100k-device group draws bounded
#: uniform buffers (256 x 4 x 16384 is ~134 MB) instead of one
#: fleet-sized allocation.  Bitwise neutral: every lane draws from its
#: own device stream through the fan-in shim and chunk boundaries are
#: per-lane, so block boundaries change *which call* steps a lane,
#: never what it consumes or how its sums associate.
FLEET_LANE_BLOCK = 16_384


#: The kernel every lane block steps through.  Called through an
#: instance so a wrapper installed on :meth:`VectorBackend.step_lanes`
#: sees every fleet kernel call.
_KERNEL = VectorBackend()


def _block_uniform_source(
    devices, columns, rows, n_kinds: int, max_chunk: int
):
    """Build one lane block's :class:`~repro.sim.rng.UniformSource`.

    The vectorized batched source over the block's rows of the
    ``pcg`` column exactly when it is guaranteed byte-identical (this
    numpy build passed the self-check and every row holds a position),
    else the serial :class:`FanInSource`: a row that holds a position
    draws through a :class:`PositionStream`, any other lane from its
    device's generator object.  Either way the block consumes
    identical uniforms, so the choice never changes results, only
    speed.
    """
    positions = columns.pcg
    held = holds_position(positions[rows])
    if batched_available() and held.all():
        return BatchedPCG64Source(
            positions, rows, n_kinds=n_kinds, max_chunk=max_chunk
        )
    # PositionStream reseats this one generator at a lane's row before
    # every draw, so the seed never shows.
    scratch = np.random.default_rng(0)
    lanes = [
        PositionStream(positions, row, scratch) if has_position else device.rng
        for device, row, has_position in zip(
            devices, rows.tolist(), held.tolist()
        )
    ]
    return FanInSource(lanes, n_kinds=n_kinds, max_chunk=max_chunk)


def _model_key(system, costs) -> tuple:
    """Content key of a ``(system, costs)`` pair."""
    from repro.runtime.policy_cache import costs_signature, system_signature

    return system_signature(system), costs_signature(costs)


def _policy_lane(device: Device, policy: MarkovPolicy) -> tuple:
    """A policy lane's batch key and its policy's content signature."""
    return device.group_key(), policy_signature(policy)


def _stream_lane(system, costs, policy) -> tuple:
    """A stream lane's batch key, less its tracker's table, and its
    policy's content signature.  The key is the model, the policy's
    determinism (it fixes the uniform kinds a slice draws) and a stream
    marker, so stream and model-driven lanes never mix."""
    key = (*_model_key(system, costs), policy.is_deterministic, "stream")
    return key, policy_signature(policy)


def _lane_key(device: Device, memos: tuple) -> tuple:
    """The batch ``device`` steps in: ``(key, lane)``.

    ``key`` is ``None`` for a loop device.  ``lane`` is ``(policy,
    signature)`` for a policy or stream lane, the device's stationary
    policy and its content signature, which the group stacks by; it is
    ``None`` for a timeout lane (and a loop device).  Content
    signatures are memoized by object identity in ``memos`` (one dict
    per lane kind): devices of one group share their model and policy
    objects, so each distinct one is hashed once, and each device's
    policy is looked up once.
    """
    policy_memo, timeout_memo, stream_memo = memos
    agent, system, costs = device.agent, device.system, device.costs
    if device.stream is None:
        if device.vector_eligible:
            policy = agent.stationary_policy(system)
            key, signature = memoized_by_identity(
                policy_memo, (system, costs, policy), _policy_lane,
                device, policy,
            )
            return key, (policy, signature)
        if type(agent) is TimeoutAgent:
            # The key of the model's deterministic policy lanes.
            key = memoized_by_identity(
                timeout_memo, (system, costs), _model_key, system, costs
            )
            return key + (True,), None
        return None, None
    if (
        isinstance(agent, StationaryAgent)
        and type(device.tracker) is NearestArrivalTracker
    ):
        policy = agent.stationary_policy(system)
        key, signature = memoized_by_identity(
            stream_memo, (system, costs, policy), _stream_lane,
            system, costs, policy,
        )
        table = tuple(device.tracker.state_table().tolist())
        return key + (table,), (policy, signature)
    return None, None


class _VectorGroup:
    """One compiled batch: devices sharing a group key.

    A model-driven group holds policy lanes and timeout lanes; a
    stream-driven group holds stream lanes only.  Each lane block steps
    through :meth:`~repro.sim.backends.vector.VectorBackend.step_lanes`.
    The devices' rows in the fleet's column set are cached here, valid
    for the fleet version the group was built at.
    """

    def __init__(
        self, fleet: Fleet, devices: list[Device], lanes: list[tuple | None]
    ):
        self.devices = devices
        self._columns, self._rows = fleet.rows_of(devices)
        # One UniformSource per lane block, built lazily on the first
        # step and reused while the group cache lives.  Both producers
        # read the position column at every draw, so a cached source
        # never serves a stale stream; the controller rebuilds groups
        # (and sources) whenever fleet membership changes or a device's
        # stream switches between a position and a generator object.
        self._sources: dict[int, object] = {}
        first = devices[0]
        system = first.system
        self.tables = first.compile_tables()
        self.stream_driven = first.stream is not None
        self._count_states = (
            first.tracker.state_table() if self.stream_driven else None
        )
        # Distinct policies within the group are stacked once; lanes
        # index into the stack (1024 identical devices compile one row).
        # ``lanes`` holds each device's (policy, signature) from
        # _lane_key, or None for a timeout lane.
        unique: dict[str, int] = {}
        policies = []
        policy_of_lane = []
        timeout_lanes = []
        for lane, entry in enumerate(lanes):
            if entry is None:
                timeout_lanes.append(lane)
                policy_of_lane.append(0)  # switched every slice
                continue
            policy, signature = entry
            index = unique.get(signature)
            if index is None:
                index = unique[signature] = len(policies)
                policies.append(policy)
            policy_of_lane.append(index)
        self.n_policies = len(policies)
        # Timeout lanes step on constant policies stacked after the
        # policy lanes' ones, one per command their rules issue.  A
        # rule row is (lane, timeout, active policy, sleep policy).
        constant: dict[int, int] = {}
        rules = []
        for lane in timeout_lanes:
            device = devices[lane]
            rule = [lane, device.agent.timeout]
            for command in (device.agent.active_command, device.agent.sleep_command):
                if not 0 <= command < system.n_commands:
                    raise ValidationError(
                        f"device {device.device_id!r}: agent returned command "
                        f"{command}, valid range is [0, {system.n_commands})"
                    )
                if command not in constant:
                    constant[command] = len(policies)
                    policies.append(
                        MarkovPolicy.constant(
                            command,
                            system.n_states,
                            system.n_commands,
                            system.command_names,
                        )
                    )
                rule.append(constant[command])
            policy_of_lane[lane] = rule[2]
            rules.append(rule)
        self._timeout_rules = np.array(rules, dtype=np.int64).reshape(-1, 4)
        self.compiled = CompiledPolicyBatch.compile(system, policies)
        self.policy_of_lane = np.asarray(policy_of_lane, dtype=np.int64)

    def step(self, n_slices: int) -> None:
        """Advance every device in the group by ``n_slices`` slices."""
        # The kernel draws (chunk, kinds, lanes) blocks with kinds
        # fixed by policy determinism and the arrival mode; declaring
        # the geometry lets the source reject a desynchronizing request
        # instead of serving it.
        n_kinds = (
            3 if self.compiled.fully_deterministic else 4
        ) - self.stream_driven
        columns = self._columns
        for base in range(0, len(self.devices), FLEET_LANE_BLOCK):
            devices = self.devices[base : base + FLEET_LANE_BLOCK]
            rows = self._rows[base : base + FLEET_LANE_BLOCK]
            source = self._sources.get(base)
            if source is None:
                source = _block_uniform_source(
                    devices, columns, rows, n_kinds, FLEET_CHUNK_SLICES
                )
                self._sources[base] = source
            start = columns.state[rows]
            lengths = np.full(len(rows), int(n_slices), dtype=np.int64)
            # Timeout and stream lanes carry their devices' previous-
            # slice arrivals (and a timeout lane its idle counter).
            lanes: dict = {}
            carried: list[Device] = []
            rules = self._timeout_rules
            if len(rules):
                rules = rules[(rules[:, 0] >= base) & (rules[:, 0] < base + len(rows))]
            if len(rules):
                local = rules[:, 0] - base
                carried = [devices[lane] for lane in local.tolist()]
                prev = np.zeros(len(rows), dtype=np.int64)
                prev[local] = [device.prev_arrivals for device in carried]
                idle = [device.agent.idle_slices for device in carried]
                lanes = {
                    "timeouts": TimeoutLanes(
                        local, rules[:, 1], rules[:, 2], rules[:, 3],
                        np.asarray(idle, dtype=np.int64),
                    ),
                    "prev_arrivals": prev,
                }
            elif self.stream_driven:
                local = np.arange(len(rows))
                carried = devices
                # Each stream draws its tick from the device's generator
                # before the kernel's uniforms do, as on the loop.
                lanes = {
                    "counts": np.stack(
                        [device.stream.next_counts(n_slices) for device in devices],
                        axis=1,
                    ),
                    "count_states": self._count_states,
                    "prev_arrivals": np.asarray(
                        [device.prev_arrivals for device in devices],
                        dtype=np.int64,
                    ),
                }
            acc = _KERNEL.step_lanes(
                self.tables,
                self.compiled,
                self.policy_of_lane[base : base + len(rows)],
                lengths,
                (start[:, 0], start[:, 1], start[:, 2]),
                source,
                chunk_slices=FLEET_CHUNK_SLICES,
                **lanes,
            )
            # Scatter: each lane's accumulators land on its device's
            # row with the same elementwise adds a per-device loop
            # would do, so every running total keeps its bits.
            columns.totals[rows] += acc.lane_totals
            columns.command_counts[rows] += acc.command_counts
            columns.provider_occupancy[rows] += acc.provider_occupancy
            columns.state[rows] = acc.final_state
            columns.slices[rows] += lengths
            columns.counters[rows] += acc.counters
            if carried:
                for device, prev_arrivals in zip(
                    carried, acc.prev_arrivals[local].tolist()
                ):
                    device.prev_arrivals = prev_arrivals
            if acc.idle is not None:
                for device, idle_slices in zip(carried, acc.idle.tolist()):
                    device.agent.idle_slices = idle_slices


def _step_device_loop(
    device: Device, tables: SimulationTables, n_slices: int
) -> None:
    """Resumable reference loop: one device, ``n_slices`` slices.

    Steps the device through :func:`~repro.sim.backends.loop.run_slices`
    from its persisted state, previous-slice arrivals and slice index
    instead of a reset.  Model-driven devices draw their arrivals from
    the SR chain, as :class:`~repro.sim.backends.loop.LoopBackend`
    does; stream-driven devices take their stream's counts and track
    the observed SR state, as
    :func:`~repro.sim.trace_sim.simulate_trace` does (the fleet
    rendition of paper Section V's trace-driven mode).  The device's
    ``rng`` is read once (a column-backed device materializes a
    generator at its position) and assigned back at the end, which
    writes the advanced position to its row.
    """
    n_slices = int(n_slices)
    rng = device.rng
    counts = (
        device.stream.next_counts(n_slices)
        if device.stream is not None
        else None
    )
    totals = np.zeros(len(device.metric_names))
    try:
        state, prev_arrivals, counters = run_slices(
            tables,
            device.agent,
            rng,
            device.state,
            n_slices,
            totals,
            device.command_counts,
            device.provider_occupancy,
            prev_arrivals=device.prev_arrivals,
            first_slice=device.slices,
            counts=counts,
            tracker=device.tracker,
        )
    except ValidationError as error:
        raise ValidationError(f"device {device.device_id!r}: {error}") from error
    arrivals, serviced, lost, loss_events = counters

    device.totals += totals
    device.state = state
    device.rng = rng
    device.prev_arrivals = prev_arrivals
    device.slices += n_slices
    device.arrivals += arrivals
    device.serviced += serviced
    device.lost += lost
    device.loss_event_slices += loss_events


class FleetController:
    """Long-lived online controller over a device fleet.

    Parameters
    ----------
    fleet:
        The registered devices.  Membership may change between ticks
        (``add_device``/``remove_device``); the controller regroups and
        recompiles lazily.
    slices_per_tick:
        Slices every device advances per :meth:`step_tick`.
    telemetry:
        Optional sink with a ``record(dict)`` method
        (:class:`~repro.runtime.telemetry.MemoryTelemetry` /
        :class:`~repro.runtime.telemetry.JsonLinesTelemetry`).
    telemetry_every:
        Ticks between snapshots.
    telemetry_per_device:
        Include per-device sub-records in each snapshot.
    policy_cache:
        Accepted and ignored.  The controller keeps no handle on the
        :class:`~repro.runtime.policy_cache.PolicyCache`: telemetry and
        checkpoints are functions of fleet state alone, and wall-clock
        readouts belong to the caller (``repro-dpm fleet`` prints one).
        The keyword stays because ``perfbench/workloads.py`` passes it.
    initial_tick:
        Tick counter to start from (default 0).  :meth:`resume` and the
        service shard workers use it so a rebuilt controller's tick —
        and therefore its telemetry cadence — continues seamlessly.

    Examples
    --------
    >>> from repro.policies import StationaryPolicyAgent, eager_markov_policy
    >>> from repro.runtime import Fleet, FleetController, device_rng
    >>> from repro.systems import example_system
    >>> bundle = example_system.build()
    >>> policy = eager_markov_policy(bundle.system, "s_on", "s_off")
    >>> fleet = Fleet()
    >>> for i in range(4):
    ...     _ = fleet.add_device(
    ...         f"dev-{i}", bundle.system, bundle.costs,
    ...         StationaryPolicyAgent(bundle.system, policy),
    ...         rng=device_rng(0, i),
    ...     )
    >>> controller = FleetController(fleet, slices_per_tick=100)
    >>> controller.run(3)
    >>> controller.tick, fleet.total_slices
    (3, 1200)
    """

    def __init__(
        self,
        fleet: Fleet,
        slices_per_tick: int = 1000,
        telemetry=None,
        telemetry_every: int = 1,
        telemetry_per_device: bool = False,
        policy_cache=None,
        initial_tick: int = 0,
    ):
        slices_per_tick = int(slices_per_tick)
        if slices_per_tick <= 0:
            raise ValidationError(
                f"slices_per_tick must be > 0, got {slices_per_tick}"
            )
        telemetry_every = int(telemetry_every)
        if telemetry_every <= 0:
            raise ValidationError(
                f"telemetry_every must be > 0, got {telemetry_every}"
            )
        initial_tick = int(initial_tick)
        if initial_tick < 0:
            raise ValidationError(
                f"initial_tick must be >= 0, got {initial_tick}"
            )
        self._fleet = fleet
        self._slices_per_tick = slices_per_tick
        self._telemetry = telemetry
        self._telemetry_every = telemetry_every
        self._telemetry_per_device = bool(telemetry_per_device)
        self._tick = initial_tick
        # Compiled-group caches, invalidated on fleet membership changes.
        self._groups_version = -1
        self._vector_groups: list[_VectorGroup] = []
        self._loop_devices: list[Device] = []
        self._loop_tables: dict[str, SimulationTables] = {}

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def fleet(self) -> Fleet:
        """The managed fleet."""
        return self._fleet

    @property
    def tick(self) -> int:
        """Ticks completed so far."""
        return self._tick

    @property
    def slices_per_tick(self) -> int:
        """Slices every device advances per tick."""
        return self._slices_per_tick

    def grouping(self) -> dict:
        """How the current fleet splits into batches (for reporting)."""
        self._refresh_groups()
        return {
            "vector_groups": [
                {
                    "devices": len(group.devices),
                    "distinct_policies": group.n_policies,
                }
                for group in self._vector_groups
            ],
            "loop_devices": len(self._loop_devices),
        }

    def snapshot(  # repro-lint: schema=repro.runtime.telemetry:SNAPSHOT_FIELDS
        self, per_device: bool | None = None
    ) -> dict:
        """A telemetry snapshot of the current fleet state."""
        if per_device is None:
            per_device = self._telemetry_per_device
        return snapshot(self._fleet, self._tick, per_device=per_device)

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------
    def _refresh_groups(self) -> None:
        if self._groups_version == self._fleet.version:
            return
        memos: tuple = ({}, {}, {})
        grouped: dict[tuple, tuple[list, list]] = {}
        loop_devices: list[Device] = []
        for device in self._fleet:
            key, lane = _lane_key(device, memos)
            if key is None:
                loop_devices.append(device)
                continue
            group = grouped.get(key)
            if group is None:
                group = grouped[key] = ([], [])
            group[0].append(device)
            group[1].append(lane)
        self._vector_groups = [
            _VectorGroup(self._fleet, devices, lanes)
            for devices, lanes in grouped.values()
        ]
        self._loop_devices = loop_devices
        # Tables are cached per (system, costs) content and mapped by
        # device id — never stashed on the Device record, which must
        # stay free of incidental attributes so checkpoints pickle the
        # same bytes however the fleet was stepped (or sharded).
        model_keys: dict[tuple, tuple] = {}
        compiled: dict[tuple, SimulationTables] = {}
        self._loop_tables = {}
        for device in loop_devices:
            key = memoized_by_identity(
                model_keys,
                (device.system, device.costs),
                _model_key,
                device.system,
                device.costs,
            )
            if key not in compiled:
                compiled[key] = device.compile_tables()
            self._loop_tables[device.device_id] = compiled[key]
        self._groups_version = self._fleet.version

    def step_tick(  # repro-lint: schema=repro.runtime.telemetry:SNAPSHOT_FIELDS
        self,
    ) -> dict | None:
        """Advance every device by one tick; maybe emit telemetry.

        Returns the telemetry record when this tick emitted one (the
        sink, if any, receives it too), else ``None``.
        """
        if len(self._fleet) == 0:
            raise ValidationError("cannot step an empty fleet")
        self._refresh_groups()
        for group in self._vector_groups:
            group.step(self._slices_per_tick)
        for device in self._loop_devices:
            tables = self._loop_tables[device.device_id]
            _step_device_loop(device, tables, self._slices_per_tick)
        self._tick += 1
        if self._tick % self._telemetry_every == 0:
            record = self.snapshot()
            if self._telemetry is not None:
                self._telemetry.record(record)
            return record
        return None

    def run(self, n_ticks: int) -> None:
        """Run ``n_ticks`` ticks back to back."""
        n_ticks = int(n_ticks)
        if n_ticks < 0:
            raise ValidationError(f"n_ticks must be >= 0, got {n_ticks}")
        for _ in range(n_ticks):
            self.step_tick()

    # ------------------------------------------------------------------
    # checkpointing (delegates to repro.runtime.checkpoint)
    # ------------------------------------------------------------------
    def save_checkpoint(self, path) -> None:
        """Persist the full fleet state (RNG streams included)."""
        from repro.runtime.checkpoint import save_checkpoint

        save_checkpoint(path, self)

    @classmethod
    def resume(
        cls,
        path,
        telemetry=None,
        telemetry_every: int | None = None,
        telemetry_per_device: bool | None = None,
    ) -> "FleetController":
        """Rebuild a controller from a checkpoint and continue.

        Telemetry sinks are not part of the checkpoint (they hold open
        file handles); pass a fresh one.
        :func:`~repro.runtime.checkpoint.load_checkpoint` refuses a
        checkpoint stepped at a chunk length other than
        :data:`FLEET_CHUNK_SLICES`, and one saved with
        ``backend="loop"``.  The ``uniform_source`` field older builds
        wrote is ignored.
        """
        from repro.runtime.checkpoint import load_checkpoint

        payload = load_checkpoint(path)
        return cls(
            payload["fleet"],
            slices_per_tick=payload["slices_per_tick"],
            telemetry=telemetry,
            telemetry_every=(
                payload["telemetry_every"]
                if telemetry_every is None
                else telemetry_every
            ),
            telemetry_per_device=(
                payload["telemetry_per_device"]
                if telemetry_per_device is None
                else telemetry_per_device
            ),
            initial_tick=payload["tick"],
        )
