"""Device registry for the online fleet runtime.

A :class:`Device` is one managed unit: a composed system, a cost
model, a policy agent, its *own* random stream, its current joint
state and its running accumulators.  A :class:`Fleet` is an ordered
registry of devices — heterogeneous by construction: different
hardware models, different workloads, different agents, all stepped
together by the :class:`~repro.runtime.controller.FleetController`.

Per-device state is columnar.  The fleet keeps one column set per
device layout (metric names, command count, provider-state count):
one row per device holding its joint state, counters, metric totals
and histograms.  A :class:`Device` is a handle on its row — its
``state``, ``slices``, ``totals``, ... attributes read and write the
row — so the controller scatters a whole batch into the columns with
a few array adds and telemetry folds them with array reductions.
Registration is columnar too: :meth:`Fleet.add_devices` gives a block
of devices consecutive rows and fills them by slicing.  A device
outside any fleet (built on its own, unpickled or removed) owns a
private one-row column set until a fleet adopts it.

A fleet pickles as its columns: each column set's arrays, the rows in
registration order, plus one small tuple per device of references to
its model, agent and stream objects.  Pickle stores each shared object
once, so a group of devices sharing a system, costs and stationary
agent costs a few hundred bytes per device.  A device pickled on its
own still pickles as its plain field mapping.

Device randomness is per-device by design: ``device_rng(seed, index)``
derives statistically independent PCG64 streams from a base seed with
:class:`numpy.random.SeedSequence` spawn keys, so device ``i`` of a
group consumes exactly the same uniforms whether it is stepped alone,
inside a 1000-lane batch, or after a checkpoint/resume — the property
the fleet determinism suite pins down.  A stream is a column too: the
``pcg`` column holds each device's PCG64 *position* (its 128-bit state
and increment, see :mod:`repro.sim.rng_batched`), which the vectorized
fan-in (:class:`~repro.sim.rng_batched.BatchedPCG64Source`) draws from
and advances in place.  Whether a device is *column-backed* is a rule
on the device alone — its generator is a clean PCG64 and it has no
arrival stream — so equal devices always pickle the same bytes.  A
column-backed device holds no :class:`numpy.random.Generator`: reading
``device.rng`` materializes a fresh one at the row's position, and
assigning ``device.rng`` writes the assigned generator's position back.
Stream-driven devices keep their generator object (their stream draws
from it too), as does a device given any other kind of generator,
which steps through the serial :class:`~repro.sim.rng.FanInSource`.

``build_fleet`` turns a JSON fleet spec (device groups x workloads x
agents, see :func:`parse_fleet_spec`) into a registered fleet, solving
optimal policies through a shared
:class:`~repro.runtime.policy_cache.PolicyCache` so identical device
groups cost one LP solve, not one per device.  Each group registers in
one block, its stream positions seeded in one array pass
(:func:`~repro.sim.rng_batched.device_positions`) where
``device_rng(seed, i)`` would give them.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from repro.core.costs import CostModel
from repro.core.system import PowerManagedSystem
from repro.policies.base import PolicyAgent, StationaryAgent
from repro.runtime.policy_cache import (
    PolicyCache,
    costs_signature,
    system_signature,
)
from repro.runtime.streams import ArrivalStream, stream_from_spec
from repro.sim.backends.base import SimulationTables, resolve_initial_state
from repro.sim.rng import device_rng
from repro.sim.rng_batched import (
    device_positions,
    pcg64_generator,
    pcg64_position,
)
from repro.sim.trace_sim import ArrivalTracker, NearestArrivalTracker
from repro.util.validation import ValidationError

__all__ = [
    "Device",
    "Fleet",
    "OptimizeDirective",
    "build_agent_from_spec",
    "build_fleet",
    "build_group_devices",
    "device_rng",
    "parse_fleet_spec",
]

#: Policy rows with a single command above this mass are deterministic
#: (same tolerance the vector backend compiles with).
_DETERMINISTIC_TOL = 1e-12

#: The request counters of a device row, in column order.
COUNTER_COLUMNS = ("arrivals", "serviced", "lost", "loss_event_slices")

#: The integer columns of a device row, in the order ``ColumnSet.ints``
#: packs them: the joint state, slices, then the request counters.
INT_COLUMNS = ("provider", "requester", "queue", "slices", *COUNTER_COLUMNS)
_SLICES = INT_COLUMNS.index("slices")


class ColumnSet:
    """One layout's per-device accumulators, one row per device.

    A layout is ``(metric names, command count, provider-state
    count)``: everything that fixes a row's widths.  ``ints`` packs
    each device's joint state and integer counters
    (:data:`INT_COLUMNS`; ``state``, ``slices`` and ``counters`` view
    its blocks), ``totals`` its metric sums (one column per metric
    name), ``command_counts`` and ``provider_occupancy`` its
    histograms, and ``pcg`` its PCG64 stream position (``[state_hi,
    state_lo, inc_hi, inc_lo]`` uint64; zeros for a device whose
    stream is a generator object).  Rows ``[0, n)`` are live and
    ``handles[row]`` is a weak reference to the device owning ``row``.
    Releasing a row moves the last live row into the hole, so the live
    rows stay one dense block.  ``fleet`` is the owning :class:`Fleet`, or ``None`` for the
    private set of a device no fleet holds.  Both back-references are
    weak, so a fleet and its devices are freed as soon as the last
    outside reference goes, without waiting for the cycle collector.

    ``arrays`` preloads the five arrays (a loading fleet passes the
    rows it unpickled); :meth:`acquire` then hands those rows out in
    order instead of blank ones.
    """

    _NAMES = ("ints", "totals", "command_counts", "provider_occupancy", "pcg")

    def __init__(self, layout: tuple, fleet=None, arrays=None):
        metric_names, n_commands, n_provider_states = layout
        self.layout = layout
        self._fleet = None if fleet is None else weakref.ref(fleet)
        self.n = 0
        self.handles: list[weakref.ref] = []
        if arrays is None:
            arrays = (
                np.zeros((1, len(INT_COLUMNS)), dtype=np.int64),
                np.zeros((1, len(metric_names)), dtype=np.float64),
                np.zeros((1, n_commands), dtype=np.int64),
                np.zeros((1, n_provider_states), dtype=np.int64),
                np.zeros((1, 4), dtype=np.uint64),
            )
        (
            self.ints,
            self.totals,
            self.command_counts,
            self.provider_occupancy,
            self.pcg,
        ) = arrays

    @property
    def metric_names(self) -> tuple:
        """The metric names, in ``totals`` column order."""
        return self.layout[0]

    @property
    def fleet(self) -> "Fleet | None":
        """The fleet that owns this set, while it exists."""
        return None if self._fleet is None else self._fleet()

    @property
    def state(self) -> np.ndarray:
        """Every row's ``(provider, requester, queue)`` (a view)."""
        return self.ints[:, :_SLICES]

    @property
    def slices(self) -> np.ndarray:
        """Every row's slice count (a view)."""
        return self.ints[:, _SLICES]

    @property
    def counters(self) -> np.ndarray:
        """Every row's :data:`COUNTER_COLUMNS` (a view)."""
        return self.ints[:, _SLICES + 1 :]

    def _arrays(self) -> tuple:
        return (
            self.ints,
            self.totals,
            self.command_counts,
            self.provider_occupancy,
            self.pcg,
        )

    def acquire(self, *devices: "Device") -> int:
        """Append one row per device, in order; return the first index.

        The rows' contents are unspecified (the next preloaded rows, if
        any); the caller writes them.
        """
        first = self.n
        end = first + len(devices)
        capacity = self.ints.shape[0]
        if end > capacity:
            capacity = max(2 * capacity, end)
            for name, old in zip(self._NAMES, self._arrays()):
                grown = np.zeros((capacity,) + old.shape[1:], dtype=old.dtype)
                grown[: old.shape[0]] = old
                setattr(self, name, grown)
        self.handles.extend(map(weakref.ref, devices))
        self.n = end
        return first

    def release(self, row: int) -> None:
        """Drop ``row``, moving the last live row (and its handle) in."""
        last = self.n - 1
        if row != last:
            for array in self._arrays():
                array[row] = array[last]
            handle = self.handles[row] = self.handles[last]
            moved = handle()
            if moved is not None:
                moved._row = row
        self.handles.pop()
        self.n = last

    def copy_row(self, row: int, source: "ColumnSet", source_row: int) -> None:
        """Overwrite ``row`` with ``source``'s ``source_row``."""
        self.ints[row] = source.ints[source_row]
        self.totals[row] = source.totals[source_row]
        self.command_counts[row] = source.command_counts[source_row]
        self.provider_occupancy[row] = source.provider_occupancy[source_row]
        self.pcg[row] = source.pcg[source_row]


def _int_column(name: str, doc: str) -> property:
    """A :class:`Device` property over one of its row's :data:`INT_COLUMNS`."""
    index = INT_COLUMNS.index(name)

    def get(device: "Device") -> int:
        return int(device._cols.ints[device._row, index])

    def put(device: "Device", value: int) -> None:
        device._cols.ints[device._row, index] = value

    return property(get, put, doc=doc)


def _array_column(name: str, doc: str) -> property:
    """A :class:`Device` property viewing its row of an array column."""

    def get(device: "Device") -> np.ndarray:
        return getattr(device._cols, name)[device._row]

    def put(device: "Device", value) -> None:
        getattr(device._cols, name)[device._row] = value

    return property(get, put, doc=doc)


class Device:
    """One managed device: model, agent, stream, and a row of state.

    Attributes
    ----------
    device_id:
        Unique fleet-wide identifier.
    system / costs:
        The composed system and its metrics (sharable across devices).
    agent:
        The policy agent.  Stationary agents hold no state, so the
        devices of one spec group share one; stateful agents must not
        be shared between devices.
    rng:
        This device's own generator — every stochastic choice the
        device makes (policy draws, transitions, service, stochastic
        workload streams) consumes from it and nothing else does.  A
        column-backed device (a clean PCG64 stream and no arrival
        stream) keeps only its position in the ``pcg`` column:
        reading ``rng`` returns a fresh generator at that position,
        whose draws reach the device only once it is assigned back.
    stream:
        Exogenous workload (``None`` means arrivals come from the SR
        chain — the vectorizable model-driven mode).
    tracker:
        SR-state inference for stream-driven devices (defaults to
        :class:`~repro.sim.trace_sim.NearestArrivalTracker`).
    state:
        Current ``(provider, requester, queue)`` indices.

    ``state``, ``slices``, ``totals``, ``arrivals``, ``serviced``,
    ``lost``, ``loss_event_slices``, ``command_counts`` and
    ``provider_occupancy`` live in the owning fleet's column set and
    are properties over this device's row.  The array-valued ones
    return writable views of the row: ``device.totals += x`` updates
    the row in place.  A view is valid until the fleet's membership
    next changes (rows move then); read the attribute again after.

    Records are made by :meth:`Fleet.add_devices` (or its one-device
    :meth:`Fleet.add_device`) and by unpickling, never by calling the
    class.
    """

    def _own_row(self, ints, totals, command_counts, provider_occupancy):
        """Store the accumulators in a fresh private one-row column set."""
        layout = (
            tuple(self.metric_names),
            len(command_counts),
            len(provider_occupancy),
        )
        columns = ColumnSet(layout)
        row = columns.acquire(self)
        columns.ints[row] = ints
        columns.totals[row] = totals
        columns.command_counts[row] = command_counts
        columns.provider_occupancy[row] = provider_occupancy
        self._cols, self._row = columns, row

    def _move(self, columns: ColumnSet) -> None:
        """Carry this device's row into ``columns``, freeing the old one."""
        old, old_row = self._cols, self._row
        row = columns.acquire(self)
        columns.copy_row(row, old, old_row)
        old.release(old_row)
        self._cols, self._row = columns, row

    # ------------------------------------------------------------------
    # the stream: a position row, or a generator object
    # ------------------------------------------------------------------
    @property
    def rng(self) -> np.random.Generator:
        """This device's generator (see the class docstring)."""
        generator = self._rng
        if generator is None:
            return pcg64_generator(self._cols.pcg[self._row].tolist())
        return generator

    @rng.setter
    def rng(self, generator) -> None:
        # Switching between a position and a generator object changes
        # which uniform producer can serve the device, so controllers
        # regroup as after a membership change.
        if self._hold(generator):
            fleet = self._cols.fleet
            if fleet is not None:
                fleet.version += 1

    def _hold(self, generator) -> bool:
        """Keep ``generator`` as a position row or as the object itself.

        Returns whether the device now holds a different generator
        object, or a position where it held one.
        """
        position = None if self.stream is not None else pcg64_position(generator)
        if position is not None:
            self._cols.pcg[self._row] = position
            held, self._rng = self._rng, None
            return held is not None
        if generator is self._rng:
            return False
        self._cols.pcg[self._row] = 0
        self._rng = generator
        return True

    # ------------------------------------------------------------------
    # pickling: the plain field mapping, materialized from the row
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        # Row views pickle exactly like the standalone arrays they
        # stand for (numpy serializes an array's shape, dtype and data,
        # not its base), so nothing is copied here.  ``rng`` is the
        # position row of a column-backed device.
        columns, row = self._cols, self._row
        s, r, q, slices, arrivals, serviced, lost, loss_events = (
            columns.ints[row].tolist()
        )
        return {
            "device_id": self.device_id,
            "system": self.system,
            "costs": self.costs,
            "agent": self.agent,
            "rng": columns.pcg[row] if self._rng is None else self._rng,
            "stream": self.stream,
            "tracker": self.tracker,
            "state": (s, r, q),
            "prev_arrivals": self.prev_arrivals,
            "slices": slices,
            "metric_names": self.metric_names,
            "totals": columns.totals[row],
            "arrivals": arrivals,
            "serviced": serviced,
            "lost": lost,
            "loss_event_slices": loss_events,
            "command_counts": columns.command_counts[row],
            "provider_occupancy": columns.provider_occupancy[row],
        }

    def __setstate__(self, state: dict) -> None:
        self.device_id = state["device_id"]
        self.system = state["system"]
        self.costs = state["costs"]
        self.agent = state["agent"]
        self.stream = state["stream"]
        self.tracker = state["tracker"]
        self.prev_arrivals = state["prev_arrivals"]
        self.metric_names = state["metric_names"]
        self._own_row(
            (
                *state["state"],
                state["slices"],
                state["arrivals"],
                state["serviced"],
                state["lost"],
                state["loss_event_slices"],
            ),
            state["totals"],
            state["command_counts"],
            state["provider_occupancy"],
        )
        self._rng = None
        rng = state["rng"]
        if isinstance(rng, np.ndarray):
            self._cols.pcg[self._row] = rng
        else:
            # A generator: a clean PCG64 of a stream-less device (any
            # device pickled before positions were a column) becomes a
            # position.
            self.rng = rng

    def __repr__(self) -> str:
        return (
            f"Device(device_id={self.device_id!r}, agent={self.agent!r}, "
            f"state={self.state!r}, slices={self.slices})"
        )

    # ------------------------------------------------------------------
    # row-backed accumulators
    # ------------------------------------------------------------------
    @property
    def state(self) -> tuple[int, int, int]:
        """Current ``(provider, requester, queue)`` indices."""
        s, r, q = self._cols.state[self._row].tolist()
        return s, r, q

    @state.setter
    def state(self, value) -> None:
        self._cols.state[self._row] = value

    slices = _int_column("slices", "Slices stepped so far.")
    arrivals = _int_column("arrivals", "Requests that arrived so far.")
    serviced = _int_column("serviced", "Requests serviced so far.")
    lost = _int_column("lost", "Requests lost to a full queue so far.")
    loss_event_slices = _int_column(
        "loss_event_slices",
        "Slices that began with a full queue and an arrival at risk.",
    )
    totals = _array_column(
        "totals", "Per-metric sums (a view of the row, ``metric_names`` order)."
    )
    command_counts = _array_column(
        "command_counts", "Slices each command was issued (a view of the row)."
    )
    provider_occupancy = _array_column(
        "provider_occupancy",
        "Slices spent in each provider state (a view of the row).",
    )

    def row_values(self) -> tuple[list, list]:
        """This device's row as Python lists, read in one go.

        ``(ints, totals)``: ``ints`` in :data:`INT_COLUMNS` order, then
        the metric totals in ``metric_names`` order.
        """
        columns, row = self._cols, self._row
        return columns.ints[row].tolist(), columns.totals[row].tolist()

    # ------------------------------------------------------------------
    # dispatch properties
    # ------------------------------------------------------------------
    @property
    def vector_eligible(self) -> bool:
        """True for a *policy lane*: a provably stationary agent *and*
        model-driven arrivals.

        The batch kernel also steps fixed-timeout and stream-driven
        devices, as other lane kinds (see
        :mod:`repro.runtime.controller`); this property, and
        :meth:`group_key`, which the service's partitioner keys on,
        name policy lanes only.
        """
        return isinstance(self.agent, StationaryAgent) and self.stream is None

    def group_key(self) -> tuple:
        """Batching signature: devices sharing it step in one batch.

        ``(system content, costs content, policy-determinism flag)`` —
        the determinism flag is part of the key because the batch
        kernel draws 3 uniform kinds per slice for fully-deterministic
        policy batches and 4 otherwise; mixing the two in one batch
        would make a device's stream consumption depend on its
        neighbours.
        """
        if not self.vector_eligible:
            raise ValidationError(
                f"device {self.device_id!r} is not vector-eligible"
            )
        policy = self.agent.stationary_policy(self.system)
        deterministic = bool(
            (policy.matrix.max(axis=1) > 1.0 - _DETERMINISTIC_TOL).all()
        )
        return (
            system_signature(self.system),
            costs_signature(self.costs),
            deterministic,
        )

    # ------------------------------------------------------------------
    # metric views
    # ------------------------------------------------------------------
    @property
    def averages(self) -> dict[str, float]:
        """Per-slice metric averages accumulated so far."""
        ints, totals = self.row_values()
        slices = ints[_SLICES]
        if slices == 0:
            return {name: 0.0 for name in self.metric_names}
        return {
            name: total / slices
            for name, total in zip(self.metric_names, totals)
        }

    def compile_tables(self) -> SimulationTables:
        """Compile the simulation tables for this device's model."""
        return SimulationTables.compile(self.system, self.costs)


class Fleet:
    """An ordered registry of :class:`Device` records.

    Insertion order is the canonical device order — telemetry
    aggregation, batching and checkpoints all preserve it, which keeps
    every downstream artifact deterministic.  The fleet owns one
    :class:`ColumnSet` per device layout; every registered device's
    accumulators are a row in one of them.
    """

    def __init__(self):
        self._devices: dict[str, Device] = {}
        self._columns: dict[tuple, ColumnSet] = {}
        # Live column sets in first-appearance order, rebuilt lazily
        # after membership changes.
        self._column_order: list[ColumnSet] | None = None
        #: Bumped on membership changes so the controller can invalidate
        #: its compiled group caches.
        self.version = 0

    # ------------------------------------------------------------------
    # pickling: the column arrays plus one reference tuple per device
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        devices = list(self._devices.values())
        column_sets = self.column_sets()
        position = {id(columns): k for k, columns in enumerate(column_sets)}
        column_of = [position[id(device._cols)] for device in devices]
        rows: list[list[int]] = [[] for _ in column_sets]
        for device, k in zip(devices, column_of):
            rows[k].append(device._row)
        # The slices keep the columns' dtype objects.  A loaded fleet's
        # columns are the arrays it unpickled, whose dtype objects the
        # rest of its unpickled graph shares, so a resumed fleet
        # re-pickles to the bytes an uninterrupted one does.
        arrays = [
            tuple(array[taken] for array in columns._arrays())
            for columns, taken in zip(column_sets, rows)
        ]
        # The metric names travel only in the device tuples: a column
        # set's layout may hold other string objects with equal text,
        # which pickle would store a second time.
        return {
            "version": self.version,
            "device_ids": list(self._devices),
            "columns": arrays,
            "column_of": column_of,
            "devices": [
                (
                    device.system,
                    device.costs,
                    device.agent,
                    device._rng,
                    device.stream,
                    device.tracker,
                    device.metric_names,
                    device.prev_arrivals,
                )
                for device in devices
            ],
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__()
        if "_devices" in state:
            # The per-device form written before fleets pickled as
            # columns: each device restored its own row.
            for device in state["_devices"].values():
                self._attach(device)
            self.version = state["version"]
            return
        arrays = state["columns"]
        # Fleets pickled before stream positions were a column carry
        # four arrays per set and a generator per device; their clean
        # PCG64 generators become positions as the devices load.
        legacy = bool(arrays) and len(arrays[0]) == 4
        if legacy:
            arrays = [
                (*set_arrays, np.zeros((len(set_arrays[0]), 4), np.uint64))
                for set_arrays in arrays
            ]
        column_sets: list[ColumnSet | None] = [None] * len(arrays)
        for device_id, k, fields in zip(
            state["device_ids"], state["column_of"], state["devices"]
        ):
            device = Device.__new__(Device)
            device.device_id = device_id
            (
                device.system,
                device.costs,
                device.agent,
                device._rng,
                device.stream,
                device.tracker,
                device.metric_names,
                device.prev_arrivals,
            ) = fields
            columns = column_sets[k]
            if columns is None:
                _, _, command_counts, provider_occupancy, _ = arrays[k]
                layout = (
                    tuple(device.metric_names),
                    command_counts.shape[1],
                    provider_occupancy.shape[1],
                )
                columns = ColumnSet(layout, fleet=self, arrays=arrays[k])
                column_sets[k] = self._columns[layout] = columns
            device._cols, device._row = columns, columns.acquire(device)
            if legacy:
                device.rng = device._rng
            self._devices[device_id] = device
        self.version = state["version"]

    def _attach(self, device: Device) -> None:
        """Move ``device``'s row into this fleet's columns and register it.

        A device another fleet holds is deregistered there first: a
        device belongs to one fleet at a time.
        """
        previous = device._cols.fleet
        if previous is not None:
            del previous._devices[device.device_id]
            previous._column_order = None
            previous.version += 1
        layout = device._cols.layout
        columns = self._columns.get(layout)
        if columns is None:
            columns = ColumnSet(layout, fleet=self)
            self._columns[layout] = columns
        device._move(columns)
        self._devices[device.device_id] = device
        self._column_order = None

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def add_device(
        self,
        device_id: str,
        system: PowerManagedSystem,
        costs: CostModel,
        agent: PolicyAgent,
        *,
        rng: np.random.Generator | int | None = None,
        stream: ArrivalStream | None = None,
        tracker: ArrivalTracker | None = None,
        initial_state=None,
    ) -> Device:
        """Register one device and return its record.

        ``rng`` accepts a generator, a seed, or ``None`` (fresh
        entropy); pass :func:`device_rng` streams for addressable
        reproducibility.  A one-device :meth:`add_devices`.
        """
        if rng is None or isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(rng)
        (device,) = self.add_devices(
            [device_id],
            system,
            costs,
            [agent],
            rngs=[rng],
            streams=[stream],
            trackers=[tracker],
            initial_state=initial_state,
        )
        return device

    def add_devices(
        self,
        device_ids,
        system: PowerManagedSystem,
        costs: CostModel,
        agents,
        *,
        positions: np.ndarray | None = None,
        rngs=None,
        streams=None,
        trackers=None,
        initial_state=None,
    ) -> list[Device]:
        """Register a block of devices sharing one model; return them.

        ``device_ids`` and ``agents`` hold one entry per device (devices
        may share a stationary agent), as do ``streams`` and
        ``trackers`` when given.  Each device's random stream is a row
        of ``positions``, an ``(n, 4)`` uint64 array of PCG64 positions
        (see :func:`~repro.sim.rng_batched.device_positions`; devices
        without an arrival stream only), or an entry of ``rngs``, one
        generator per device, kept as assigning :attr:`Device.rng`
        keeps it.  Pass exactly one of the two.

        The devices take one block of rows in the fleet's column set,
        filled by slicing, and register in order, each bumping
        :attr:`version` as :meth:`add_device` does.  Every device is
        validated before any registers.
        """
        ids = [str(device_id) for device_id in device_ids]
        n = len(ids)
        agents = list(agents)
        streams = [None] * n if streams is None else list(streams)
        trackers = [None] * n if trackers is None else list(trackers)
        generators = [None] * n if rngs is None else list(rngs)
        if not len(agents) == len(streams) == len(trackers) == len(generators) == n:
            raise ValidationError(
                f"add_devices needs one agent, and one stream, tracker and "
                f"generator where given, for each of {n} device ids"
            )
        if (positions is None) == (rngs is None):
            raise ValidationError(
                "add_devices takes exactly one of positions= and rngs="
            )
        if positions is not None:
            positions = np.asarray(positions)
            if positions.dtype != np.uint64 or positions.shape != (n, 4):
                raise ValidationError(
                    f"positions must be an ({n}, 4) uint64 array, got "
                    f"{positions.dtype} {positions.shape}"
                )
            if any(stream is not None for stream in streams):
                raise ValidationError(
                    "stream-driven devices keep a generator their stream "
                    "draws from: pass rngs="
                )
        fresh: set[str] = set()
        for device_id, agent in zip(ids, agents):
            if device_id in self._devices or device_id in fresh:
                raise ValidationError(f"duplicate device id {device_id!r}")
            fresh.add(device_id)
            if not isinstance(agent, PolicyAgent):
                raise ValidationError(
                    f"agent must be a PolicyAgent, got {type(agent).__name__}"
                )
        if ids and costs.system is not system:
            raise ValidationError(
                f"device {ids[0]!r}: costs were built for a different system"
            )
        state = resolve_initial_state(system, initial_state)
        layout = (
            costs.metric_names,
            system.n_commands,
            system.provider.n_states,
        )
        columns = self._columns.get(layout)
        if columns is None:
            columns = self._columns[layout] = ColumnSet(layout, fleet=self)
        devices = [Device.__new__(Device) for _ in range(n)]
        first = columns.acquire(*devices)
        rows = slice(first, first + n)
        columns.ints[rows] = 0
        columns.state[rows] = state
        columns.totals[rows] = 0
        columns.command_counts[rows] = 0
        columns.provider_occupancy[rows] = 0
        columns.pcg[rows] = 0 if positions is None else positions
        for row, device, device_id, agent, stream, tracker, generator in zip(
            range(first, first + n),
            devices, ids, agents, streams, trackers, generators,
        ):
            device.device_id = device_id
            device.system = system
            device.costs = costs
            device.agent = agent
            device.stream = stream
            device.tracker = tracker
            device.prev_arrivals = 0
            # The property builds a fresh tuple per device: pickles have
            # always stored each device's own.
            device.metric_names = costs.metric_names
            device._rng = None
            device._cols, device._row = columns, row
            if stream is not None:
                if tracker is None:
                    device.tracker = NearestArrivalTracker(system.requester)
                # Stream-driven devices observe an *inferred* SR state;
                # the tracker defines the initial one.
                columns.state[row, 1] = device.tracker.reset()
            if generator is not None:
                device._hold(generator)
            agent.reset()
        self._devices.update(zip(ids, devices))
        self._column_order = None
        self.version += n
        return devices

    def adopt_device(self, device: Device) -> Device:
        """Insert an already-constructed :class:`Device` record as-is.

        Unlike :meth:`add_device` this neither rebuilds the record nor
        resets its agent — the device keeps its accumulated state,
        stream cursor and RNG stream exactly.  It is how fleet state
        moves between processes: shard workers adopt their partition,
        and gathered daemon fleets are reassembled device by device.
        A device belongs to one fleet at a time: adopting a device
        another fleet holds moves it, and that fleet deregisters it.
        """
        if not isinstance(device, Device):
            raise ValidationError(
                f"adopt_device takes a Device, got {type(device).__name__}"
            )
        if device.device_id in self._devices:
            raise ValidationError(f"duplicate device id {device.device_id!r}")
        self._attach(device)
        self.version += 1
        return device

    def remove_device(self, device_id: str) -> Device:
        """Deregister and return a device (e.g. decommissioned hardware).

        The device keeps its final values in a private row, so they
        stay readable (and frozen) after the fleet reuses its row.
        """
        try:
            device = self._devices.pop(str(device_id))
        except KeyError:
            raise ValidationError(f"unknown device id {device_id!r}") from None
        device._move(ColumnSet(device._cols.layout))
        self._column_order = None
        self.version += 1
        return device

    def replace_agent(self, device_id: str, agent: PolicyAgent) -> Device:
        """Swap one device's policy agent in place (live policy push).

        The new agent is reset and the fleet version bumped so
        controllers regroup and recompile on the next tick.  Works
        identically through the single-process controller and the
        sharded daemon — both route policy updates here.
        """
        device = self.device(device_id)
        if not isinstance(agent, PolicyAgent):
            raise ValidationError(
                f"agent must be a PolicyAgent, got {type(agent).__name__}"
            )
        device.agent = agent
        agent.reset()
        self.version += 1
        return device

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def device(self, device_id: str) -> Device:
        """Look up one device by id."""
        try:
            return self._devices[str(device_id)]
        except KeyError:
            raise ValidationError(f"unknown device id {device_id!r}") from None

    @property
    def device_ids(self) -> tuple[str, ...]:
        """All registered ids, insertion order."""
        return tuple(self._devices)

    def __len__(self) -> int:
        return len(self._devices)

    def __iter__(self):
        return iter(self._devices.values())

    def __contains__(self, device_id) -> bool:
        return str(device_id) in self._devices

    @property
    def total_slices(self) -> int:
        """Device-slices accumulated across the whole fleet."""
        return sum(
            int(columns.slices[: columns.n].sum())
            for columns in self._columns.values()
        )

    # ------------------------------------------------------------------
    # columns
    # ------------------------------------------------------------------
    def column_sets(self) -> list[ColumnSet]:
        """The non-empty column sets, in order of first appearance.

        A set appears where its first device sits in the registry, so
        walking the sets' metric names visits every metric in the order
        a walk over the devices would first meet it.
        """
        if self._column_order is None:
            live = sum(1 for columns in self._columns.values() if columns.n)
            order: list[ColumnSet] = []
            last = None
            for device in self._devices.values():
                columns = device._cols
                if columns is last:
                    continue
                last = columns
                if not any(seen is columns for seen in order):
                    order.append(columns)
                    if len(order) == live:
                        break
            self._column_order = order
        return self._column_order

    def rows_of(self, devices) -> tuple[ColumnSet, np.ndarray]:
        """The column set ``devices`` share and their row indices.

        The rows stay valid while the fleet's membership (its
        :attr:`version`) does not change.
        """
        columns = devices[0]._cols
        if columns.fleet is not self or any(
            device._cols is not columns for device in devices
        ):
            raise ValidationError(
                "devices must be registered in this fleet under one layout"
            )
        rows = np.fromiter(
            (device._row for device in devices),
            dtype=np.int64,
            count=len(devices),
        )
        return columns, rows


# ----------------------------------------------------------------------
# fleet specs: JSON device groups -> a registered fleet
# ----------------------------------------------------------------------
#: Named case-study systems accepted by fleet specs.
_NAMED_SYSTEMS = {
    "example": "repro.systems.example_system",
    "disk_drive": "repro.systems.disk_drive",
    "web_server": "repro.systems.web_server",
    "cpu": "repro.systems.cpu",
    "baseline": "repro.systems.baseline",
}


def parse_fleet_spec(raw: dict) -> dict:
    """Validate the raw structure of a fleet spec.

    A fleet spec is a mapping::

        {
          "name": "campaign",
          "slices_per_tick": 500,            # optional controller default
          "groups": [
            {
              "id": "disks",                 # optional (default g<i>)
              "count": 512,
              "system": "disk_drive",        # name or inline system spec
              "agent": {"type": "optimal", "penalty_bound": 0.05},
              "workload": {"type": "mmpp2", "p_stay_idle": 0.95},  # optional
              "seed": 7,                     # optional group seed (>= 0)
              "initial_state": ["active", "0", 0]                  # optional
            },
            ...
          ]
        }

    Agent types: ``optimal`` (LP solve through the shared
    :class:`PolicyCache`; keys ``objective``, ``penalty_bound``,
    ``loss_bound``, ``bounds``, ``formulation``), ``eager``/``timeout``
    (keys ``active``/``sleep`` command names, ``timeout`` slices),
    ``constant`` (key ``command``), and ``adaptive``
    (:class:`~repro.policies.adaptive.AdaptivePolicyAgent` keys
    ``window``, ``refit_every``, ``memory``, ``penalty_bound``, ...;
    ``"auto_memory": true`` or an explicit ``"memories": [1, 2, 3]``
    refit through the BIC structure search of
    :class:`~repro.estimation.chain_fit.ArrivalChainEstimator` instead
    of the fixed-memory window heuristic).
    """
    if not isinstance(raw, dict):
        raise ValidationError(
            f"fleet spec must be a mapping, got {type(raw).__name__}"
        )
    groups = raw.get("groups")
    if not isinstance(groups, list) or not groups:
        raise ValidationError("fleet spec needs a non-empty 'groups' list")
    for i, group in enumerate(groups):
        _check_group(group, f"groups[{i}]")
    return raw


def _check_group(group, label: str) -> None:
    """Validate one spec group's structure; ``label`` names it in errors."""
    if not isinstance(group, dict):
        raise ValidationError(
            f"{label} must be a mapping, got {type(group).__name__}"
        )
    if "id" in group:
        label = f"{label} ({group['id']!r})"
    if "system" not in group:
        raise ValidationError(f"{label}: missing 'system'")
    if "agent" not in group or not isinstance(group["agent"], dict):
        raise ValidationError(f"{label}: missing 'agent' mapping")
    count = int(group.get("count", 1))
    if count <= 0:
        raise ValidationError(f"{label}: count must be > 0, got {count}")
    seed = group.get("seed")
    if seed is not None and (
        isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0
    ):
        raise ValidationError(
            f"{label}: seed must be an integer >= 0, got {seed!r}"
        )


def _compose_group_system(source):
    """Resolve a group's ``system`` field to (system, costs, gamma, p0, mask).

    ``mask`` is a named case study's hardware action mask (the CPU's
    reactive wake, paper Section VI-C), ``None`` for the others and
    for inline specs.
    """
    if isinstance(source, str):
        if source not in _NAMED_SYSTEMS:
            raise ValidationError(
                f"unknown system {source!r}; named systems: "
                f"{sorted(_NAMED_SYSTEMS)} (or pass an inline spec mapping)"
            )
        import importlib

        bundle = importlib.import_module(_NAMED_SYSTEMS[source]).build()
        return (
            bundle.system,
            bundle.costs,
            bundle.gamma,
            bundle.initial_distribution,
            bundle.action_mask,
        )
    if isinstance(source, dict):
        from repro.tool.spec import parse_spec

        spec = parse_spec(source)
        system, costs, p0 = spec.compose()
        return system, costs, spec.gamma, p0, None
    raise ValidationError(
        f"group 'system' must be a name or an inline spec mapping, "
        f"got {type(source).__name__}"
    )


@dataclass
class OptimizeDirective:
    """A picklable ``optimizer -> OptimizationResult`` solve request.

    The adaptive agent's refit loop carries its optimization target as
    a callable; fleet specs build it as this dataclass (rather than a
    lambda) so checkpointing a fleet of adaptive devices works.
    """

    objective: str = "power"
    upper_bounds: dict | None = None
    lower_bounds: dict | None = None

    def __call__(self, optimizer):
        return optimizer.optimize(
            self.objective,
            "min",
            upper_bounds=self.upper_bounds,
            lower_bounds=self.lower_bounds,
        )


def _optimal_bounds(agent_spec: dict) -> tuple[dict, dict]:
    upper = {
        str(k): float(v) for k, v in dict(agent_spec.get("bounds", {})).items()
    }
    if agent_spec.get("penalty_bound") is not None:
        upper["penalty"] = float(agent_spec["penalty_bound"])
    if agent_spec.get("loss_bound") is not None:
        upper["loss"] = float(agent_spec["loss_bound"])
    lower = {
        str(k): float(v)
        for k, v in dict(agent_spec.get("lower_bounds", {})).items()
    }
    return upper, lower


def _group_policy(
    agent_spec: dict,
    system: PowerManagedSystem,
    costs: CostModel,
    gamma: float,
    p0,
    cache: PolicyCache,
    lp_backend: str,
    action_mask=None,
):
    """The stationary policy one group's agents share, if its kind has one.

    ``optimal`` groups solve it through the cache (with the system's
    ``action_mask``, if it has one) and ``eager`` groups build it;
    every device of the group then wraps the same policy object.
    Other agent kinds return ``None``.
    """
    kind = str(agent_spec.get("type", "optimal"))
    if kind == "eager":
        from repro.policies import eager_markov_policy

        return eager_markov_policy(
            system, agent_spec["active"], agent_spec["sleep"]
        )
    if kind != "optimal":
        return None
    formulation = str(agent_spec.get("formulation", "average"))
    if formulation == "average":
        from repro.core.average_cost import AverageCostOptimizer

        optimizer = AverageCostOptimizer(
            system, costs, backend=lp_backend, action_mask=action_mask
        )
    elif formulation == "discounted":
        from repro.core.optimizer import PolicyOptimizer

        optimizer = PolicyOptimizer(
            system,
            costs,
            gamma=gamma,
            initial_distribution=p0,
            backend=lp_backend,
            action_mask=action_mask,
        )
    else:
        raise ValidationError(
            f"unknown formulation {formulation!r}; use 'average' or 'discounted'"
        )
    upper, lower = _optimal_bounds(agent_spec)
    objective = str(agent_spec.get("objective", "power"))
    result = cache.optimize(
        optimizer, objective, "min", upper_bounds=upper or None,
        lower_bounds=lower or None,
    )
    if not result.feasible:
        raise ValidationError(
            f"optimal-agent solve infeasible (objective={objective!r}, "
            f"bounds={upper!r})"
        )
    return result.policy


def _build_agent(
    agent_spec: dict,
    system: PowerManagedSystem,
    cache: PolicyCache,
    lp_backend: str,
    group_policy,
) -> PolicyAgent:
    """Instantiate one device's agent from a group agent spec."""
    from repro.policies import (
        AdaptivePolicyAgent,
        ConstantAgent,
        StationaryPolicyAgent,
        TimeoutAgent,
    )

    kind = str(agent_spec.get("type", "optimal"))
    if kind in ("optimal", "eager"):
        return StationaryPolicyAgent(system, group_policy)
    if kind == "constant":
        return ConstantAgent(
            system.chain.command_index(agent_spec.get("command", 0))
        )
    if kind == "timeout":
        return TimeoutAgent(
            int(agent_spec.get("timeout", 100)),
            system.chain.command_index(agent_spec["active"]),
            system.chain.command_index(agent_spec["sleep"]),
        )
    if kind == "adaptive":
        upper, lower = _optimal_bounds(agent_spec)
        estimator = None
        if agent_spec.get("auto_memory") or agent_spec.get("memories"):
            from repro.estimation.chain_fit import ArrivalChainEstimator

            estimator = ArrivalChainEstimator(
                memories=tuple(
                    int(m) for m in agent_spec.get("memories", (1, 2, 3))
                ),
                smoothing=float(agent_spec.get("smoothing", 0.5)),
            )
        return AdaptivePolicyAgent(
            system.provider,
            system.queue.capacity,
            OptimizeDirective(
                str(agent_spec.get("objective", "power")),
                upper or None,
                lower or None,
            ),
            window=int(agent_spec.get("window", 5000)),
            refit_every=int(agent_spec.get("refit_every", 1000)),
            memory=int(agent_spec.get("memory", 1)),
            fallback_command=system.chain.command_index(
                agent_spec.get("fallback_command", 0)
            ),
            backend=lp_backend,
            policy_cache=cache,
            estimator=estimator,
        )
    raise ValidationError(
        f"unknown agent type {kind!r}; use "
        f"optimal/eager/constant/timeout/adaptive"
    )


def build_agent_from_spec(
    agent_spec: dict,
    system: PowerManagedSystem,
    costs: CostModel,
    *,
    gamma: float = 0.99999,
    initial_distribution=None,
    cache: PolicyCache | None = None,
    lp_backend: str = "scipy",
) -> PolicyAgent:
    """Build one agent from a group-style agent spec mapping.

    The standalone entry the service layer uses for live policy pushes
    (``fleet-ctl update-policy``): the same spec vocabulary as
    :func:`build_fleet` groups, solved through the same
    :class:`PolicyCache` machinery, for a system/costs pair that
    already exists.
    """
    agent_spec = dict(agent_spec)
    if not isinstance(agent_spec.get("type", "optimal"), str):
        raise ValidationError("agent spec 'type' must be a string")
    cache = PolicyCache() if cache is None else cache
    group_policy = _group_policy(
        agent_spec, system, costs, gamma, initial_distribution, cache,
        lp_backend,
    )
    return _build_agent(agent_spec, system, cache, lp_backend, group_policy)


def _build_group(
    fleet: Fleet,
    group: dict,
    gi: int,
    base_seed: int,
    cache: PolicyCache,
    lp_backend: str,
) -> None:
    """Register one spec group's devices into ``fleet``.

    Stream-less devices start at positions seeded in one array pass
    (:func:`~repro.sim.rng_batched.device_positions`); stream-driven
    ones keep the ``device_rng`` generator their stream draws from.
    Either way device ``i`` starts where ``device_rng(seed, i)`` does.
    """
    prefix = str(group.get("id", f"g{gi}"))
    count = int(group.get("count", 1))
    seed = group.get("seed")
    if seed is None:
        seed = base_seed * 7919 + gi
        if base_seed < 0 or seed < 0:
            raise ValidationError(
                f"group {prefix!r}: stream seeds must be >= 0, got base "
                f"seed {base_seed} at group index {gi} (seed {seed})"
            )
    system, costs, gamma, p0, mask = _compose_group_system(group["system"])
    agent_spec = dict(group["agent"])
    group_policy = _group_policy(
        agent_spec, system, costs, gamma, p0, cache, lp_backend, mask
    )
    initial_state = group.get("initial_state")
    if initial_state is not None:
        initial_state = (
            str(initial_state[0]),
            str(initial_state[1]),
            int(initial_state[2]),
        )

    def agent() -> PolicyAgent:
        return _build_agent(agent_spec, system, cache, lp_backend, group_policy)

    # Stationary agents hold no state: the group's devices share one.
    if group_policy is not None:
        agents = [agent()] * count
    else:
        agents = [agent() for _ in range(count)]
    device_ids = [f"{prefix}-{i:04d}" for i in range(count)]
    workload = group.get("workload")
    if workload is None:
        fleet.add_devices(
            device_ids,
            system,
            costs,
            agents,
            positions=device_positions(seed, np.arange(count)),
            initial_state=initial_state,
        )
        return
    workload = dict(workload)
    rngs = [device_rng(seed, i) for i in range(count)]
    if workload.get("type") == "trace":
        from repro.runtime.streams import TraceStream

        # Trace workloads are read and discretized once per group; each
        # device gets its own cursor over the shared count array.
        counts = stream_from_spec(workload, device_rng(seed, 0)).counts
        cycle = bool(workload.get("cycle", True))
        streams = [TraceStream(counts, cycle=cycle) for _ in range(count)]
    else:
        streams = [stream_from_spec(workload, rng) for rng in rngs]
    fleet.add_devices(
        device_ids,
        system,
        costs,
        agents,
        rngs=rngs,
        streams=streams,
        initial_state=initial_state,
    )


def build_group_devices(
    group: dict,
    *,
    group_index: int = 0,
    base_seed: int = 0,
    lp_backend: str = "scipy",
    cache: PolicyCache | None = None,
) -> list[Device]:
    """Build one spec group's devices without a surrounding fleet.

    The live-registration entry: the service daemon turns a
    ``register_group`` request into devices with exactly the same
    construction path (seeding, shared trace counts, shared policy
    solves) as :func:`build_fleet`, then distributes them to shards.
    """
    _check_group(group, "group spec")
    cache = PolicyCache() if cache is None else cache
    staging = Fleet()
    _build_group(
        staging, group, int(group_index), int(base_seed), cache, lp_backend
    )
    return list(staging)


def build_fleet(
    raw: dict,
    *,
    base_seed: int = 0,
    lp_backend: str = "scipy",
    cache: PolicyCache | None = None,
) -> tuple[Fleet, PolicyCache]:
    """Register every device a fleet spec describes.

    Returns the fleet and the policy cache used for the optimal-agent
    solves (freshly created unless one was passed in) so callers can
    report dedupe statistics.
    """
    raw = parse_fleet_spec(raw)
    cache = PolicyCache() if cache is None else cache
    fleet = Fleet()
    for gi, group in enumerate(raw["groups"]):
        _build_group(fleet, group, gi, base_seed, cache, lp_backend)
    return fleet, cache
