"""Vectorized batch simulation of stationary Markov policies.

For a :class:`~repro.policies.base.StationaryAgent` the per-slice
decision is a pure function of the joint state, so the composed system
and the policy can be *compiled* ahead of time into flat joint-state
tables — policy cumulative rows, greedy commands, per-joint-state cost
rows, and the arrival/service bookkeeping arrays — and many independent
replications stepped at once:

* one NumPy operation advances the whole batch one slice;
* uniforms are drawn in chunked blocks (``(chunk, kinds, lanes)``) so
  generator overhead is amortized over thousands of draws;
* categorical draws use *offset cumsums*: every cumulative row is
  shifted by its integer row id and the rows concatenated into one
  globally non-decreasing array, so a whole batch of row-dependent
  draws is a single :func:`numpy.searchsorted` call
  (``index = searchsorted(flat, row_id + u) - row_id * width``);
* each slice keeps its own books: lookups by (policy, joint state)
  give a lane's command, SP row, service probability and cost row
  (whose last column flags a loss event); the slice adds the cost row
  into per-lane sums and records its command, provider state, arrivals
  and services, which are counted once per chunk (one ``bincount``
  gives command counts and occupancies).  The loop holds each lane's
  provider, requester and queue states, so the joint index is only
  ever built, never split.

The joint transition row ``T_a[x, ·]`` is sampled in factorized form
(SP row, then SR row, then the queue's service Bernoulli) rather than
as one ``|X|``-wide categorical: the factor rows are exactly the product
measure of paper Eq. 4, cost O(log(S) + log(R)) instead of O(S·R·Q) per
draw, and — unlike a collapsed joint draw — keep the physical
arrival/service/loss counters exact (a joint next-state alone cannot
distinguish "serviced" from "lost" when the queue ends full).

Within one slice the batch consumes uniforms in the same order as the
reference loop (policy, SP, SR, service), which the seeded-equivalence
suite exploits: with one lane, an always-issuing workload and a fully
randomized policy, loop and vector trajectories coincide draw for draw.

Two lane kinds beyond stationary policies let the fleet runtime keep
its fixed-timeout and stream-driven devices off the per-device loop:

* *timeout lanes* (:class:`TimeoutLanes`) issue
  :class:`~repro.policies.timeout.TimeoutAgent`'s command: each slice
  the lane's policy row switches between two constant policies of the
  batch (always-active, always-sleep) by the agent's idle-counter rule,
  so the deterministic lookups and the books serve them unchanged;
* a *counts-driven* batch (``counts=``) takes each slice's arrivals
  from a ``(slices, lanes)`` block instead of the SR chain and tracks
  the SR state through a count -> state table
  (:meth:`~repro.sim.trace_sim.NearestArrivalTracker.state_table`),
  the trace-driven mode of :func:`~repro.sim.trace_sim.simulate_trace`.
  It draws no SR uniform, so its batches draw 2 (deterministic) or 3
  uniform kinds per slice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.costs import CostModel
from repro.core.policy import MarkovPolicy
from repro.core.system import PowerManagedSystem
from repro.policies.base import PolicyAgent, StationaryAgent
from repro.sim.backends.base import SimulationTables, resolve_initial_state
from repro.sim.result import SimulationResult
from repro.sim.rng import categorical_cumsum
from repro.sim.stats import SampleStats
from repro.util.validation import ValidationError

#: Deterministic-row threshold, matching StationaryPolicyAgent.
_DETERMINISTIC_TOL = 1e-12

#: Target uniform-block size (doubles) per chunk draw.
_CHUNK_BUDGET = 16_384

#: Slice cap per chunk (bounds the uniform block and the per-slice
#: books of tiny batches).
_MAX_CHUNK = 2_048


def resolve_chunk(
    n_lanes: int,
    n_kinds: int,
    remaining_max: int,
    chunk_slices: int | None,
) -> int:
    """Slices the next chunk should step.

    The chunk length fixes the uniform block each draw requests, and
    therefore the RNG streams and float-summation trees:

    * ``chunk_slices`` pinned: exactly that many slices, capped by the
      longest remaining lane.  The fleet runtime pins
      ``FLEET_CHUNK_SLICES`` so a device's float partial sums break at
      the same slices however many lanes it is grouped with (integer
      counters and trajectories are chunk-invariant anyway, because
      uniforms are consumed in ``(slice, kind, lane)`` order
      regardless of chunking).
    * otherwise (the offline batch APIs): the lane-count-scaled
      uniform budget (``_CHUNK_BUDGET`` doubles per draw), capped at
      ``_MAX_CHUNK`` slices so the uniform block and the per-slice
      books stay small for tiny batches.  It is a pure function of
      the batch shape, so seeded results are reproducible as they are.
    """
    if chunk_slices is not None:
        chunk_slices = int(chunk_slices)
        if chunk_slices <= 0:
            raise ValidationError(
                f"chunk_slices must be > 0, got {chunk_slices}"
            )
        return int(min(chunk_slices, remaining_max))
    budget = max(1, _CHUNK_BUDGET // (n_kinds * n_lanes))
    return int(min(_MAX_CHUNK, budget, remaining_max))


def _offset_cumsum(cumsum_rows: np.ndarray) -> np.ndarray:
    """Concatenate cumulative rows into one sorted offset array.

    Row ``i`` (ending at exactly 1.0) is shifted to span ``(i, i + 1]``,
    so ``searchsorted(flat, i + u, side="right") - i * width`` is the
    row-local ``side="right"`` categorical index.  The shifted
    comparison can differ from the unshifted one only when ``u`` lies
    within one rounding ulp of a cumulative entry — a measure-~1e-13
    event per draw that the equivalence suite bounds.
    """
    rows = cumsum_rows.reshape(-1, cumsum_rows.shape[-1])
    return (rows + np.arange(rows.shape[0])[:, None]).ravel()


@dataclass(frozen=True)
class CompiledPolicyBatch:
    """Policy matrices compiled for batched joint-state lookup.

    All arrays are flattened policy-major (index ``p * n_states + x``)
    so a single gather resolves any (policy, joint-state) pair.

    Attributes
    ----------
    n_states / n_commands:
        System dimensions the batch was compiled against.
    offset_cumsum:
        ``(n_policies * n_states * n_commands,)`` offset cumulative
        rows for one-searchsorted command sampling.
    greedy:
        Argmax command per (policy, state).
    deterministic_row:
        Rows carrying all mass on one command (no uniform consumed by
        the reference agent).
    fully_deterministic:
        True when *no* row anywhere in the batch needs a draw.
    sp_row / sigma:
        For the fully-deterministic fast path: the SP transition row id
        ``a(x) * n_sp + s(x)`` and service probability of the greedy
        command, per (policy, state).
    """

    n_states: int
    n_commands: int
    offset_cumsum: np.ndarray
    greedy: np.ndarray
    deterministic_row: np.ndarray
    fully_deterministic: bool
    sp_row: np.ndarray
    sigma: np.ndarray

    @classmethod
    def compile(
        cls,
        system: PowerManagedSystem,
        policies: list[MarkovPolicy],
    ) -> "CompiledPolicyBatch":
        """Stack and compile ``policies`` against ``system``."""
        matrices = []
        for policy in policies:
            if (
                policy.n_states != system.n_states
                or policy.n_commands != system.n_commands
            ):
                raise ValidationError(
                    f"policy shape ({policy.n_states}, {policy.n_commands}) "
                    f"does not match system "
                    f"({system.n_states}, {system.n_commands})"
                )
            matrices.append(policy.matrix)
        stack = np.stack(matrices, axis=0)
        deterministic = stack.max(axis=2) > 1.0 - _DETERMINISTIC_TOL
        greedy = np.argmax(stack, axis=2)
        n_sp = system.provider.n_states
        s_of = np.arange(system.n_states) // (
            system.requester.n_states * system.queue.n_states
        )
        rates = system.provider.service_rate_matrix
        return cls(
            n_states=system.n_states,
            n_commands=system.n_commands,
            offset_cumsum=_offset_cumsum(categorical_cumsum(stack, axis=2)),
            greedy=greedy.reshape(-1),
            deterministic_row=deterministic.reshape(-1),
            fully_deterministic=bool(deterministic.all()),
            sp_row=(greedy * n_sp + s_of[None, :]).reshape(-1),
            sigma=rates[s_of[None, :], greedy].reshape(-1),
        )


@dataclass(frozen=True)
class TimeoutLanes:
    """Lanes commanded by :class:`~repro.policies.timeout.TimeoutAgent`'s rule.

    Each slice, work is pending when the lane's queue is non-empty or
    its previous slice had arrivals; pending work resets the lane's
    idle counter, otherwise the counter grows by one.  The lane then
    steps on its ``sleep`` policy once the counter exceeds ``timeout``,
    else on its ``active`` policy.  All arrays hold one entry per
    timeout lane.

    Attributes
    ----------
    lanes:
        The timeout lanes' indices in the batch.
    timeout:
        Idle slices each lane waits before its sleep command.
    active / sleep:
        Indices, in the compiled batch, of the constant policies issuing
        the lane's active and sleep commands.
    idle:
        Idle counters at the first slice.
    """

    lanes: np.ndarray
    timeout: np.ndarray
    active: np.ndarray
    sleep: np.ndarray
    idle: np.ndarray


@dataclass(frozen=True)
class _CompiledSystem:
    """System arrays flattened for the batched stepper.

    Compiled once per :class:`SimulationTables` (see
    :attr:`SimulationTables.kernel
    <repro.sim.backends.base.SimulationTables.kernel>`), so a fleet
    group that steps every tick on one set of tables compiles them
    once.
    """

    sp_offset: np.ndarray  # ((A * S) * S,) offset cumsum, row a * S + s
    sr_offset: np.ndarray  # (R * R,) offset cumsum, row r
    rates_flat: np.ndarray  # (A * S,), index a * S + s
    # (J * A, M + 1) per (joint state x, command a), row x * A + a:
    # the slice's M costs, then its loss-event flag (1.0 when a
    # model-driven slice from x is a loss event: it starts with a full
    # queue in an issuing SR state), so summing the rows counts events.
    cost_rows: np.ndarray

    @classmethod
    def compile(cls, tables: SimulationTables) -> "_CompiledSystem":
        n_sp, n_sr, n_sq = tables.n_sp, tables.n_sr, tables.n_sq
        joint = np.arange(n_sp * n_sr * n_sq)
        loss_event = tables.issuing[(joint // n_sq) % n_sr] & (
            joint % n_sq == tables.capacity
        )
        costs = tables.metric_stack.reshape(tables.metric_stack.shape[0], -1)
        events = np.repeat(loss_event, tables.n_commands)
        return cls(
            sp_offset=_offset_cumsum(tables.sp_cum),
            sr_offset=_offset_cumsum(tables.sr_cum),
            rates_flat=tables.rates.T.ravel(),
            cost_rows=np.column_stack((costs.T, events)),
        )


class VectorBackend:
    """Compiled batch stepper for stationary Markov policies."""

    def simulate_batch(
        self,
        system: PowerManagedSystem,
        costs: CostModel,
        policies: list[MarkovPolicy],
        n_slices: int,
        rng: np.random.Generator,
        initial_state=None,
        n_replications: int = 1,
    ) -> list[list[SimulationResult]]:
        """Simulate every policy ``n_replications`` times in one batch.

        All ``len(policies) * n_replications`` lanes advance together;
        the return value is one list of replication results per policy,
        in input order.
        """
        n_slices = int(n_slices)
        n_replications = int(n_replications)
        if n_slices <= 0:
            raise ValidationError(f"n_slices must be > 0, got {n_slices}")
        if n_replications <= 0:
            raise ValidationError(
                f"n_replications must be > 0, got {n_replications}"
            )
        if not policies:
            return []
        tables = SimulationTables.compile(system, costs)
        compiled = CompiledPolicyBatch.compile(system, policies)
        n_lanes = len(policies) * n_replications
        policy_of_lane = np.repeat(np.arange(len(policies)), n_replications)
        s0, r0, q0 = resolve_initial_state(system, initial_state)
        lengths = np.full(n_lanes, n_slices, dtype=np.int64)
        acc = self.step_lanes(
            tables, compiled, policy_of_lane, lengths, (s0, r0, q0), rng
        )
        results = [
            _lane_result(tables, acc, lane, n_slices)
            for lane in range(n_lanes)
        ]
        return [
            results[p * n_replications : (p + 1) * n_replications]
            for p in range(len(policies))
        ]

    def simulate_sessions(
        self,
        system: PowerManagedSystem,
        costs: CostModel,
        agent: PolicyAgent,
        gamma: float,
        n_sessions: int,
        rng: np.random.Generator,
        initial_state=None,
        max_session_slices: int | None = None,
    ) -> dict[str, SampleStats]:
        """Geometric sessions, packed into the batch dimension.

        All session lengths are drawn up front; every session then runs
        as one lane of a single batch, with finished lanes compacted
        away chunk by chunk, so the whole estimate costs one compiled
        stepping pass instead of ``n_sessions`` separate runs.
        """
        if not isinstance(agent, StationaryAgent):
            raise ValidationError(
                f"the vector path requires a stationary Markov policy; "
                f"{agent.describe()} is not marked StationaryAgent — "
                f"use LoopBackend"
            )
        agent.reset()
        policy = agent.stationary_policy(system)
        tables = SimulationTables.compile(system, costs)
        compiled = CompiledPolicyBatch.compile(system, [policy])
        n_sessions = int(n_sessions)
        lengths = rng.geometric(1.0 - gamma, size=n_sessions).astype(np.int64)
        if max_session_slices is not None:
            np.minimum(lengths, int(max_session_slices), out=lengths)
        np.maximum(lengths, 1, out=lengths)
        s0, r0, q0 = resolve_initial_state(system, initial_state)
        policy_of_lane = np.zeros(n_sessions, dtype=np.int64)
        acc = self.step_lanes(
            tables, compiled, policy_of_lane, lengths, (s0, r0, q0), rng
        )
        return {
            name: SampleStats.from_samples(acc.lane_totals[:, i])
            for i, name in enumerate(tables.metric_names)
        }

    # ------------------------------------------------------------------
    # the stepping entry point
    # ------------------------------------------------------------------
    def step_lanes(
        self,
        tables: SimulationTables,
        compiled: CompiledPolicyBatch,
        policy_of_lane: np.ndarray,
        lengths: np.ndarray,
        start: tuple,
        rng,
        chunk_slices: int | None = None,
        *,
        timeouts: TimeoutLanes | None = None,
        counts: np.ndarray | None = None,
        count_states: np.ndarray | None = None,
        prev_arrivals: np.ndarray | None = None,
    ) -> "_LaneAccumulators":
        """Advance every lane; see :func:`_step_lanes` for the contract.

        The batch APIs and the fleet controller's grouped path all step
        through this method, so it is the one place to observe (or
        wrap) every kernel call.
        """
        return _step_lanes(
            tables,
            compiled,
            policy_of_lane,
            lengths,
            start,
            rng,
            chunk_slices=chunk_slices,
            timeouts=timeouts,
            counts=counts,
            count_states=count_states,
            prev_arrivals=prev_arrivals,
        )


@dataclass
class _LaneAccumulators:
    """Per-lane counters collected by :func:`_step_lanes`.

    One row per lane, in the fleet column set's layouts, so each array
    reaches the fleet's columns with one add.
    """

    lane_totals: np.ndarray  # (n_lanes, n_metrics)
    command_counts: np.ndarray  # (n_lanes, n_commands)
    provider_occupancy: np.ndarray  # (n_lanes, n_sp)
    # (n_lanes, 4): arrivals, serviced, lost, loss-event slices.
    counters: np.ndarray
    final_state: np.ndarray  # (n_lanes, 3)
    # Resumable runs only (timeout lanes, counts, or prev_arrivals
    # given): the last slice's arrivals per lane, and the timeout
    # lanes' idle counters after the last slice.
    prev_arrivals: np.ndarray | None = None  # (n_lanes,)
    idle: np.ndarray | None = None  # (n_timeout_lanes,)


def _lane_result(
    tables: SimulationTables, acc: _LaneAccumulators, lane: int, n_slices: int
) -> SimulationResult:
    totals = acc.lane_totals[lane]
    names = tables.metric_names
    arrivals, serviced, lost, loss_events = acc.counters[lane].tolist()
    return SimulationResult(
        n_slices=n_slices,
        averages={
            name: float(totals[i]) / n_slices for i, name in enumerate(names)
        },
        totals={name: float(totals[i]) for i, name in enumerate(names)},
        arrivals=arrivals,
        serviced=serviced,
        lost=lost,
        loss_event_slices=loss_events,
        command_counts=acc.command_counts[lane].copy(),
        provider_occupancy=acc.provider_occupancy[lane].copy(),
        final_state=tuple(int(v) for v in acc.final_state[lane]),
    )


def _step_lanes(
    tables: SimulationTables,
    compiled: CompiledPolicyBatch,
    policy_of_lane: np.ndarray,
    lengths: np.ndarray,
    start: tuple,
    rng: np.random.Generator,
    chunk_slices: int | None = None,
    *,
    timeouts: TimeoutLanes | None = None,
    counts: np.ndarray | None = None,
    count_states: np.ndarray | None = None,
    prev_arrivals: np.ndarray | None = None,
) -> _LaneAccumulators:
    """Advance every lane through its own number of slices.

    Each slice adds its cost row (with its loss-event flag) into
    per-lane sums and records its command, provider state, arrivals
    and services, which are counted once per chunk.  Float totals are
    summed slice by slice within a chunk and chunk by chunk into the
    result, so a lane's bits depend on its chunk boundaries only.
    Losses come out of the queue balance at the end (every request
    that arrived was served, lost or is still queued).

    Equal lengths run with no masking; ragged lengths (session mode)
    mask finished lanes within a chunk, holding their state where they
    ended, and compact them away between chunks, so wasted work is
    bounded by one chunk per lane.

    A *resumable* run carries a trajectory across calls the way the
    fleet steps a device tick by tick; it steps equal lengths only.
    ``prev_arrivals`` (one per lane, default zeros) holds the arrivals
    of the slice before the first.  ``timeouts`` marks
    :class:`TimeoutLanes`.  ``counts``, a ``(slices, lanes)`` block of
    non-negative arrival counts, drives every lane's arrivals instead
    of the SR chain; the SR state after a slice with ``z`` arrivals is
    ``count_states[min(z, len(count_states) - 1)]``, and a loss event
    is a slice that starts with a full queue after a slice with
    arrivals, as in the reference loop's counts-driven mode.  The
    returned accumulators then also hold each lane's last-slice
    arrivals and the timeout lanes' idle counters.

    ``start`` may hold scalars (every lane begins in the same
    ``(provider, requester, queue)`` state) or int arrays of one entry
    per lane — the fleet runtime resumes each device from wherever it
    stopped.  ``chunk_slices`` pins the chunk length instead of the
    lane-count-dependent uniform budget; the fleet runtime uses this so
    a device consumes its stream through identical reduction boundaries
    no matter how many lanes it is grouped with (fleet determinism is
    bitwise, not just statistical).  ``rng`` is anything satisfying the
    :class:`~repro.sim.rng.UniformSource` protocol — a plain generator,
    or a per-lane producer like :class:`~repro.sim.rng.FanInSource` /
    :class:`~repro.sim.rng_batched.BatchedPCG64Source` drawing each
    lane's uniforms from that device's own stream.
    """
    n_metrics = tables.metric_stack.shape[0]
    n_commands = tables.n_commands
    n_sp, n_sr, n_sq = tables.n_sp, tables.n_sr, tables.n_sq
    n_states = n_sp * n_sr * n_sq
    capacity = tables.capacity
    n_total = int(policy_of_lane.shape[0])
    system_flat = tables.kernel

    acc = _LaneAccumulators(
        lane_totals=np.zeros((n_total, n_metrics)),
        command_counts=np.zeros((n_total, n_commands), dtype=np.int64),
        provider_occupancy=np.zeros((n_total, n_sp), dtype=np.int64),
        counters=np.zeros((n_total, 4), dtype=np.int64),
        final_state=np.zeros((n_total, 3), dtype=np.int64),
    )

    # Live lane state; lanes are compacted away as they finish.
    lane_ids = np.arange(n_total)
    remaining = lengths.astype(np.int64)
    pol_base = policy_of_lane.astype(np.int64) * n_states
    s, r, q = (
        np.broadcast_to(np.asarray(value, dtype=np.int64), (n_total,))
        for value in start
    )
    q_start = q

    driven = counts is not None
    resumable = driven or timeouts is not None or prev_arrivals is not None
    if resumable and n_total and (remaining != remaining[0]).any():
        raise ValidationError(
            "timeout lanes, counts and prev_arrivals need equal lane lengths"
        )
    # Arrivals of the slice before the next one, per lane.
    prev = np.zeros(n_total, dtype=np.int64)
    if prev_arrivals is not None:
        prev[:] = prev_arrivals
    if driven:
        counts = np.asarray(counts, dtype=np.int64)
        n_slices = int(remaining[0]) if n_total else 0
        if counts.shape != (n_slices, n_total):
            raise ValidationError(
                f"counts must be a ({n_slices}, {n_total}) block, got "
                f"{counts.shape}"
            )
        if counts.size and counts.min() < 0:
            raise ValidationError("arrival counts must be non-negative")
        count_states = np.asarray(count_states, dtype=np.int64)
        top_count = count_states.size - 1
    if timeouts is not None:
        t_lanes = np.asarray(timeouts.lanes, dtype=np.int64)
        t_limit = np.asarray(timeouts.timeout, dtype=np.int64)
        t_active = np.asarray(timeouts.active, dtype=np.int64) * n_states
        t_sleep = np.asarray(timeouts.sleep, dtype=np.int64) * n_states
        idle = np.array(timeouts.idle, dtype=np.int64)

    deterministic = compiled.fully_deterministic
    # Uniform kinds per slice: the policy draw (randomized batches),
    # SP, SR (model-driven batches) and the service Bernoulli.
    n_kinds = (3 if deterministic else 4) - driven
    u_sp = 0 if deterministic else 1
    u_sr = u_sp + 1
    u_service = n_kinds - 1
    arrivals_of = tables.arrivals_of
    sp_offset = system_flat.sp_offset
    sr_offset = system_flat.sr_offset
    rates_flat = system_flat.rates_flat
    cost_rows = system_flat.cost_rows
    pol_offset = compiled.offset_cumsum
    greedy = compiled.greedy
    det_row = compiled.deterministic_row
    sp_row_det = compiled.sp_row
    sigma_det = compiled.sigma
    any_det_rows = bool(det_row.any())
    if deterministic:
        # The greedy command's cost row, per (policy, state).
        det_costs = cost_rows[
            np.arange(greedy.size) % n_states * n_commands + greedy
        ]
    stepped = 0

    while lane_ids.size:
        n_lanes = lane_ids.size
        # Timeout lanes switch policy rows every slice.
        single_policy = timeouts is None and bool(
            pol_base[0] == 0 and (pol_base == 0).all()
        )
        chunk = resolve_chunk(
            n_lanes, n_kinds, int(remaining.max()), chunk_slices
        )
        uniforms = rng.random((chunk, n_kinds, n_lanes))
        # Lanes that end inside this chunk are masked from then on.
        ragged = bool(remaining.min() < chunk)
        # The chunk's books.  tot sums each lane's cost rows with their
        # loss-event column, slice by slice.  bins holds every slice's
        # command and provider state per lane, which become bin indices
        # after the chunk: lane l's command a is bin l * A + a, its
        # state s bin L * A + l * S + s, and a masked slice's bins are
        # the one bin after those, dropped after the count.  arrived
        # and flags (served, and the counts-driven loss event) hold
        # every slice's arrivals and services per lane, summed after
        # the chunk.
        tot = np.zeros((n_lanes, n_metrics + 1))
        bins = np.empty((chunk, 2, n_lanes), dtype=np.int64)
        arrived = np.empty((chunk, n_lanes), dtype=np.int64)
        flags = np.empty((chunk, 1 + driven, n_lanes), dtype=bool)
        if driven:
            arrived[:] = counts[stepped : stepped + chunk]

        for k in range(chunk):
            if timeouts is not None:
                work = (q[t_lanes] > 0) | (prev[t_lanes] > 0)
                idle = np.where(work, 0, idle + 1)
                pol_base[t_lanes] = np.where(idle > t_limit, t_sleep, t_active)
            x = (s * n_sr + r) * n_sq + q
            rowx = x if single_policy else pol_base + x
            # The command goes straight into its bin row; mode="clip"
            # (every index is in range) lets take write there unbuffered.
            a = bins[k, 0]
            if deterministic:
                greedy.take(rowx, out=a, mode="clip")
                cost = det_costs.take(rowx, axis=0)
                sp_row = sp_row_det.take(rowx)
                sigma = sigma_det.take(rowx)
            else:
                np.subtract(
                    np.searchsorted(pol_offset, rowx + uniforms[k, 0], side="right"),
                    rowx * n_commands,
                    out=a,
                )
                # Row-local indices are provably >= 0; only the top end
                # needs a rounding guard (np.clip is ~7x costlier).
                np.minimum(a, n_commands - 1, out=a)
                if any_det_rows:
                    np.copyto(a, greedy.take(rowx), where=det_row.take(rowx))
                cost = cost_rows.take(x * n_commands + a, axis=0)
                sp_row = a * n_sp + s
                sigma = rates_flat.take(sp_row)
            bins[k, 1] = s
            if ragged:
                alive = remaining > k
                tot += cost * alive[:, None]
            else:
                tot += cost
            if driven:
                # Arrivals are at risk after a slice that had some.
                np.logical_and(prev > 0, q == capacity, out=flags[k, 1])

            s_next = (
                np.searchsorted(
                    sp_offset, sp_row + uniforms[k, u_sp], side="right"
                )
                - sp_row * n_sp
            )
            np.minimum(s_next, n_sp - 1, out=s_next)
            if driven:
                z = arrived[k]
                r_next = count_states[np.minimum(z, top_count)]
            else:
                r_next = (
                    np.searchsorted(
                        sr_offset, r + uniforms[k, u_sr], side="right"
                    )
                    - r * n_sr
                )
                np.minimum(r_next, n_sr - 1, out=r_next)
                z = arrivals_of.take(r_next, out=arrived[k], mode="clip")
            pending = q + z
            served = np.logical_and(
                uniforms[k, u_service] < sigma, pending > 0, out=flags[k, 0]
            )
            q_next = np.minimum(pending - served, capacity)
            if ragged:
                # A finished lane holds the state it ended in.
                s = np.where(alive, s_next, s)
                r = np.where(alive, r_next, r)
                q = np.where(alive, q_next, q)
            else:
                s, r, q = s_next, r_next, q_next
            prev = z
        stepped += chunk

        # --- add the chunk's books into the lanes' rows ---
        lanes = np.arange(n_lanes)
        bins[:, 0] += lanes * n_commands
        bins[:, 1] += n_lanes * n_commands + lanes * n_sp
        n_bins = n_lanes * (n_commands + n_sp)
        if ragged:
            dead = remaining <= np.arange(chunk)[:, None]
            np.copyto(bins, n_bins, where=dead[:, None])
            arrived = arrived * ~dead
            flags = flags & ~dead[:, None]
        rows = slice(None) if n_lanes == n_total else lane_ids
        acc.lane_totals[rows] += tot[:, :n_metrics]
        binned = np.bincount(bins.ravel(), minlength=n_bins)
        split = n_lanes * n_commands
        acc.command_counts[rows] += binned[:split].reshape(n_lanes, n_commands)
        acc.provider_occupancy[rows] += binned[split:n_bins].reshape(n_lanes, n_sp)
        flagged = flags.sum(axis=0)
        acc.counters[rows, 0] += arrived.sum(axis=0)
        acc.counters[rows, 1] += flagged[0]
        acc.counters[rows, 3] += (
            flagged[1] if driven else tot[:, n_metrics].astype(np.int64)
        )

        # Lanes that finished inside this chunk hold their final state.
        remaining -= chunk
        finished = remaining <= 0
        if finished.any():
            acc.final_state[lane_ids[finished]] = np.column_stack(
                (s[finished], r[finished], q[finished])
            )
            keep = ~finished
            lane_ids = lane_ids[keep]
            remaining = remaining[keep]
            pol_base = pol_base[keep]
            s = s[keep]
            r = r[keep]
            q = q[keep]
    # Every request that arrived was served, lost or is still queued.
    counters = acc.counters
    counters[:, 2] = (
        counters[:, 0] - counters[:, 1] + q_start - acc.final_state[:, 2]
    )
    # A resumable run's lanes all finish in its last chunk, so the
    # loop's final values are every lane's.
    if resumable:
        acc.prev_arrivals = np.array(prev, dtype=np.int64)
    if timeouts is not None:
        acc.idle = idle
    return acc
