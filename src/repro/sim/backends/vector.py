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
* per-slice bookkeeping is reduced to recording the joint-state /
  command / service histories, which are folded into totals, command
  counts, occupancies and loss counters once per chunk with fancy
  gathers and ``bincount``.

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
  so the deterministic lookups and the cost fold serve them unchanged;
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

#: Slice cap per chunk (bounds history buffers for tiny batches).
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
      ``_MAX_CHUNK`` slices so history buffers stay small for tiny
      batches.  It is a pure function of the batch shape, so seeded
      results are reproducible as they are.
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
    """System arrays flattened for the batched stepper."""

    sp_offset: np.ndarray  # ((A * S) * S,) offset cumsum, row a * S + s
    sr_offset: np.ndarray  # (R * R,) offset cumsum, row r
    rates_flat: np.ndarray  # (A * S,), index a * S + s
    s_of: np.ndarray  # (J,) joint -> SP state

    @classmethod
    def compile(cls, tables: SimulationTables) -> "_CompiledSystem":
        joint = np.arange(tables.n_sp * tables.n_sr * tables.n_sq)
        return cls(
            sp_offset=_offset_cumsum(tables.sp_cum),
            sr_offset=_offset_cumsum(tables.sr_cum),
            rates_flat=tables.rates.T.ravel(),
            s_of=joint // (tables.n_sr * tables.n_sq),
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
            name: SampleStats.from_samples(acc.totals[i])
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
    """Per-lane counters collected by :func:`_step_lanes`."""

    totals: np.ndarray  # (n_metrics, n_lanes)
    command_counts: np.ndarray  # (n_lanes, n_commands)
    provider_occupancy: np.ndarray  # (n_lanes, n_sp)
    arrivals: np.ndarray  # (n_lanes,)
    serviced: np.ndarray  # (n_lanes,)
    lost: np.ndarray  # (n_lanes,)
    loss_events: np.ndarray  # (n_lanes,)
    final_state: np.ndarray  # (n_lanes, 3)
    # Resumable runs only (timeout lanes, counts, or prev_arrivals
    # given): the last slice's arrivals per lane, and the timeout
    # lanes' idle counters after the last slice.
    prev_arrivals: np.ndarray | None = None  # (n_lanes,)
    idle: np.ndarray | None = None  # (n_timeout_lanes,)


def _lane_result(
    tables: SimulationTables, acc: _LaneAccumulators, lane: int, n_slices: int
) -> SimulationResult:
    totals = acc.totals[:, lane]
    names = tables.metric_names
    return SimulationResult(
        n_slices=n_slices,
        averages={
            name: float(totals[i]) / n_slices for i, name in enumerate(names)
        },
        totals={name: float(totals[i]) for i, name in enumerate(names)},
        arrivals=int(acc.arrivals[lane]),
        serviced=int(acc.serviced[lane]),
        lost=int(acc.lost[lane]),
        loss_event_slices=int(acc.loss_events[lane]),
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

    Equal lengths run with no masking; ragged lengths (session mode)
    mask finished lanes within a chunk and compact them away between
    chunks, so wasted work is bounded by one chunk per lane.

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
    system_flat = _CompiledSystem.compile(tables)

    acc = _LaneAccumulators(
        totals=np.zeros((n_metrics, n_total)),
        command_counts=np.zeros((n_total, n_commands), dtype=np.int64),
        provider_occupancy=np.zeros((n_total, n_sp), dtype=np.int64),
        arrivals=np.zeros(n_total, dtype=np.int64),
        serviced=np.zeros(n_total, dtype=np.int64),
        lost=np.zeros(n_total, dtype=np.int64),
        loss_events=np.zeros(n_total, dtype=np.int64),
        final_state=np.zeros((n_total, 3), dtype=np.int64),
    )

    # Live lane state; lanes are compacted away as they finish.
    lane_ids = np.arange(n_total)
    remaining = lengths.astype(np.int64).copy()
    pol_base = policy_of_lane.astype(np.int64) * n_states
    s0 = np.broadcast_to(np.asarray(start[0], dtype=np.int64), (n_total,))
    r = np.broadcast_to(np.asarray(start[1], dtype=np.int64), (n_total,))
    q = np.broadcast_to(np.asarray(start[2], dtype=np.int64), (n_total,))
    x = (s0 * n_sr + r) * n_sq + q

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
    metric_flat = tables.metric_stack.reshape(n_metrics, -1)  # (M, X*A)
    arrivals_of = tables.arrivals_of
    issuing = tables.issuing
    sp_offset = system_flat.sp_offset
    sr_offset = system_flat.sr_offset
    rates_flat = system_flat.rates_flat
    s_of = system_flat.s_of
    pol_offset = compiled.offset_cumsum
    greedy = compiled.greedy
    det_row = compiled.deterministic_row
    sp_row_det = compiled.sp_row
    sigma_det = compiled.sigma
    any_det_rows = bool(det_row.any())
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
        # Joint-state/command/service histories, folded in after the
        # chunk; x_hist has one extra row holding the post-chunk state.
        x_hist = np.empty((chunk + 1, n_lanes), dtype=np.int64)
        served_hist = np.empty((chunk, n_lanes), dtype=bool)
        a_hist = (
            None if deterministic else np.empty((chunk, n_lanes), dtype=np.int64)
        )
        if timeouts is not None:
            # The timeout lanes' policy rows, slice by slice.
            t_hist = np.empty((chunk, t_lanes.size), dtype=np.int64)
        if driven:
            z_block = counts[stepped : stepped + chunk]
            prev_start = prev

        for k in range(chunk):
            x_hist[k] = x
            if timeouts is not None:
                work = (q[t_lanes] > 0) | (prev[t_lanes] > 0)
                idle = np.where(work, 0, idle + 1)
                t_rows = np.where(idle > t_limit, t_sleep, t_active)
                t_hist[k] = t_rows
                pol_base[t_lanes] = t_rows
            rowx = x if single_policy else pol_base + x
            if deterministic:
                sp_row = sp_row_det[rowx]
                sigma = sigma_det[rowx]
            else:
                a = (
                    np.searchsorted(
                        pol_offset, rowx + uniforms[k, 0], side="right"
                    )
                    - rowx * n_commands
                )
                # Row-local indices are provably >= 0; only the top end
                # needs a rounding guard (np.clip is ~7x costlier).
                np.minimum(a, n_commands - 1, out=a)
                if any_det_rows:
                    det = det_row[rowx]
                    a = np.where(det, greedy[rowx], a)
                a_hist[k] = a
                sp_row = a * n_sp + s_of[x]
                sigma = rates_flat[sp_row]
            s_next = (
                np.searchsorted(
                    sp_offset, sp_row + uniforms[k, u_sp], side="right"
                )
                - sp_row * n_sp
            )
            np.minimum(s_next, n_sp - 1, out=s_next)
            if driven:
                z = z_block[k]
                r_next = count_states[np.minimum(z, top_count)]
            else:
                r_next = (
                    np.searchsorted(
                        sr_offset, r + uniforms[k, u_sr], side="right"
                    )
                    - r * n_sr
                )
                np.minimum(r_next, n_sr - 1, out=r_next)
                z = arrivals_of[r_next]
            pending = q + z
            served = (uniforms[k, u_service] < sigma) & (pending > 0)
            served_hist[k] = served
            q = np.minimum(pending - served, capacity)
            x = (s_next * n_sr + r_next) * n_sq + q
            r = r_next
            prev = z
        x_hist[chunk] = x
        stepped += chunk

        # --- fold the chunk histories into the per-lane accumulators ---
        alive = remaining > np.arange(chunk, dtype=np.int64)[:, None]
        full = bool(alive.all())
        weights = None if full else alive.ravel().astype(np.float64)
        x_cur = x_hist[:-1]
        if deterministic:
            a_hist = greedy[x_cur if single_policy else pol_base + x_cur]
            if timeouts is not None:
                a_hist[:, t_lanes] = greedy[t_hist + x_cur[:, t_lanes]]
        q_cur = x_cur % n_sq
        r_cur = (x_cur // n_sq) % n_sr
        s_cur = x_cur // (n_sr * n_sq)
        q_next = x_hist[1:] % n_sq
        r_next_h = (x_hist[1:] // n_sq) % n_sr

        cost_rows = metric_flat[:, x_cur * n_commands + a_hist]
        if full:
            acc.totals[:, lane_ids] += cost_rows.sum(axis=1)
        else:
            acc.totals[:, lane_ids] += np.einsum(
                "mkl,kl->ml", cost_rows, alive.astype(np.float64)
            )

        lane_local = np.arange(n_lanes)
        cmd_flat = np.bincount(
            (lane_local[None, :] * n_commands + a_hist).ravel(),
            weights=weights,
            minlength=n_lanes * n_commands,
        )
        acc.command_counts[lane_ids] += np.rint(cmd_flat).astype(
            np.int64
        ).reshape(n_lanes, n_commands)
        occ_flat = np.bincount(
            (lane_local[None, :] * n_sp + s_cur).ravel(),
            weights=weights,
            minlength=n_lanes * n_sp,
        )
        acc.provider_occupancy[lane_ids] += np.rint(occ_flat).astype(
            np.int64
        ).reshape(n_lanes, n_sp)

        if driven:
            z = z_block
            # Arrivals are at risk after a slice that had some.
            at_risk = np.vstack((prev_start, z_block))[:-1] > 0
        else:
            z = arrivals_of[r_next_h]
            at_risk = issuing[r_cur]
        pending_h = q_cur + z
        lost_h = pending_h - served_hist - q_next
        events = at_risk & (q_cur == capacity)
        if not full:
            z = z * alive
            served_w = served_hist * alive
            lost_h = lost_h * alive
            events = events & alive
        else:
            served_w = served_hist
        acc.arrivals[lane_ids] += z.sum(axis=0)
        acc.serviced[lane_ids] += served_w.sum(axis=0)
        acc.lost[lane_ids] += lost_h.sum(axis=0)
        acc.loss_events[lane_ids] += events.sum(axis=0)

        # Record final states of lanes that finished inside this chunk
        # (their state at remaining slices is x_hist[remaining]).
        finished = remaining <= chunk
        if finished.any():
            idx = np.nonzero(finished)[0]
            x_fin = x_hist[remaining[idx], idx]
            fin_ids = lane_ids[idx]
            acc.final_state[fin_ids, 0] = x_fin // (n_sr * n_sq)
            acc.final_state[fin_ids, 1] = (x_fin // n_sq) % n_sr
            acc.final_state[fin_ids, 2] = x_fin % n_sq

        remaining -= chunk
        if finished.any():
            keep = ~finished
            lane_ids = lane_ids[keep]
            remaining = remaining[keep]
            pol_base = pol_base[keep]
            x = x[keep]
            r = r[keep]
            q = q[keep]
    # A resumable run's lanes all finish in its last chunk, so the
    # loop's final values are every lane's.
    if resumable:
        acc.prev_arrivals = np.array(prev, dtype=np.int64)
    if timeouts is not None:
        acc.idle = idle
    return acc
