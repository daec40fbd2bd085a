"""The reference per-slice simulation loop.

Reproduces the composed chain's semantics *component by component* so
that heuristic agents with internal state (timeouts, predictors) can be
simulated alongside stationary policies:

at each slice ``t`` with joint state ``X_t = (s, r, q)``:

1. the agent observes ``X_t`` and issues command ``a``;
2. every cost metric accrues its ``matrix[X_t, a]`` value;
3. the SP moves ``s -> s'`` with ``P_SP^a``, the SR moves ``r -> r'``
   with ``P_SR`` and ``z(r')`` requests arrive;
4. the queue updates with service probability ``sigma(s, a)`` applied
   to ``q + z(r')`` pending requests (paper Eq. 3); overflow is counted
   as lost.

For a stationary Markov policy this is distributed identically to the
joint chain of :class:`~repro.core.system.PowerManagedSystem` — the
equivalence is verified in the test suite against both the closed-form
evaluation and the vector path.

This path defines the engine's semantics, including the order in
which uniforms are consumed from the generator (agent draw if any, then
SP, then SR, then the service Bernoulli *only when work is pending*);
the seeded-equivalence suite relies on that order staying fixed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.costs import CostModel
from repro.core.system import PowerManagedSystem
from repro.policies.base import Observation, PolicyAgent
from repro.sim.backends.base import SimulationTables, resolve_initial_state
from repro.sim.result import SimulationResult
from repro.sim.rng import sample_categorical
from repro.sim.stats import SampleStats
from repro.util.validation import ValidationError


class LoopBackend:
    """Pure-Python reference interpreter; supports every agent."""

    def simulate(
        self,
        system: PowerManagedSystem,
        costs: CostModel,
        agent: PolicyAgent,
        n_slices: int,
        rng: np.random.Generator,
        initial_state=None,
        tables: SimulationTables | None = None,
    ) -> SimulationResult:
        """Run one simulation of ``n_slices`` slices."""
        if tables is None:
            tables = SimulationTables.compile(system, costs)
        s, r, q = resolve_initial_state(system, initial_state)
        agent.reset()

        metric_stack = tables.metric_stack
        sp_cum = tables.sp_cum
        sr_cum = tables.sr_cum
        rates = tables.rates
        arrivals_of = tables.arrivals_of
        issuing = tables.issuing
        capacity = tables.capacity
        n_sr = tables.n_sr
        n_sq = tables.n_sq
        n_commands = tables.n_commands

        totals = np.zeros(len(tables.metric_names))
        command_counts = np.zeros(n_commands, dtype=np.int64)
        provider_occupancy = np.zeros(tables.n_sp, dtype=np.int64)
        total_arrivals = 0
        total_serviced = 0
        total_lost = 0
        loss_event_slices = 0
        prev_arrivals = 0

        for t in range(n_slices):
            observation = Observation(
                provider_state=s,
                requester_state=r,
                queue_length=q,
                arrivals=prev_arrivals,
                slice_index=t,
            )
            a = int(agent.select_command(observation, rng))
            if not 0 <= a < n_commands:
                raise ValidationError(
                    f"agent returned command {a}, valid range is "
                    f"[0, {n_commands})"
                )

            joint = (s * n_sr + r) * n_sq + q
            totals += metric_stack[:, joint, a]
            command_counts[a] += 1
            provider_occupancy[s] += 1
            if issuing[r] and q == capacity:
                loss_event_slices += 1

            # --- transition ---------------------------------------------
            s_next = sample_categorical(sp_cum[a, s], rng)
            r_next = sample_categorical(sr_cum[r], rng)
            z = int(arrivals_of[r_next])
            pending = q + z
            served = 0
            if pending > 0 and rng.random() < rates[s, a]:
                served = 1
            q_next = min(pending - served, capacity)
            lost = max(pending - served - capacity, 0)

            total_arrivals += z
            total_serviced += served
            total_lost += lost
            prev_arrivals = z
            s, r, q = s_next, r_next, q_next

        metric_names = tables.metric_names
        averages = {
            name: float(totals[i]) / n_slices
            for i, name in enumerate(metric_names)
        }
        return SimulationResult(
            n_slices=n_slices,
            averages=averages,
            totals={
                name: float(totals[i]) for i, name in enumerate(metric_names)
            },
            arrivals=total_arrivals,
            serviced=total_serviced,
            lost=total_lost,
            loss_event_slices=loss_event_slices,
            command_counts=command_counts,
            provider_occupancy=provider_occupancy,
            final_state=(s, r, q),
        )

    def simulate_many(
        self,
        system: PowerManagedSystem,
        costs: CostModel,
        agents: Sequence[PolicyAgent],
        n_slices: int,
        rngs: Sequence[np.random.Generator],
        initial_state=None,
        n_replications: int = 1,
    ) -> list[list[SimulationResult]]:
        """Simulate each agent ``n_replications`` times.

        Returns one list of replication results per agent.  Each
        (agent, replication) pair runs through :meth:`simulate` with its
        own generator from ``rngs`` (flat, agent-major:
        ``len(agents) * n_replications`` entries).
        """
        expected = len(agents) * int(n_replications)
        if len(rngs) != expected:
            raise ValidationError(
                f"need {expected} generators (agents x replications), "
                f"got {len(rngs)}"
            )
        tables = SimulationTables.compile(system, costs)
        results: list[list[SimulationResult]] = []
        lane = 0
        for agent in agents:
            replications = []
            for _ in range(int(n_replications)):
                replications.append(
                    self.simulate(
                        system,
                        costs,
                        agent,
                        n_slices,
                        rngs[lane],
                        initial_state,
                        tables=tables,
                    )
                )
                lane += 1
            results.append(replications)
        return results

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
        """Estimate discounted totals via geometric-length sessions."""
        # Compile once for all sessions: the metric stack and transition
        # cumsums used to be rebuilt inside every geometric session.
        tables = SimulationTables.compile(system, costs)
        samples: dict[str, list[float]] = {
            name: [] for name in tables.metric_names
        }
        for _ in range(int(n_sessions)):
            length = int(rng.geometric(1.0 - gamma))
            if max_session_slices is not None:
                length = min(length, int(max_session_slices))
            length = max(length, 1)
            result = self.simulate(
                system, costs, agent, length, rng, initial_state, tables=tables
            )
            for name in samples:
                samples[name].append(result.totals[name])
        return {
            name: SampleStats.from_samples(values)
            for name, values in samples.items()
        }
