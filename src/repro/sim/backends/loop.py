"""The reference per-slice simulation loop.

:func:`run_slices` is the one per-slice interpreter: it reproduces the
composed chain's semantics *component by component*, so that heuristic
agents with internal state (timeouts, predictors, adaptive refits) can
be simulated alongside stationary policies.  Three callers step
through it:

* :meth:`LoopBackend.simulate` — a fresh Markov-driven run;
* :func:`~repro.sim.trace_sim.simulate_trace` — a fresh run whose
  arrivals are replayed from a request trace (paper Section V's second
  simulation mode);
* the fleet controller's per-device loop, which resumes each device
  where its previous tick stopped, driven by the model or by the
  device's arrival stream.

At each slice ``t`` with joint state ``X_t = (s, r, q)``:

1. the agent observes ``X_t`` and issues command ``a``;
2. every cost metric accrues its ``matrix[X_t, a]`` value;
3. the SP moves ``s -> s'`` with ``P_SP^a``; the SR moves ``r -> r'``
   with ``P_SR`` and ``z(r')`` requests arrive, or, driven by counts,
   the slice's count arrives and the tracker folds it into ``r'``;
4. the queue updates with service probability ``sigma(s, a)`` applied
   to ``q + z`` pending requests (paper Eq. 3); overflow is counted as
   lost.

For a stationary Markov policy the Markov-driven loop is distributed
identically to the joint chain of
:class:`~repro.core.system.PowerManagedSystem` — the equivalence is
verified in the test suite against both the closed-form evaluation and
the vector path.

This loop defines the engine's semantics, including the order in which
uniforms are consumed from the generator (agent draw if any, then SP,
then SR when model-driven, then the service Bernoulli *only when work
is pending*); the seeded-equivalence suite relies on that order staying
fixed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.costs import CostModel
from repro.core.system import PowerManagedSystem
from repro.policies.base import Observation, PolicyAgent
from repro.sim.backends.base import SimulationTables, resolve_initial_state
from repro.sim.result import SimulationResult
from repro.sim.rng import sample_categorical
from repro.sim.stats import SampleStats
from repro.util.validation import ValidationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints only
    from repro.sim.trace_sim import ArrivalTracker


def run_slices(
    tables: SimulationTables,
    agent: PolicyAgent,
    rng: np.random.Generator,
    state: tuple[int, int, int],
    n_slices: int,
    totals: np.ndarray,
    command_counts: np.ndarray,
    provider_occupancy: np.ndarray,
    *,
    prev_arrivals: int = 0,
    first_slice: int = 0,
    counts: np.ndarray | None = None,
    tracker: ArrivalTracker | None = None,
) -> tuple[tuple[int, int, int], int, tuple[int, int, int, int]]:
    """Step ``n_slices`` slices from ``state``; resumable.

    ``totals`` (per metric, ``tables.metric_names`` order),
    ``command_counts`` and ``provider_occupancy`` accumulate in place.
    ``prev_arrivals`` (the previous slice's arrivals) and
    ``first_slice`` (the slice index of the first step) carry a
    trajectory across calls.

    Arrivals come from the SR chain, or, when ``counts`` is given, from
    ``counts[t]``, with ``tracker`` inferring the observed SR state.  A
    loss event is a slice that starts with a full queue while arrivals
    are at risk: the SR state issues requests (model-driven) or the
    previous slice had arrivals (counts-driven).

    Returns the final ``(s, r, q)``, the last slice's arrivals and the
    counters ``(arrivals, serviced, lost, loss_event_slices)``.
    """
    s, r, q = state
    metric_stack = tables.metric_stack
    sp_cum, sr_cum = tables.sp_cum, tables.sr_cum
    rates = tables.rates
    arrivals_of, issuing = tables.arrivals_of, tables.issuing
    capacity, n_sr, n_sq = tables.capacity, tables.n_sr, tables.n_sq
    n_commands = tables.n_commands
    arrivals = serviced = lost = loss_events = 0

    for t in range(n_slices):
        observation = Observation(s, r, q, prev_arrivals, first_slice + t)
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
        at_risk = issuing[r] if counts is None else prev_arrivals > 0
        if at_risk and q == capacity:
            loss_events += 1

        # --- transition ---------------------------------------------
        s_next = sample_categorical(sp_cum[a, s], rng)
        if counts is None:
            r_next = sample_categorical(sr_cum[r], rng)
            z = int(arrivals_of[r_next])
        else:
            z = int(counts[t])
            r_next = tracker.update(z)
        pending = q + z
        served = 0
        if pending > 0 and rng.random() < rates[s, a]:
            served = 1
        q_next = min(pending - served, capacity)

        arrivals += z
        serviced += served
        lost += max(pending - served - capacity, 0)
        prev_arrivals = z
        s, r, q = s_next, r_next, q_next

    return (s, r, q), prev_arrivals, (arrivals, serviced, lost, loss_events)


def _fresh_run(
    tables: SimulationTables,
    agent: PolicyAgent,
    rng: np.random.Generator,
    state: tuple[int, int, int],
    n_slices: int,
    counts: np.ndarray | None = None,
    tracker: ArrivalTracker | None = None,
) -> SimulationResult:
    """Run :func:`run_slices` on zeroed accumulators; build the result."""
    totals = np.zeros(len(tables.metric_names))
    command_counts = np.zeros(tables.n_commands, dtype=np.int64)
    provider_occupancy = np.zeros(tables.n_sp, dtype=np.int64)
    final_state, _, counters = run_slices(
        tables,
        agent,
        rng,
        state,
        n_slices,
        totals,
        command_counts,
        provider_occupancy,
        counts=counts,
        tracker=tracker,
    )
    arrivals, serviced, lost, loss_events = counters
    metric_names = tables.metric_names
    return SimulationResult(
        n_slices=n_slices,
        averages={
            name: float(totals[i]) / n_slices
            for i, name in enumerate(metric_names)
        },
        totals={name: float(totals[i]) for i, name in enumerate(metric_names)},
        arrivals=arrivals,
        serviced=serviced,
        lost=lost,
        loss_event_slices=loss_events,
        command_counts=command_counts,
        provider_occupancy=provider_occupancy,
        final_state=final_state,
    )


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
        state = resolve_initial_state(system, initial_state)
        agent.reset()
        return _fresh_run(tables, agent, rng, state, n_slices)

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
