"""The pluggable simulation-backend protocol.

A backend turns ``(system, costs, agent(s), n_slices, rng)`` into
:class:`~repro.sim.result.SimulationResult` records.  Two
implementations ship with the package:

* :class:`~repro.sim.backends.loop.LoopBackend` — the reference
  per-slice interpreter; supports *any*
  :class:`~repro.policies.base.PolicyAgent`, including stateful
  heuristics (timeouts, predictors), and defines the semantics the
  other backends must reproduce.
* :class:`~repro.sim.backends.vector.VectorBackend` — a compiled,
  batched stepper for stationary Markov policies
  (:class:`~repro.policies.base.StationaryAgent`) that advances many
  independent replications per NumPy operation.

Both backends draw from the same compiled
:class:`SimulationTables`, so per-run setup (metric stacking, transition
cumsums) is computed once and shared — including across the geometric
sessions of ``simulate_sessions``.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.costs import CostModel
from repro.core.system import PowerManagedSystem
from repro.policies.base import PolicyAgent, StationaryAgent
from repro.sim.result import SimulationResult
from repro.sim.stats import SampleStats
from repro.util.validation import ValidationError


@dataclass(frozen=True)
class SimulationTables:
    """Precompiled per-(system, costs) arrays shared by all backends.

    Building these is O(states x commands) and used to be repeated for
    every run — in session mode once *per geometric session*.  Compiling
    once and passing the tables down removes that setup cost from the
    hot path.

    Attributes
    ----------
    metric_names:
        Metric order used for the ``totals`` rows.
    metric_stack:
        ``(n_metrics, n_states, n_commands)`` cost tensor.
    sp_cum / sr_cum:
        Normalized transition cumsums of the provider tensor
        ``(A, S, S)`` and requester matrix ``(R, R)``.
    rates:
        ``(S, A)`` service probabilities ``sigma(s, a)``.
    arrivals_of:
        Per-SR-state arrival counts ``z(r)``.
    issuing:
        Boolean mask of SR states with ``z(r) > 0``.
    capacity / n_sp / n_sr / n_sq / n_commands:
        Component dimensions.
    """

    metric_names: tuple[str, ...]
    metric_stack: np.ndarray
    sp_cum: np.ndarray
    sr_cum: np.ndarray
    rates: np.ndarray
    arrivals_of: np.ndarray
    issuing: np.ndarray
    capacity: int
    n_sp: int
    n_sr: int
    n_sq: int
    n_commands: int

    @classmethod
    def compile(
        cls, system: PowerManagedSystem, costs: CostModel
    ) -> "SimulationTables":
        """Compile the simulation tables for one (system, costs) pair."""
        from repro.sim.rng import categorical_cumsum

        metric_names = tuple(costs.metric_names)
        metric_stack = np.stack(
            [costs.metric(name) for name in metric_names], axis=0
        )
        arrivals_of = system.requester.arrival_counts
        return cls(
            metric_names=metric_names,
            metric_stack=metric_stack,
            sp_cum=categorical_cumsum(system.provider.chain.tensor, axis=2),
            sr_cum=categorical_cumsum(system.requester.chain.matrix, axis=1),
            rates=system.provider.service_rate_matrix,
            arrivals_of=arrivals_of,
            issuing=arrivals_of > 0,
            capacity=system.queue.capacity,
            n_sp=system.provider.n_states,
            n_sr=system.requester.n_states,
            n_sq=system.queue.n_states,
            n_commands=system.n_commands,
        )


def resolve_initial_state(
    system: PowerManagedSystem, initial_state
) -> tuple[int, int, int]:
    """Resolve ``(provider, requester, queue)`` names/indices to indices."""
    if initial_state is None:
        return 0, 0, 0
    provider, requester, queue = initial_state
    s = system.provider.chain.state_index(provider)
    r = system.requester.chain.state_index(requester)
    q = int(queue)
    if not 0 <= q <= system.queue.capacity:
        raise ValidationError(
            f"queue length {q} out of range [0, {system.queue.capacity}]"
        )
    return s, r, q


class SimulationBackend(abc.ABC):
    """Abstract interface every simulation backend implements."""

    #: Registry name (``"loop"``, ``"vector"``).
    name: str = "abstract"

    def supports(self, agent: PolicyAgent) -> bool:
        """Whether this backend can simulate ``agent``."""
        return isinstance(agent, PolicyAgent)

    @abc.abstractmethod
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

        Returns one list of replication results per agent.  The default
        implementation runs each (agent, replication) pair through
        :meth:`simulate` with its own generator from ``rngs`` (flat,
        agent-major: ``len(agents) * n_replications`` entries);
        vectorized backends override this with a single batched run.
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

    @abc.abstractmethod
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


def is_vectorizable(agent: PolicyAgent) -> bool:
    """True when ``agent`` provably executes a stationary Markov policy."""
    return isinstance(agent, StationaryAgent)
