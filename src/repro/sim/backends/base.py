"""What both simulation paths share: compiled tables and start states.

Two paths turn ``(system, costs, agent(s), n_slices, rng)`` into
:class:`~repro.sim.result.SimulationResult` records:

* :class:`~repro.sim.backends.loop.LoopBackend` — the reference
  per-slice interpreter; runs *any*
  :class:`~repro.policies.base.PolicyAgent`, including stateful
  heuristics (timeouts, predictors), and defines the semantics the
  vector path must reproduce.
* :class:`~repro.sim.backends.vector.VectorBackend` — a compiled,
  batched stepper for stationary Markov policies
  (:class:`~repro.policies.base.StationaryAgent`) that advances many
  independent replications per NumPy operation.

The agent type and the batch shape pick between them (see
:mod:`repro.sim.engine`).  Both draw from the same compiled
:class:`SimulationTables`, so per-run setup (metric stacking, transition
cumsums) is computed once and shared — including across the geometric
sessions of ``simulate_sessions``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.core.costs import CostModel
from repro.core.system import PowerManagedSystem
from repro.policies.base import PolicyAgent, StationaryAgent
from repro.util.validation import ValidationError


@dataclass(frozen=True)
class SimulationTables:
    """Precompiled per-(system, costs) arrays shared by both paths.

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

    @cached_property
    def kernel(self):
        """The vector kernel's flattened form of these tables.

        Compiled on first use and kept for the tables' lifetime, so a
        fleet group stepping every tick on one set of tables compiles
        its offset cumsums and cost rows once, not on every call.
        """
        from repro.sim.backends.vector import _CompiledSystem

        return _CompiledSystem.compile(self)


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


def is_vectorizable(agent: PolicyAgent) -> bool:
    """True when ``agent`` provably executes a stationary Markov policy."""
    return isinstance(agent, StationaryAgent)
