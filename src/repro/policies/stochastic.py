"""Agent wrapper for (randomized) Markov stationary policies.

Bridges the optimizer's output — a :class:`~repro.core.policy.MarkovPolicy`
matrix over joint states — to the simulation engine's agent protocol.
Each slice the agent looks up the joint state index and samples a
command from the policy row, exactly the behaviour paper Definition 3.5
prescribes for randomized decisions.

The policy rows are compiled once into normalized cumulative rows and
sampled through :func:`repro.sim.rng.sample_categorical`, which consumes
one uniform per randomized decision with the same inverse-CDF semantics
(and stream position) as ``Generator.choice``; deterministic rows
short-circuit the draw entirely.  Carrying the
:class:`~repro.policies.base.StationaryAgent` marker lets backend
dispatch prove the agent vectorizable.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.core.policy import MarkovPolicy
from repro.core.system import PowerManagedSystem
from repro.policies.base import Observation, StationaryAgent
from repro.sim.rng import categorical_cumsum, sample_categorical
from repro.util.validation import ValidationError


class StationaryPolicyAgent(StationaryAgent):
    """Simulate a Markov stationary policy matrix.

    Parameters
    ----------
    system:
        The composed system (provides the joint state indexing).
    policy:
        The policy to execute; shapes must match the system.
    """

    def __init__(self, system: PowerManagedSystem, policy: MarkovPolicy):
        if (
            policy.n_states != system.n_states
            or policy.n_commands != system.n_commands
        ):
            raise ValidationError(
                f"policy shape ({policy.n_states}, {policy.n_commands}) does "
                f"not match system ({system.n_states}, {system.n_commands})"
            )
        self._system = system
        self._policy = policy
        self._matrix = policy.matrix
        self._n_requesters = system.requester.n_states
        self._n_queue = system.queue.n_states

    # The sampling tables are built on the first ``select_command``, so
    # building or unpickling an agent the batch kernel steps (it reads
    # only the policy) costs no compilation.
    @functools.cached_property
    def _cumsum(self) -> np.ndarray:
        return categorical_cumsum(self._matrix, axis=1)

    @functools.cached_property
    def _deterministic_row(self) -> np.ndarray:
        # Deterministic rows short-circuit the RNG draw.
        return self._matrix.max(axis=1) > 1.0 - 1e-12

    @functools.cached_property
    def _greedy(self) -> np.ndarray:
        return np.argmax(self._matrix, axis=1)

    def __reduce__(self):
        # The agent holds no state: pickle its inputs; the lookup tables
        # are rebuilt on first use after load.
        return type(self), (self._system, self._policy)

    @property
    def policy(self) -> MarkovPolicy:
        """The wrapped policy."""
        return self._policy

    def stationary_policy(self, system: PowerManagedSystem) -> MarkovPolicy:
        """The wrapped policy, validated against ``system``."""
        if (
            system.n_states != self._policy.n_states
            or system.n_commands != self._policy.n_commands
        ):
            raise ValidationError(
                f"policy shape ({self._policy.n_states}, "
                f"{self._policy.n_commands}) does not match system "
                f"({system.n_states}, {system.n_commands})"
            )
        return self._policy

    def select_command(
        self, observation: Observation, rng: np.random.Generator
    ) -> int:
        state = (
            observation.provider_state * self._n_requesters
            + observation.requester_state
        ) * self._n_queue + observation.queue_length
        if self._deterministic_row[state]:
            return int(self._greedy[state])
        return sample_categorical(self._cumsum[state], rng)

    def describe(self) -> str:
        kind = "deterministic" if self._policy.is_deterministic else "randomized"
        return f"stationary-policy({kind})"
