"""Pluggable simulation backends and their dispatch rules.

Backends are registered by name; callers normally go through
:func:`repro.sim.engine.simulate` /
:func:`repro.sim.engine.simulate_many` with ``backend="auto"`` and let
:func:`resolve_backend` pick:

* ``"loop"`` — the reference interpreter; any agent, one trajectory at
  a time.  Single runs of heuristic *and* stationary agents default
  here so existing seeded results stay bit-identical.
* ``"vector"`` — compiled batch stepping for stationary Markov
  policies.  ``auto`` selects it whenever a run is batched (many
  replications, many policies, or many sessions) and every agent is
  provably stationary; with a single lane the compiled stepper has no
  batch to amortize over and the loop is faster.

:func:`get_backend` raises a
:class:`~repro.util.validation.ValidationError` listing the accepted
names for anything else.
"""

from __future__ import annotations

from repro.policies.base import PolicyAgent
from repro.sim.backends.base import (
    SimulationBackend,
    SimulationTables,
    is_vectorizable,
)
from repro.sim.backends.loop import LoopBackend
from repro.sim.backends.vector import CompiledPolicyBatch, VectorBackend
from repro.util.validation import ValidationError

#: Registry of backend name -> singleton instance.
BACKENDS: dict[str, SimulationBackend] = {
    LoopBackend.name: LoopBackend(),
    VectorBackend.name: VectorBackend(),
}

#: Names accepted by every ``backend=`` parameter and CLI flag.
BACKEND_CHOICES = ("auto", *BACKENDS)


def get_backend(name: str) -> SimulationBackend:
    """Look up a backend instance by registry name.

    Raises
    ------
    ValidationError
        For unknown names; the message lists :data:`BACKEND_CHOICES`.
    """
    if name in BACKENDS:
        return BACKENDS[name]
    raise ValidationError(
        f"unknown simulation backend {name!r}; choose from {BACKEND_CHOICES}"
    )


def resolve_backend(
    backend: str, agents, batch_size: int = 1
) -> SimulationBackend:
    """Resolve a backend request against the agents and batch shape.

    Parameters
    ----------
    backend:
        ``"auto"``, ``"loop"`` or ``"vector"``.
    agents:
        The agent(s) the run will simulate (a single agent or a
        sequence).
    batch_size:
        Number of independent lanes the run would step together
        (replications x agents, or sessions).  ``auto`` only
        vectorizes batched runs.
    """
    if isinstance(agents, PolicyAgent):
        agents = [agents]
    if backend == "auto":
        if int(batch_size) > 1 and all(is_vectorizable(a) for a in agents):
            return BACKENDS[VectorBackend.name]
        return BACKENDS[LoopBackend.name]
    chosen = get_backend(backend)
    for agent in agents:
        if not chosen.supports(agent):
            raise ValidationError(
                f"backend {chosen.name!r} does not support "
                f"{agent.describe()}; use backend='loop'"
            )
    return chosen


__all__ = [
    "BACKENDS",
    "BACKEND_CHOICES",
    "CompiledPolicyBatch",
    "LoopBackend",
    "SimulationBackend",
    "SimulationTables",
    "VectorBackend",
    "get_backend",
    "is_vectorizable",
    "resolve_backend",
]
