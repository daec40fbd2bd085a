"""Simulation entry points: the one rule that picks a path, and the
batch API.

The actual stepping lives in :mod:`repro.sim.backends`; this module is
the single entry every caller (experiments, Pareto sweeps, the CLI
pipeline) routes through.  The agent type and the batch shape decide
the path:

* :func:`simulate` — one agent, one trajectory, always on the reference
  loop: a single lane gives the vectorized stepper nothing to amortize
  over, and keeping it on the loop preserves seeded results bit for bit.
* :func:`simulate_many` / :func:`simulate_replications` — the batch
  API.  Stationary Markov policies are grouped into one vectorized
  batch (many policies x many replications stepped together) when that
  batch has more than one lane; stateful heuristics, and a one-lane
  batch, run through per-run loops, each with its own child generator.
* :func:`simulate_sessions` — geometric-session estimates of the
  discounted totals (paper Section IV).  For a stationary policy and
  more than one session the sessions are packed into the batch
  dimension of the vector kernel; otherwise they run session by
  session through the loop.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.costs import CostModel
from repro.core.policy import MarkovPolicy
from repro.core.system import PowerManagedSystem
from repro.policies.base import PolicyAgent
from repro.sim.backends import LoopBackend, VectorBackend, is_vectorizable
from repro.sim.result import SimulationResult
from repro.sim.rng import child_rngs
from repro.sim.stats import SampleStats
from repro.util.validation import ValidationError, check_probability

__all__ = [
    "SimulationResult",
    "simulate",
    "simulate_many",
    "simulate_replications",
    "simulate_sessions",
]


def _check_n_slices(n_slices: int) -> int:
    n_slices = int(n_slices)
    if n_slices <= 0:
        raise ValidationError(f"n_slices must be > 0, got {n_slices}")
    return n_slices


def _as_agent(candidate, system: PowerManagedSystem) -> PolicyAgent:
    """Accept agents or bare policy matrices in batch entry points."""
    if isinstance(candidate, PolicyAgent):
        return candidate
    if isinstance(candidate, MarkovPolicy):
        from repro.policies.stochastic import StationaryPolicyAgent

        return StationaryPolicyAgent(system, candidate)
    raise ValidationError(
        f"expected a PolicyAgent or MarkovPolicy, got {type(candidate).__name__}"
    )


def simulate(
    system: PowerManagedSystem,
    costs: CostModel,
    agent: PolicyAgent,
    n_slices: int,
    rng: np.random.Generator,
    initial_state=None,
) -> SimulationResult:
    """Simulate ``agent`` on ``system`` for ``n_slices`` slices.

    Parameters
    ----------
    system:
        The composed system to simulate.
    costs:
        Metrics to accumulate (every registered metric is reported).
    agent:
        The power-management policy; ``agent.reset()`` is called first.
    n_slices:
        Number of slices to run.
    rng:
        Random generator driving all stochastic choices.
    initial_state:
        ``(provider, requester, queue)`` start (names or indices);
        defaults to all components in their first state, empty queue.
    """
    n_slices = _check_n_slices(n_slices)
    return LoopBackend().simulate(system, costs, agent, n_slices, rng, initial_state)


def simulate_many(
    system: PowerManagedSystem,
    costs: CostModel,
    agents: Sequence[PolicyAgent | MarkovPolicy],
    n_slices: int,
    rng: np.random.Generator | int | None = None,
    *,
    n_replications: int = 1,
    initial_state=None,
) -> list[list[SimulationResult]]:
    """Simulate many agents/policies, ``n_replications`` runs each.

    The workhorse behind policy sweeps and replication studies: all
    stationary Markov policies in ``agents`` are compiled into a single
    vectorized batch (one lane per policy x replication), while
    stateful heuristics run through the reference loop one trajectory
    at a time.  A batch of a single lane (one stationary policy, one
    replication) runs on the loop too.  Bare
    :class:`~repro.core.policy.MarkovPolicy` entries are wrapped
    automatically.

    Parameters
    ----------
    rng:
        A generator, a seed, or ``None`` (fresh entropy).  Each loop
        run and the vector batch get independent child streams, so
        results are reproducible from one seed.  Note that streams are
        assigned by position: reordering the agent list, or moving an
        agent between the batch and the loop, changes the uniforms each
        run consumes (the estimates stay exchangeable, the trajectories
        do not).

    Returns
    -------
    list[list[SimulationResult]]
        One list of ``n_replications`` results per agent, input order.
    """
    n_slices = _check_n_slices(n_slices)
    n_replications = int(n_replications)
    if n_replications <= 0:
        raise ValidationError(
            f"n_replications must be > 0, got {n_replications}"
        )
    resolved = [_as_agent(a, system) for a in agents]
    if not resolved:
        return []

    vector_idx = [
        i for i, agent in enumerate(resolved) if is_vectorizable(agent)
    ]
    # A single-lane "batch" has nothing to amortize; keep it on the
    # loop, consistent with simulate().
    if len(vector_idx) * n_replications <= 1:
        vector_idx = []
    vectorized = set(vector_idx)
    loop_idx = [i for i in range(len(resolved)) if i not in vectorized]
    # Child streams: one for the whole batched run, then one per
    # (loop agent, replication) pair in agent-major order.
    streams = child_rngs(rng, 1 + len(loop_idx) * n_replications)
    results: list[list[SimulationResult] | None] = [None] * len(resolved)

    if vector_idx:
        policies = [
            resolved[i].stationary_policy(system) for i in vector_idx
        ]
        batched = VectorBackend().simulate_batch(
            system,
            costs,
            policies,
            n_slices,
            streams[0],
            initial_state=initial_state,
            n_replications=n_replications,
        )
        for slot, replications in zip(vector_idx, batched):
            results[slot] = replications
    if loop_idx:
        loop_results = LoopBackend().simulate_many(
            system,
            costs,
            [resolved[i] for i in loop_idx],
            n_slices,
            streams[1:],
            initial_state=initial_state,
            n_replications=n_replications,
        )
        for slot, replications in zip(loop_idx, loop_results):
            results[slot] = replications
    return results  # type: ignore[return-value]


def simulate_replications(
    system: PowerManagedSystem,
    costs: CostModel,
    agent: PolicyAgent | MarkovPolicy,
    n_slices: int,
    n_replications: int,
    rng: np.random.Generator | int | None = None,
    *,
    initial_state=None,
) -> list[SimulationResult]:
    """Independent replications of one agent (batched when possible)."""
    return simulate_many(
        system,
        costs,
        [agent],
        n_slices,
        rng,
        n_replications=n_replications,
        initial_state=initial_state,
    )[0]


def simulate_sessions(
    system: PowerManagedSystem,
    costs: CostModel,
    agent: PolicyAgent,
    gamma: float,
    n_sessions: int,
    rng: np.random.Generator,
    initial_state=None,
    max_session_slices: int | None = None,
) -> dict[str, SampleStats]:
    """Estimate *discounted* totals by simulating geometric sessions.

    The discounted formulation of Section IV equals the expected
    undiscounted sum over a session of geometric length with mean
    ``1/(1-gamma)`` (the trap-state construction, Fig. 5).  Each session
    draws its length accordingly, runs the engine, and contributes one
    sample of each metric's session total; the returned statistics
    estimate the LP's discounted objective values.

    For a stationary Markov policy and more than one session, all the
    sessions are packed into the batch dimension of the vector kernel
    (lengths drawn up front, finished sessions compacted away); a
    single session, or a heuristic, runs session by session through
    the loop.

    Parameters
    ----------
    gamma:
        Discount factor in (0, 1).
    n_sessions:
        Independent sessions to run (each resets the agent and state).
    max_session_slices:
        Optional cap on a single session's length (guards runaway
        budgets when ``gamma`` is very close to one).
    """
    gamma = check_probability(gamma, "gamma")
    if not 0.0 < gamma < 1.0:
        raise ValidationError(f"gamma must be in (0, 1), got {gamma!r}")
    n_sessions = int(n_sessions)
    if n_sessions <= 0:
        raise ValidationError(f"n_sessions must be > 0, got {n_sessions}")

    batched = n_sessions > 1 and is_vectorizable(agent)
    chosen = VectorBackend() if batched else LoopBackend()
    return chosen.simulate_sessions(
        system,
        costs,
        agent,
        gamma,
        n_sessions,
        rng,
        initial_state=initial_state,
        max_session_slices=max_session_slices,
    )
