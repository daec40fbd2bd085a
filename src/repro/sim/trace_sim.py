"""Trace-driven simulation (paper Section V, second simulation mode).

"A second simulation mode is available, where the request trace can be
used to directly drive the simulation.  This type of simulation is
employed to check the quality of the Markov model of the service
provider."

Arrivals are replayed from a discretized request trace instead of being
drawn from the SR chain.  The power manager still needs an SR state to
index its policy, so an :class:`ArrivalTracker` infers the "observed"
requester state from the arrival history — for k-memory extracted
models this is exactly the last-k-arrivals state of paper Example 5.1.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.components import ServiceRequester
from repro.core.system import PowerManagedSystem
from repro.policies.base import Observation, PolicyAgent
from repro.sim.rng import categorical_cumsum, sample_categorical
from repro.util.validation import ValidationError


class ArrivalTracker(abc.ABC):
    """Maps the observed arrival stream to an SR-model state index."""

    @abc.abstractmethod
    def reset(self) -> int:
        """Reset history; return the initial SR state index."""

    @abc.abstractmethod
    def update(self, arrivals: int) -> int:
        """Fold one slice's arrival count in; return the new state index."""


class NearestArrivalTracker(ArrivalTracker):
    """Track the SR state whose arrival count is nearest the observation.

    The right tracker for memoryless multi-level SR models: each slice
    maps to the state generating the closest request count (exact for
    the common ``z in {0, 1}`` two-state workloads).
    """

    def __init__(self, requester: ServiceRequester):
        self._counts = requester.arrival_counts
        self._initial = int(np.argmin(self._counts))

    def reset(self) -> int:
        return self._initial

    def update(self, arrivals: int) -> int:
        return int(np.argmin(np.abs(self._counts - int(arrivals))))


@dataclass
class TraceSimulationResult:
    """Aggregate output of a trace-driven simulation.

    Attributes
    ----------
    n_slices:
        Replayed slices (= length of the discretized trace).
    mean_power:
        Average power per slice (from the SP power table).
    mean_queue_length:
        Average queue occupancy at slice starts (the paper's default
        performance penalty).
    mean_penalty:
        Average of the custom penalty function (equals
        ``mean_queue_length`` when no custom penalty is given).
    arrivals / serviced / lost:
        Physical request counters.
    loss_event_slices:
        Slices where arrivals hit a full queue.
    command_counts / provider_occupancy:
        Usage histograms, as in the Markov engine.
    """

    n_slices: int
    mean_power: float
    mean_queue_length: float
    mean_penalty: float
    arrivals: int
    serviced: int
    lost: int
    loss_event_slices: int
    command_counts: np.ndarray = field(repr=False)
    provider_occupancy: np.ndarray = field(repr=False)


def simulate_trace(
    system: PowerManagedSystem,
    agent: PolicyAgent,
    arrival_counts,
    rng: np.random.Generator,
    tracker: ArrivalTracker | None = None,
    penalty_fn: Callable[[int, int, int], float] | None = None,
    initial_provider_state=None,
) -> TraceSimulationResult:
    """Replay a discretized arrival trace against the system and agent.

    Parameters
    ----------
    system:
        The composed system; only its SP dynamics and queue are
        exercised (arrivals come from the trace).
    agent:
        The power-management policy under test.
    arrival_counts:
        Integer array: requests arriving in each slice (the output of
        :func:`repro.traces.discretize.discretize_timestamps`).
    rng:
        Drives SP transitions and service Bernoullis.
    tracker:
        SR-state inference from arrivals; defaults to
        :class:`NearestArrivalTracker` on the system's requester.
    penalty_fn:
        ``f(provider_state_index, queue_length, arrivals_this_slice)``
        accumulated each slice; defaults to the queue length (the
        paper's standard penalty).
    initial_provider_state:
        SP start state (name or index); defaults to state 0.
    """
    trace = np.asarray(arrival_counts, dtype=int)
    if trace.ndim != 1 or trace.size == 0:
        raise ValidationError(
            f"arrival_counts must be a non-empty 1-D array, got shape {trace.shape}"
        )
    if np.any(trace < 0):
        raise ValidationError("arrival_counts must be non-negative")

    if tracker is None:
        tracker = NearestArrivalTracker(system.requester)
    if penalty_fn is None:
        penalty_fn = lambda s, q, z: float(q)  # noqa: E731 - default penalty

    s = (
        0
        if initial_provider_state is None
        else system.provider.chain.state_index(initial_provider_state)
    )
    agent.reset()
    r_obs = tracker.reset()

    sp_cum = categorical_cumsum(system.provider.chain.tensor, axis=2)
    rates = system.provider.service_rate_matrix
    power = system.provider.power_matrix
    capacity = system.queue.capacity
    n_sp_states = system.provider.n_states

    q = 0
    prev_arrivals = 0
    total_power = 0.0
    total_queue = 0.0
    total_penalty = 0.0
    total_serviced = 0
    total_lost = 0
    loss_event_slices = 0
    command_counts = np.zeros(system.n_commands, dtype=np.int64)
    provider_occupancy = np.zeros(n_sp_states, dtype=np.int64)

    for t in range(trace.size):
        observation = Observation(
            provider_state=s,
            requester_state=r_obs,
            queue_length=q,
            arrivals=prev_arrivals,
            slice_index=t,
        )
        a = int(agent.select_command(observation, rng))
        if not 0 <= a < system.n_commands:
            raise ValidationError(
                f"agent returned command {a}, valid range is "
                f"[0, {system.n_commands})"
            )

        total_power += power[s, a]
        total_queue += q
        total_penalty += penalty_fn(s, q, prev_arrivals)
        command_counts[a] += 1
        provider_occupancy[s] += 1
        if prev_arrivals > 0 and q == capacity:
            loss_event_slices += 1

        # --- transition driven by the trace ---------------------------
        z = int(trace[t])
        s_next = sample_categorical(sp_cum[a, s], rng)
        pending = q + z
        served = 0
        if pending > 0 and rng.random() < rates[s, a]:
            served = 1
        q_next = min(pending - served, capacity)
        total_lost += max(pending - served - capacity, 0)
        total_serviced += served

        r_obs = tracker.update(z)
        prev_arrivals = z
        s, q = s_next, q_next

    n = trace.size
    return TraceSimulationResult(
        n_slices=n,
        mean_power=total_power / n,
        mean_queue_length=total_queue / n,
        mean_penalty=total_penalty / n,
        arrivals=int(trace.sum()),
        serviced=total_serviced,
        lost=total_lost,
        loss_event_slices=loss_event_slices,
        command_counts=command_counts,
        provider_occupancy=provider_occupancy,
    )
