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

:func:`simulate_trace` steps through the same per-slice interpreter as
the Markov-driven loop (:func:`~repro.sim.backends.loop.run_slices`)
and returns the same :class:`~repro.sim.result.SimulationResult`, so a
trace-driven run and a model-driven run of one policy compare metric by
metric.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.components import ServiceRequester
from repro.core.costs import CostModel
from repro.core.system import PowerManagedSystem
from repro.policies.base import PolicyAgent
from repro.sim.backends.base import SimulationTables
from repro.sim.backends.loop import _fresh_run
from repro.sim.result import SimulationResult
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

    def state_table(self) -> np.ndarray:
        """:meth:`update`'s answer for each count ``0..max`` arrival count.

        A larger count maps to the last entry, as :meth:`update` maps
        it, so ``table[min(z, len(table) - 1)]`` tracks any count ``z``.
        """
        levels = np.arange(int(self._counts.max()) + 1)
        return np.argmin(np.abs(self._counts[None, :] - levels[:, None]), axis=1)


def simulate_trace(
    system: PowerManagedSystem,
    costs: CostModel,
    agent: PolicyAgent,
    arrival_counts,
    rng: np.random.Generator,
    tracker: ArrivalTracker | None = None,
    initial_provider_state=None,
) -> SimulationResult:
    """Replay a discretized arrival trace against the system and agent.

    Parameters
    ----------
    system / costs:
        The composed system and the metrics to accumulate, as in
        :func:`~repro.sim.engine.simulate`.  Arrivals come from the
        trace; the SR chain only names the tracked states.  A metric
        that takes an expectation over the SR transition law (the
        standard ``"overflow"``) therefore reads the *model's*
        expected value along the tracked states; what the trace really
        lost is in ``lost`` and ``loss_event_slices``.
    agent:
        The power-management policy under test.
    arrival_counts:
        Integer array: requests arriving in each slice (the output of
        :func:`repro.traces.discretize.discretize_timestamps`).
    rng:
        Drives policy draws, SP transitions and service Bernoullis.
    tracker:
        SR-state inference from arrivals; defaults to
        :class:`NearestArrivalTracker` on the system's requester.
    initial_provider_state:
        SP start state (name or index); defaults to state 0.  The queue
        starts empty and the requester at ``tracker.reset()``.

    A loss event is a slice that starts with a full queue after a slice
    with arrivals.
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
    tables = SimulationTables.compile(system, costs)
    s = (
        0
        if initial_provider_state is None
        else system.provider.chain.state_index(initial_provider_state)
    )
    agent.reset()
    state = (s, tracker.reset(), 0)
    return _fresh_run(
        tables, agent, rng, state, trace.size, counts=trace, tracker=tracker
    )
