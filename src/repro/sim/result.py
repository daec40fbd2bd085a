"""The result record shared by both simulation paths.

Kept in its own module so the two paths and :mod:`repro.sim.engine`
can all import it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class SimulationResult:
    """Aggregate output of a Markov-driven simulation run.

    Attributes
    ----------
    n_slices:
        Simulated slices.
    averages:
        Metric name -> per-slice average of the accumulated metric
        (directly comparable to the optimizer's per-slice averages).
    totals:
        Metric name -> undiscounted sum over the run.
    arrivals / serviced / lost:
        Physical request counters: requests that arrived, completed
        service, and overflowed the queue.
    loss_event_slices:
        Slices in which the loss-risk condition held (SR issuing with a
        full queue) — the paper's request-loss metric.
    command_counts:
        Times each command was issued.
    provider_occupancy:
        Slices spent in each SP state.
    final_state:
        Joint ``(provider, requester, queue)`` indices after the run.
    """

    n_slices: int
    averages: dict[str, float]
    totals: dict[str, float]
    arrivals: int
    serviced: int
    lost: int
    loss_event_slices: int
    command_counts: np.ndarray = field(repr=False)
    provider_occupancy: np.ndarray = field(repr=False)
    final_state: tuple[int, int, int] = (0, 0, 0)
