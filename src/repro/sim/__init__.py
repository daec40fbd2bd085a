"""Slotted-time stochastic simulation of power-managed systems.

The paper's tool verifies every optimized policy by simulation (Fig. 7):
once against the Markov workload model ("to check consistency") and
once driven by the actual request trace ("to check the quality of the
Markov model of the service provider").  This package implements both
modes; the Markov-driven one steps on a reference loop or a vectorized
kernel (:mod:`repro.sim.backends`), picked by the agent type and the
batch shape.  The entry points:

* :func:`~repro.sim.engine.simulate` — Markov-driven simulation of the
  composed system under any :class:`~repro.policies.base.PolicyAgent`;
* :func:`~repro.sim.engine.simulate_many` /
  :func:`~repro.sim.engine.simulate_replications` — the batch API:
  policy sweeps and replication studies, vectorized for stationary
  Markov policies;
* :func:`~repro.sim.engine.simulate_sessions` — geometric-session
  simulation estimating the *discounted* totals of Section IV directly;
* :func:`~repro.sim.trace_sim.simulate_trace` — trace-driven simulation
  where arrivals are replayed from a discretized request trace; it
  steps through the loop path's interpreter and returns the same
  :class:`~repro.sim.result.SimulationResult`.
"""

from repro.sim.backends import LoopBackend, VectorBackend
from repro.sim.engine import (
    SimulationResult,
    simulate,
    simulate_many,
    simulate_replications,
    simulate_sessions,
)
from repro.sim.rng import (
    categorical_cumsum,
    child_rngs,
    make_rng,
    sample_categorical,
    sample_categorical_batch,
    spawn_rngs,
)
from repro.sim.stats import SampleStats, confidence_interval
from repro.sim.trace_sim import simulate_trace

__all__ = [
    "simulate",
    "simulate_many",
    "simulate_replications",
    "simulate_sessions",
    "simulate_trace",
    "SimulationResult",
    "SampleStats",
    "confidence_interval",
    "make_rng",
    "spawn_rngs",
    "child_rngs",
    "categorical_cumsum",
    "sample_categorical",
    "sample_categorical_batch",
    "LoopBackend",
    "VectorBackend",
]
