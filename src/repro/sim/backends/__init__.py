"""The two simulation paths.

* :class:`LoopBackend` — the reference interpreter; any agent, one
  trajectory at a time.
* :class:`VectorBackend` — compiled batch stepping for stationary
  Markov policies.

Callers normally go through :mod:`repro.sim.engine`, where the agent
type and the batch shape pick the path: batched runs whose agents are
all provably stationary (:func:`is_vectorizable`) step on the vector
kernel, everything else — single runs and one-lane batches included,
since one lane gives the compiled stepper nothing to amortize — runs
on the loop.  Tests and benchmarks call the two classes directly to
compare or time the paths.
"""

from __future__ import annotations

from repro.sim.backends.base import SimulationTables, is_vectorizable
from repro.sim.backends.loop import LoopBackend
from repro.sim.backends.vector import CompiledPolicyBatch, VectorBackend

__all__ = [
    "CompiledPolicyBatch",
    "LoopBackend",
    "SimulationTables",
    "VectorBackend",
    "is_vectorizable",
]
