"""Experiment registry: id -> driver, with lazy imports.

Experiment ids follow the paper's artifact names (``table1``, ``fig6``,
``fig8`` ...).  Drivers are imported on first use so that importing
:mod:`repro.experiments` stays cheap.
"""

from __future__ import annotations

import importlib
import inspect
from typing import Callable

#: Experiment id -> module path (each module exposes ``run``).
_REGISTRY: dict[str, str] = {
    "table1": "repro.experiments.table1_disk",
    "fig6": "repro.experiments.fig6_pareto",
    "fig8a": "repro.experiments.fig8a_disk_graph",
    "fig8": "repro.experiments.fig8_disk",
    "fig9a": "repro.experiments.fig9a_web_server",
    "fig9b": "repro.experiments.fig9b_cpu",
    "fig10": "repro.experiments.fig10_nonstationary",
    "fig12a": "repro.experiments.fig12a_sleep_states",
    "fig12b": "repro.experiments.fig12b_transition_cost",
    "fig13a": "repro.experiments.fig13a_burstiness",
    "fig13b": "repro.experiments.fig13b_sr_memory",
    "fig14a": "repro.experiments.fig14a_horizon",
    "fig14b": "repro.experiments.fig14b_queue_length",
    "example_a2": "repro.experiments.example_a2",
}


def available_experiments() -> tuple[str, ...]:
    """All registered experiment ids, in paper order."""
    return tuple(_REGISTRY)


def get_experiment(experiment_id: str) -> Callable:
    """The ``run`` callable for ``experiment_id``."""
    if experiment_id not in _REGISTRY:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {sorted(_REGISTRY)}"
        )
    module = importlib.import_module(_REGISTRY[experiment_id])
    return module.run


def run_experiment(
    experiment_id: str, quick: bool = False, seed: int = 0, **kwargs
):
    """Run one experiment and return its :class:`ExperimentResult`.

    Extra keyword arguments (``lp_backend=`` for the LP solver, ...)
    are forwarded to drivers whose ``run`` signature accepts them and
    silently dropped for the rest — the CLI passes user flags through here without every driver
    having to grow every knob.  ``None`` values are never forwarded
    (they mean "driver default").
    """
    driver = get_experiment(experiment_id)
    parameters = inspect.signature(driver).parameters
    accepts_any = any(
        p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()
    )
    forwarded = {
        name: value
        for name, value in kwargs.items()
        if value is not None and (accepts_any or name in parameters)
    }
    return driver(quick=quick, seed=seed, **forwarded)


def run_all(quick: bool = False, seed: int = 0, **kwargs) -> dict:
    """Run every registered experiment; returns ``{id: result}``."""
    return {
        experiment_id: run_experiment(
            experiment_id, quick=quick, seed=seed, **kwargs
        )
        for experiment_id in _REGISTRY
    }
