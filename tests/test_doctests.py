"""Run the docstring examples of the public modules as tests.

Every public class carries a worked example (usually one of the paper's
own numeric examples); this module keeps them honest without enabling
``--doctest-modules`` globally.
"""

import doctest

import pytest

import repro.core.average_cost
import repro.core.components
import repro.core.costs
import repro.core.optimizer
import repro.core.pareto_sweep
import repro.core.policy
import repro.core.system
import repro.estimation.chain_fit
import repro.estimation.mmpp_fit
import repro.estimation.provider_fit
import repro.estimation.report
import repro.estimation.scenario
import repro.estimation.workload
import repro.lp.problem
import repro.markov.chain
import repro.markov.controlled
import repro.runtime.controller
import repro.runtime.policy_cache
import repro.traces.extractor
import repro.traces.trace

MODULES = [
    repro.markov.chain,
    repro.markov.controlled,
    repro.lp.problem,
    repro.core.components,
    repro.core.costs,
    repro.core.system,
    repro.core.policy,
    repro.core.optimizer,
    repro.core.average_cost,
    repro.core.pareto_sweep,
    repro.traces.trace,
    repro.traces.extractor,
    repro.runtime.policy_cache,
    repro.runtime.controller,
    repro.estimation.chain_fit,
    repro.estimation.mmpp_fit,
    repro.estimation.provider_fit,
    repro.estimation.report,
    repro.estimation.scenario,
    repro.estimation.workload,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{module.__name__}: {results.failed} failures"
    assert results.attempted > 0, f"{module.__name__} has no doctests"
