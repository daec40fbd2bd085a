"""The content-addressed policy cache and its adaptive-refit wiring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.average_cost import AverageCostOptimizer
from repro.policies import AdaptivePolicyAgent
from repro.runtime.policy_cache import (
    PolicyCache,
    costs_signature,
    policy_signature,
    system_signature,
)
from repro.sim.rng import make_rng
from repro.systems import example_system
from repro.util.validation import ValidationError


@pytest.fixture()
def average_optimizer(example_bundle):
    return AverageCostOptimizer(example_bundle.system, example_bundle.costs)


class TestSignatures:
    def test_identically_built_systems_hash_equal(self, example_bundle):
        other = example_system.build()
        assert system_signature(example_bundle.system) == system_signature(
            other.system
        )
        assert costs_signature(example_bundle.costs) == costs_signature(
            other.costs
        )

    def test_different_content_hashes_differ(self, example_bundle, disk_bundle):
        assert system_signature(example_bundle.system) != system_signature(
            disk_bundle.system
        )

    def test_policy_signature_tracks_matrix(self, example_optimizer):
        a = example_optimizer.minimize_power(penalty_bound=0.5, loss_bound=0.2)
        b = example_optimizer.minimize_power(penalty_bound=0.5, loss_bound=0.2)
        c = example_optimizer.minimize_power(penalty_bound=0.3, loss_bound=0.2)
        assert policy_signature(a.policy) == policy_signature(b.policy)
        assert policy_signature(a.policy) != policy_signature(c.policy)


class TestPolicyCache:
    def test_identical_solves_hit(self, average_optimizer):
        cache = PolicyCache()
        a = cache.optimize(
            average_optimizer, "power", upper_bounds={"penalty": 0.5}
        )
        b = cache.optimize(
            average_optimizer, "power", upper_bounds={"penalty": 0.5}
        )
        assert a is b
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert len(cache) == 1

    def test_different_bounds_miss(self, average_optimizer):
        cache = PolicyCache()
        a = cache.optimize(
            average_optimizer, "power", upper_bounds={"penalty": 0.5}
        )
        b = cache.optimize(
            average_optimizer, "power", upper_bounds={"penalty": 0.3}
        )
        assert a is not b
        assert cache.stats.misses == 2
        assert b.objective_average >= a.objective_average - 1e-9

    def test_matches_uncached_solve(self, average_optimizer):
        cache = PolicyCache()
        cached = cache.optimize(
            average_optimizer, "power", upper_bounds={"penalty": 0.5}
        )
        cold = average_optimizer.optimize(
            "power", "min", upper_bounds={"penalty": 0.5}
        )
        assert cached.feasible and cold.feasible
        assert cached.objective_average == pytest.approx(
            cold.objective_average, abs=1e-9
        )

    def test_simplex_result_independent_of_cache_history(self, example_bundle):
        # A miss solves cold: an earlier solve of a same-shaped LP at
        # another bound must not change a bit of the next result.
        optimizer = AverageCostOptimizer(
            example_bundle.system, example_bundle.costs, backend="simplex"
        )
        cache = PolicyCache()
        cache.optimize(optimizer, "power", upper_bounds={"penalty": 0.3226})
        after = cache.optimize(
            optimizer, "power", upper_bounds={"penalty": 0.3781}
        )
        alone = PolicyCache().optimize(
            optimizer, "power", upper_bounds={"penalty": 0.3781}
        )
        assert np.array_equal(after.policy.matrix, alone.policy.matrix)
        assert np.array_equal(after.frequencies, alone.frequencies)
        assert after.lp_result.objective == alone.lp_result.objective
        assert after.objective_average == alone.objective_average
        scipy = AverageCostOptimizer(
            example_bundle.system, example_bundle.costs
        ).optimize("power", "min", upper_bounds={"penalty": 0.3781})
        assert after.objective_average == pytest.approx(
            scipy.objective_average, abs=1e-7
        )

    def test_lru_eviction(self, average_optimizer):
        cache = PolicyCache(max_entries=2)
        for bound in (0.3, 0.4, 0.5):
            cache.optimize(
                average_optimizer, "power", upper_bounds={"penalty": bound}
            )
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # The oldest entry (0.3) was evicted; re-solving it misses.
        cache.optimize(
            average_optimizer, "power", upper_bounds={"penalty": 0.3}
        )
        assert cache.stats.misses == 4

    def test_invalid_max_entries(self):
        with pytest.raises(ValidationError, match="max_entries"):
            PolicyCache(max_entries=0)

    def test_discounted_optimizer_supported(self, example_optimizer):
        cache = PolicyCache()
        a = cache.optimize(
            example_optimizer,
            "power",
            upper_bounds={"penalty": 0.5, "loss": 0.2},
        )
        b = cache.optimize(
            example_optimizer,
            "power",
            upper_bounds={"penalty": 0.5, "loss": 0.2},
        )
        assert a is b
        direct = example_optimizer.minimize_power(
            penalty_bound=0.5, loss_bound=0.2
        )
        assert a.objective_average == pytest.approx(
            direct.objective_average, abs=1e-9
        )

    def test_clear(self, average_optimizer):
        cache = PolicyCache()
        cache.optimize(average_optimizer, "power")
        cache.clear()
        assert len(cache) == 0
        cache.optimize(average_optimizer, "power")
        assert cache.stats.misses == 2


class TestCachedOptimizerProxy:
    def test_minimize_wrappers_route_through_cache(
        self, example_optimizer, average_optimizer
    ):
        for optimizer in (example_optimizer, average_optimizer):
            cache = PolicyCache()
            proxy = cache.wrap(optimizer)
            a = proxy.minimize_power(penalty_bound=0.5)
            b = proxy.minimize_power(penalty_bound=0.5)
            assert a is b
            assert cache.stats.hits == 1
            proxy.minimize_penalty(power_bound=2.5)
            proxy.minimize_unconstrained()
            assert cache.stats.misses == 3

    def test_delegates_everything_else(self, example_optimizer, average_optimizer):
        for optimizer in (example_optimizer, average_optimizer):
            proxy = PolicyCache().wrap(optimizer)
            assert proxy.system is optimizer.system
            assert proxy.backend == optimizer.backend
            assert proxy.bound_scale == optimizer.bound_scale
            assert proxy.cache.stats.misses == 0


class TestAdaptiveAgentCaching:
    def _run_agent(self, example_bundle, cache, n_slices=2400):
        agent = AdaptivePolicyAgent(
            example_bundle.system.provider,
            queue_capacity=1,
            optimize=lambda o: o.minimize_power(penalty_bound=0.6),
            window=400,
            refit_every=400,
            policy_cache=cache,
        )
        from repro.sim import simulate

        simulate(
            example_bundle.system,
            example_bundle.costs,
            agent,
            n_slices,
            make_rng(0),
        )
        return agent

    def test_refits_route_through_cache(self, example_bundle):
        cache = PolicyCache()
        agent = self._run_agent(example_bundle, cache)
        assert agent.refits > 0
        assert cache.stats.misses + cache.stats.hits >= agent.refits
        assert agent.cache_hits == cache.stats.hits

    def test_counters_reset(self, example_bundle):
        cache = PolicyCache()
        agent = self._run_agent(example_bundle, cache)
        agent.reset()
        assert agent.cache_hits == 0
        assert agent.refits == 0

    def test_shared_cache_across_agents(self, example_bundle):
        """A second device seeing the same windows reuses the solves."""
        cache = PolicyCache()
        first = self._run_agent(example_bundle, cache)
        solves_after_first = cache.stats.misses
        second = self._run_agent(example_bundle, cache)
        assert second.refits > 0
        # The identical (seeded) workload produces identical refit LPs:
        # the second agent's solves are answered from the cache.
        assert cache.stats.misses == solves_after_first
        assert second.cache_hits == second.refits

    def test_simplex_backend_refits_through_cache(self, example_bundle):
        cache = PolicyCache()
        agent = AdaptivePolicyAgent(
            example_bundle.system.provider,
            queue_capacity=1,
            optimize=lambda o: o.minimize_power(penalty_bound=0.6),
            window=300,
            refit_every=300,
            backend="simplex",
            policy_cache=cache,
        )
        from repro.sim import simulate

        simulate(
            example_bundle.system,
            example_bundle.costs,
            agent,
            1800,
            make_rng(1),
        )
        assert agent.refits >= 2
        assert cache.stats.misses + cache.stats.hits >= agent.refits
        assert agent.cache_hits == cache.stats.hits
