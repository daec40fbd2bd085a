"""Tests for the adaptive policy manager (the paper's future-work item)."""

import pytest

from repro.experiments.fig10_nonstationary import build_nonstationary_trace
from repro.core.costs import PENALTY, POWER
from repro.core.optimizer import PolicyOptimizer
from repro.policies import AdaptivePolicyAgent, StationaryPolicyAgent
from repro.sim import make_rng, simulate
from repro.sim.trace_sim import simulate_trace
from repro.systems import cpu, example_system
from repro.systems.cpu import build_provider, reactive_wake_mask
from repro.util.validation import ValidationError


def cpu_adaptive_agent(penalty_bound=0.02, window=4000, refit_every=1000):
    return AdaptivePolicyAgent(
        provider=build_provider(),
        queue_capacity=0,
        optimize=lambda o: o.minimize_power(penalty_bound=penalty_bound),
        window=window,
        refit_every=refit_every,
        fallback_command=0,
        build_costs=cpu.standard_costs,
        action_mask_builder=reactive_wake_mask,
    )


class TestLifecycle:
    def test_fallback_until_first_fit(self, rng):
        agent = cpu_adaptive_agent(window=200, refit_every=100)
        agent.reset()
        from repro.policies.base import Observation

        # Before any window fills, the agent issues the fallback command.
        for t in range(50):
            command = agent.select_command(
                Observation(0, 0, 0, 0, t), rng
            )
            assert command == 0
        assert agent.refits == 0

    def test_refits_happen(self, example_bundle, rng):
        agent = AdaptivePolicyAgent(
            provider=example_system.build_provider(),
            queue_capacity=1,
            optimize=lambda o: o.minimize_power(penalty_bound=0.5, loss_bound=0.25),
            window=1000,
            refit_every=500,
            fallback_command=0,
        )
        simulate(
            example_bundle.system,
            example_bundle.costs,
            agent,
            4000,
            rng,
            initial_state=("on", "0", 0),
        )
        assert agent.refits >= 5
        assert agent.current_policy is not None


class TestEstimatorMode:
    """Refitting through the estimation layer instead of fixed memory."""

    def make_agent(self, estimator):
        return AdaptivePolicyAgent(
            provider=example_system.build_provider(),
            queue_capacity=1,
            optimize=lambda o: o.minimize_power(
                penalty_bound=0.5, loss_bound=0.25
            ),
            window=600,
            refit_every=300,
            fallback_command=0,
            estimator=estimator,
        )

    def test_bic_string_builds_default_estimator(self, example_bundle, rng):
        agent = self.make_agent("bic")
        assert "chain-estimator" in agent.describe()
        simulate(
            example_bundle.system,
            example_bundle.costs,
            agent,
            1500,
            rng,
            initial_state=("on", "0", 0),
        )
        assert agent.refits >= 1
        assert agent.fitted_memory in (1, 2, 3)

    def test_custom_estimator_is_used(self, example_bundle, rng):
        from repro.estimation import ArrivalChainEstimator

        estimator = ArrivalChainEstimator(memories=(2,))
        agent = self.make_agent(estimator)
        simulate(
            example_bundle.system,
            example_bundle.costs,
            agent,
            1500,
            rng,
            initial_state=("on", "0", 0),
        )
        assert agent.refits >= 1
        assert agent.fitted_memory == 2
        assert estimator.last_selection is not None

    def test_estimator_refits_route_through_cache(
        self, example_bundle, rng
    ):
        from repro.runtime.policy_cache import PolicyCache

        cache = PolicyCache()
        agent = AdaptivePolicyAgent(
            provider=example_system.build_provider(),
            queue_capacity=1,
            optimize=lambda o: o.minimize_power(
                penalty_bound=0.5, loss_bound=0.25
            ),
            window=400,
            refit_every=200,
            fallback_command=0,
            estimator="bic",
            policy_cache=cache,
        )
        simulate(
            example_bundle.system,
            example_bundle.costs,
            agent,
            1600,
            rng,
            initial_state=("on", "0", 0),
        )
        assert agent.refits >= 2
        assert cache.stats.hits + cache.stats.misses >= agent.refits

    def test_invalid_estimator_rejected(self):
        with pytest.raises(ValidationError):
            self.make_agent(estimator=42)

    def test_fitted_memory_none_before_first_fit(self):
        agent = self.make_agent("bic")
        assert agent.fitted_memory is None
        agent.reset()
        assert agent.fitted_memory is None
        assert agent.current_policy is None

    def test_reset_clears_state(self, rng):
        agent = cpu_adaptive_agent(window=100, refit_every=50)
        from repro.policies.base import Observation

        agent.reset()
        for t in range(300):
            agent.select_command(Observation(0, 0, 0, t % 2, t), rng)
        assert agent.refits > 0
        agent.reset()
        assert agent.refits == 0
        assert agent.current_policy is None

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            cpu_adaptive_agent(window=5)
        with pytest.raises(ValidationError):
            AdaptivePolicyAgent(
                provider=build_provider(),
                queue_capacity=0,
                optimize=lambda o: o.minimize_power(penalty_bound=0.1),
                refit_every=0,
            )

    def test_describe(self):
        agent = cpu_adaptive_agent(window=100, refit_every=50)
        assert "adaptive" in agent.describe()


class TestStationaryConvergence:
    def test_matches_static_optimum_on_markovian_workload(self):
        """On a truly Markovian workload, the adaptive agent's refit
        model converges to the truth and its power approaches the
        static optimum computed with the true model."""
        bundle = cpu.build()
        static_opt = PolicyOptimizer(
            bundle.system,
            bundle.costs,
            gamma=bundle.gamma,
            initial_distribution=bundle.initial_distribution,
            action_mask=bundle.action_mask,
        )
        static = static_opt.minimize_power(penalty_bound=0.03).require_feasible()
        static_sim = simulate(
            bundle.system,
            bundle.costs,
            StationaryPolicyAgent(bundle.system, static.policy),
            60_000,
            make_rng(4),
            initial_state=("active", "idle", 0),
        )
        agent = cpu_adaptive_agent(penalty_bound=0.03, window=6000, refit_every=2000)
        adaptive_sim = simulate(
            bundle.system,
            bundle.costs,
            agent,
            60_000,
            make_rng(4),
            initial_state=("active", "idle", 0),
        )
        assert agent.refits > 10
        # Within noise of the static optimum — no adaptivity penalty.
        assert adaptive_sim.averages["power"] == pytest.approx(
            static_sim.averages["power"], rel=0.15, abs=0.03
        )


class TestNonstationaryTracking:
    """On the Fig. 10 regime-switching workload the adaptive manager's
    advantage is *constraint enforcement*: the static policy, optimized
    against the blended model, spends its whole penalty budget in one
    regime (violating the bound there), while the adaptive agent meets
    the bound in every regime at competitive power."""

    BOUND = 0.01

    @pytest.fixture(scope="class")
    def setup(self):
        rng = make_rng(0)
        trace = build_nonstationary_trace(60_000, rng)
        counts = trace.discretize(cpu.TIME_RESOLUTION)
        bundle = cpu.build_from_trace(trace)
        model = bundle.metadata["sr_model"]

        def replay(agent, segment):
            # The CPU costs' penalty is the sleep-while-busy indicator.
            return simulate_trace(
                bundle.system,
                bundle.costs,
                agent,
                segment,
                make_rng(1),
                tracker=model.tracker(),
                initial_provider_state="active",
            ).averages

        return bundle, counts, replay

    def test_static_violates_bound_per_regime(self, setup):
        bundle, counts, replay = setup
        half = counts.size // 2
        optimizer = PolicyOptimizer(
            bundle.system,
            bundle.costs,
            gamma=bundle.gamma,
            initial_distribution=bundle.initial_distribution,
            action_mask=bundle.action_mask,
        )
        static = optimizer.minimize_power(
            penalty_bound=self.BOUND
        ).require_feasible()
        editing = replay(
            StationaryPolicyAgent(bundle.system, static.policy), counts[:half]
        )
        # The blended model hides the editing regime's exposure: the
        # bound is violated there by a wide margin.
        assert editing[PENALTY] > 1.3 * self.BOUND

    def test_adaptive_enforces_bound_in_every_regime(self, setup):
        bundle, counts, replay = setup
        half = counts.size // 2
        for segment in (counts[:half], counts[half:], counts):
            agent = cpu_adaptive_agent(
                penalty_bound=self.BOUND, window=4000, refit_every=1000
            )
            result = replay(agent, segment)
            assert result[PENALTY] <= 1.15 * self.BOUND
            assert agent.refits > 10

    def test_adaptive_power_competitive_with_compliant_static(self, setup):
        """Among static policies that actually meet the per-regime
        bound, none saves meaningfully more power than the adaptive."""
        bundle, counts, replay = setup
        half = counts.size // 2
        optimizer = PolicyOptimizer(
            bundle.system,
            bundle.costs,
            gamma=bundle.gamma,
            initial_distribution=bundle.initial_distribution,
            action_mask=bundle.action_mask,
        )
        compliant_powers = []
        for bound in (0.002, 0.004, 0.006, 0.008, 0.01):
            result = optimizer.minimize_power(penalty_bound=bound)
            if not result.feasible:
                continue
            agent = StationaryPolicyAgent(bundle.system, result.policy)
            worst = replay(agent, counts[:half])[PENALTY]
            if worst <= 1.05 * self.BOUND:
                agent = StationaryPolicyAgent(bundle.system, result.policy)
                compliant_powers.append(replay(agent, counts)[POWER])
        assert compliant_powers, "no compliant static policy found"

        adaptive = cpu_adaptive_agent(
            penalty_bound=self.BOUND, window=4000, refit_every=1000
        )
        adaptive_power = replay(adaptive, counts)[POWER]
        assert adaptive_power <= min(compliant_powers) + 0.01
