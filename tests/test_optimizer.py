"""Tests for the LP policy optimizer (paper Appendix A)."""

from functools import partial

import numpy as np
import pytest

from repro.core.average_cost import AverageCostOptimizer
from repro.core.costs import LOSS, PENALTY, POWER
from repro.core.optimizer import (
    InfeasibleProblemError,
    PolicyOptimizer,
)
from repro.systems import example_system
from repro.util.validation import ValidationError

#: Both LP formulations; the checks they share must hold for each.
FORMULATIONS = (partial(PolicyOptimizer, gamma=0.9), AverageCostOptimizer)


class TestConstruction:
    def test_rejects_foreign_costs(self, example_bundle):
        other = example_system.build()
        for build in FORMULATIONS:
            with pytest.raises(ValidationError, match="different system"):
                build(example_bundle.system, other.costs)

    def test_rejects_gamma_one(self, example_bundle):
        with pytest.raises(ValidationError):
            PolicyOptimizer(example_bundle.system, example_bundle.costs, gamma=1.0)

    def test_rejects_gamma_zero(self, example_bundle):
        with pytest.raises(ValidationError):
            PolicyOptimizer(example_bundle.system, example_bundle.costs, gamma=0.0)

    def test_expected_horizon(self, example_bundle):
        opt = PolicyOptimizer(example_bundle.system, example_bundle.costs, gamma=0.99)
        assert opt.expected_horizon == pytest.approx(100.0)

    def test_rejects_bad_mask_shape(self, example_bundle):
        for build in FORMULATIONS:
            with pytest.raises(ValidationError, match="action_mask"):
                build(
                    example_bundle.system,
                    example_bundle.costs,
                    action_mask=np.ones((2, 2), dtype=bool),
                )

    def test_rejects_all_forbidden_state(self, example_bundle):
        mask = np.ones((8, 2), dtype=bool)
        mask[3] = False
        for build in FORMULATIONS:
            with pytest.raises(ValidationError, match="forbids every command"):
                build(example_bundle.system, example_bundle.costs, action_mask=mask)


class TestBalanceEquations:
    def test_frequencies_satisfy_balance(self, example_optimizer, example_bundle):
        result = example_optimizer.minimize_power(penalty_bound=0.5, loss_bound=0.2)
        result.require_feasible()
        x = result.frequencies
        gamma = example_bundle.gamma
        tensor = example_bundle.system.chain.tensor
        p0 = example_bundle.initial_distribution
        for j in range(example_bundle.system.n_states):
            outflow = x[j].sum()
            inflow = sum(
                tensor[a, s, j] * x[s, a]
                for s in range(example_bundle.system.n_states)
                for a in range(2)
            )
            assert outflow - gamma * inflow == pytest.approx(p0[j], abs=1e-6)

    def test_total_frequency_is_horizon(self, example_optimizer, example_bundle):
        result = example_optimizer.minimize_power(penalty_bound=0.5, loss_bound=0.2)
        horizon = 1.0 / (1.0 - example_bundle.gamma)
        assert result.frequencies.sum() == pytest.approx(horizon, rel=1e-6)


class TestConstraints:
    def test_constraints_respected(self, example_optimizer):
        result = example_optimizer.minimize_power(penalty_bound=0.5, loss_bound=0.2)
        assert result.average(PENALTY) <= 0.5 + 1e-7
        assert result.average(LOSS) <= 0.2 + 1e-7

    def test_active_constraints_are_tight(self, example_optimizer):
        # Example A.2: both constraints bind at the optimum.
        result = example_optimizer.minimize_power(penalty_bound=0.5, loss_bound=0.2)
        assert result.average(PENALTY) == pytest.approx(0.5, abs=1e-6)
        assert result.average(LOSS) == pytest.approx(0.2, abs=1e-6)

    def test_looser_bound_never_costs_more(self, example_optimizer):
        tight = example_optimizer.minimize_power(penalty_bound=0.3).average(POWER)
        loose = example_optimizer.minimize_power(penalty_bound=0.6).average(POWER)
        assert loose <= tight + 1e-9

    def test_lower_bound_constraint(self, web_bundle):
        opt = PolicyOptimizer(
            web_bundle.system,
            web_bundle.costs,
            gamma=web_bundle.gamma,
            initial_distribution=web_bundle.initial_distribution,
        )
        result = opt.optimize(POWER, "min", lower_bounds={"throughput": 0.1})
        result.require_feasible()
        assert result.average("throughput") >= 0.1 - 1e-7

    def test_maximize_sense(self, web_bundle):
        opt = PolicyOptimizer(
            web_bundle.system,
            web_bundle.costs,
            gamma=web_bundle.gamma,
            initial_distribution=web_bundle.initial_distribution,
        )
        result = opt.optimize("throughput", "max", upper_bounds={POWER: 1.0})
        result.require_feasible()
        assert result.average(POWER) <= 1.0 + 1e-7
        # More power budget cannot reduce achievable throughput.
        more = opt.optimize("throughput", "max", upper_bounds={POWER: 2.0})
        assert more.average("throughput") >= result.average("throughput") - 1e-9

    def test_bad_sense_rejected(self, example_optimizer):
        with pytest.raises(ValidationError, match="sense"):
            example_optimizer.optimize(POWER, "maximize")


class TestInfeasibility:
    def test_impossible_penalty_bound(self, example_optimizer):
        result = example_optimizer.minimize_power(penalty_bound=0.01)
        assert not result.feasible
        assert result.policy is None
        assert result.objective_average is None

    def test_require_feasible_raises(self, example_optimizer):
        result = example_optimizer.minimize_power(penalty_bound=0.01)
        with pytest.raises(InfeasibleProblemError, match="constraints"):
            result.require_feasible()

    def test_average_raises_when_infeasible(self, example_optimizer):
        result = example_optimizer.minimize_power(penalty_bound=0.01)
        with pytest.raises(InfeasibleProblemError):
            result.average(POWER)


class TestPolicyExtraction:
    def test_policy_rows_are_distributions(self, example_optimizer):
        result = example_optimizer.minimize_power(penalty_bound=0.5, loss_bound=0.2)
        matrix = result.policy.matrix
        assert np.all(matrix >= 0)
        assert np.allclose(matrix.sum(axis=1), 1.0)

    def test_lp_objective_matches_policy_evaluation(
        self, example_optimizer, example_bundle
    ):
        """Eq. 16 extraction is exact: re-evaluating the policy in closed
        form reproduces the LP's discounted objective."""
        result = example_optimizer.minimize_power(penalty_bound=0.5, loss_bound=0.2)
        lp_total = result.lp_result.objective
        assert result.evaluation.totals[POWER] == pytest.approx(lp_total, rel=1e-6)

    def test_frequencies_match_evaluation_frequencies(
        self, example_optimizer
    ):
        result = example_optimizer.minimize_power(penalty_bound=0.5, loss_bound=0.2)
        assert np.allclose(
            result.frequencies, result.evaluation.frequencies, atol=1e-5
        )

    def test_fallback_explicit_command(self, example_bundle):
        opt = PolicyOptimizer(
            example_bundle.system,
            example_bundle.costs,
            gamma=example_bundle.gamma,
            initial_distribution=example_bundle.initial_distribution,
            fallback="s_on",
        )
        freq = np.zeros((8, 2))
        freq[0, 0] = 1.0  # only one state visited
        policy = opt.policy_from_frequencies(freq)
        # Unvisited states all get the explicit fallback command.
        assert np.all(policy.matrix[1:, 0] == 1.0)

    def test_fallback_lowest_power(self, example_bundle):
        opt = PolicyOptimizer(
            example_bundle.system,
            example_bundle.costs,
            gamma=example_bundle.gamma,
            fallback="lowest-power",
        )
        policy = opt.policy_from_frequencies(np.zeros((8, 2)))
        power = example_bundle.system.power_cost_matrix()
        for state in range(8):
            chosen = int(policy.matrix[state].argmax())
            assert power[state, chosen] == power[state].min()

    def test_fallback_unknown_rule_raises(self, example_bundle):
        for build in FORMULATIONS:
            opt = build(
                example_bundle.system, example_bundle.costs, fallback="warp-drive"
            )
            with pytest.raises(ValidationError, match="fallback"):
                opt.policy_from_frequencies(np.zeros((8, 2)))


class TestActionMask:
    def test_masked_commands_never_issued(self, cpu_bundle):
        opt = PolicyOptimizer(
            cpu_bundle.system,
            cpu_bundle.costs,
            gamma=cpu_bundle.gamma,
            initial_distribution=cpu_bundle.initial_distribution,
            action_mask=cpu_bundle.action_mask,
        )
        result = opt.minimize_power(penalty_bound=0.05).require_feasible()
        forbidden = ~cpu_bundle.action_mask
        assert np.all(result.policy.matrix[forbidden] == 0.0)

    def test_mask_changes_optimum(self, cpu_bundle):
        free = PolicyOptimizer(
            cpu_bundle.system,
            cpu_bundle.costs,
            gamma=cpu_bundle.gamma,
            initial_distribution=cpu_bundle.initial_distribution,
        )
        masked = PolicyOptimizer(
            cpu_bundle.system,
            cpu_bundle.costs,
            gamma=cpu_bundle.gamma,
            initial_distribution=cpu_bundle.initial_distribution,
            action_mask=cpu_bundle.action_mask,
        )
        free_power = free.minimize_power(penalty_bound=0.05).average(POWER)
        masked_power = masked.minimize_power(penalty_bound=0.05).average(POWER)
        # Removing freedom can only cost power (or tie).
        assert masked_power >= free_power - 1e-9


class TestBackends:
    @pytest.mark.parametrize("backend", ["scipy", "interior-point", "simplex"])
    def test_all_backends_agree_on_example_a2(self, example_bundle, backend):
        opt = PolicyOptimizer(
            example_bundle.system,
            example_bundle.costs,
            gamma=example_bundle.gamma,
            initial_distribution=example_bundle.initial_distribution,
            backend=backend,
        )
        result = opt.minimize_power(penalty_bound=0.5, loss_bound=0.2)
        result.require_feasible()
        assert result.average(POWER) == pytest.approx(1.7383, abs=2e-3)

    def test_scipy_and_interior_point_agree_on_example_a2(self, example_bundle):
        results = [
            PolicyOptimizer(
                example_bundle.system,
                example_bundle.costs,
                gamma=example_bundle.gamma,
                initial_distribution=example_bundle.initial_distribution,
                backend=backend,
            ).minimize_power(penalty_bound=0.5, loss_bound=0.2)
            for backend in ("scipy", "interior-point")
        ]
        scipy_lp, ipm_lp = (result.lp_result for result in results)
        assert scipy_lp.is_optimal and ipm_lp.is_optimal
        assert ipm_lp.objective == pytest.approx(
            scipy_lp.objective, rel=1e-6, abs=1e-6
        )
