"""Tests for the incremental Pareto sweep engine.

Covers cold/warm sweep
equivalence across all three LP backends (including an infeasible
prefix), solve-count regressions via a spy backend (dedupe and
bracketing), adaptive refinement, the tagged ``simulate_curve`` error
for feasible-but-policyless points, and the simplex warm-start hooks.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

import repro.lp.solve as lp_solve
from repro.core.average_cost import AverageCostOptimizer
from repro.core.costs import PENALTY, POWER
from repro.core.optimizer import PolicyOptimizer
from repro.core.pareto import min_achievable, simulate_curve, trade_off_curve
from repro.core.pareto_sweep import ParetoSweepSolver, SweepStats
from repro.util.validation import ValidationError

#: Sweep with duplicates and an infeasible prefix (the example system's
#: penalty floor is ~0.163).
SWEEP_BOUNDS = [0.05, 0.08, 0.1, 0.12, 0.15, 0.2, 0.2, 0.3, 0.4, 0.5, 0.7, 0.9]
ALL_BACKENDS = ("scipy", "interior-point", "simplex")


def _make_optimizer(bundle, backend="scipy"):
    return PolicyOptimizer(
        bundle.system,
        bundle.costs,
        gamma=bundle.gamma,
        initial_distribution=bundle.initial_distribution,
        backend=backend,
    )


def _cold_reference(optimizer, bounds):
    """The seed's per-bound cold loop over the unique sorted bounds."""
    out = []
    for bound in sorted(set(bounds)):
        result = optimizer.optimize(POWER, "min", upper_bounds={PENALTY: bound})
        out.append(result)
    return out


@pytest.fixture()
def spy_backend(monkeypatch):
    """Count LP solves going through the scipy backend."""
    counter = {"solves": 0}
    original = lp_solve._BACKENDS["scipy"]

    def counting(problem, warm_start=None):
        counter["solves"] += 1
        return original(problem, warm_start=warm_start)

    monkeypatch.setitem(lp_solve._BACKENDS, "scipy", counting)
    return counter


class TestEquivalence:
    """Cold and warm-started sweeps produce identical curves."""

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_engine_matches_cold_loop(self, example_bundle, backend):
        reference = _cold_reference(
            _make_optimizer(example_bundle, backend), SWEEP_BOUNDS
        )
        curve = trade_off_curve(
            _make_optimizer(example_bundle, backend), SWEEP_BOUNDS
        )
        assert len(curve.points) == len(reference)
        for ref, point in zip(reference, curve.points):
            assert ref.feasible == point.feasible
            if ref.feasible:
                assert point.objective == pytest.approx(
                    ref.objective_average, abs=1e-8
                )
                assert np.allclose(
                    point.policy.matrix, ref.policy.matrix, atol=1e-6
                )
            else:
                assert point.objective is None
                assert point.policy is None

    def test_infeasible_prefix_is_flagged(self, example_bundle):
        optimizer = _make_optimizer(example_bundle)
        floor = min_achievable(optimizer, PENALTY)
        curve = trade_off_curve(optimizer, SWEEP_BOUNDS)
        for point in curve.points:
            assert point.feasible == (point.bound >= floor - 1e-9)

    def test_average_cost_optimizer_sweeps(self, example_bundle):
        optimizer = AverageCostOptimizer(
            example_bundle.system, example_bundle.costs, backend="simplex"
        )
        curve = trade_off_curve(optimizer, [0.1, 0.2, 0.3, 0.5, 0.9])
        assert not curve.points[0].feasible
        assert curve.is_convex()
        assert curve.is_non_increasing()


class TestLowerBoundSweep:
    def test_throughput_sweep_matches_direct_solves(self, web_bundle):
        optimizer = _make_optimizer(web_bundle)
        bounds = [0.02, 0.08, 0.14, 0.20]
        solver = ParetoSweepSolver(
            optimizer,
            objective=POWER,
            constraint="throughput",
            constraint_sense=">=",
        )
        curve = solver.solve(bounds)
        for bound, point in zip(bounds, curve.points):
            direct = optimizer.optimize(
                POWER, "min", lower_bounds={"throughput": bound}
            )
            assert point.feasible == direct.feasible
            if direct.feasible:
                assert point.objective == pytest.approx(
                    direct.objective_average, abs=1e-10
                )

    def test_bad_sense_rejected(self, example_bundle):
        with pytest.raises(ValidationError, match="constraint_sense"):
            ParetoSweepSolver(
                _make_optimizer(example_bundle), constraint_sense="=="
            )


class TestDedupe:
    def test_duplicate_bounds_solved_once(self, example_bundle, spy_backend):
        optimizer = _make_optimizer(example_bundle)
        curve = trade_off_curve(optimizer, [0.5, 0.5, 0.5, 0.5 + 1e-12, 0.9])
        # 0.5 appears four times (one within tolerance); one point each.
        assert [p.bound for p in curve.points] == [0.5, 0.9]
        assert spy_backend["solves"] == 2
        assert curve.stats.n_deduped == 3
        assert curve.stats.n_solves == 2

    def test_near_duplicates_outside_tolerance_kept(self, example_bundle):
        curve = trade_off_curve(
            _make_optimizer(example_bundle), [0.5, 0.500001, 0.9]
        )
        assert len(curve.points) == 3


class TestBracketing:
    def test_infeasible_prefix_skips_solves(self, example_bundle, spy_backend):
        optimizer = _make_optimizer(example_bundle)
        infeasible = list(np.linspace(0.01, 0.15, 10))  # floor is ~0.163
        feasible = [0.2, 0.4, 0.9]
        curve = trade_off_curve(optimizer, infeasible + feasible)
        assert sum(not p.feasible for p in curve.points) == 10
        assert sum(p.feasible for p in curve.points) == 3
        # The cold loop would need 13 solves; bisection needs far fewer.
        assert spy_backend["solves"] < 13
        assert curve.stats.n_bracket_skipped > 0
        assert (
            curve.stats.n_solves + curve.stats.n_bracket_skipped
            == curve.stats.n_unique
        )

    def test_all_infeasible_sweep(self, example_bundle, spy_backend):
        curve = trade_off_curve(
            _make_optimizer(example_bundle), [0.01, 0.05, 0.1, 0.12]
        )
        assert all(not p.feasible for p in curve.points)
        # One probe at the loosest bound proves the whole sweep infeasible.
        assert spy_backend["solves"] == 1

    def test_bracketing_results_match_unbracketed(self, example_bundle):
        bounds = list(np.linspace(0.01, 0.15, 6)) + [0.2, 0.5, 0.9]
        bracketed = trade_off_curve(_make_optimizer(example_bundle), bounds)
        plain = _cold_reference(_make_optimizer(example_bundle), bounds)
        assert len(bracketed.points) == len(plain)
        for p_b, p_p in zip(bracketed.points, plain):
            assert p_b.feasible == p_p.feasible
            if p_b.feasible:
                assert p_b.objective == pytest.approx(
                    p_p.objective_average, abs=1e-8
                )


class TestRefine:
    def test_refine_densifies_largest_gap(self, example_bundle):
        optimizer = _make_optimizer(example_bundle, "simplex")
        solver = ParetoSweepSolver(optimizer)
        base = solver.solve([0.2, 0.9])
        refined = solver.solve([0.2, 0.9], refine=3)
        assert len(refined.points) == len(base.points) + 3
        assert refined.stats.n_refined == 3
        bounds = [p.bound for p in refined.points]
        assert bounds == sorted(bounds)
        assert refined.is_convex()
        assert refined.is_non_increasing()

    def test_refined_points_match_direct_solves(self, example_bundle):
        optimizer = _make_optimizer(example_bundle, "simplex")
        refined = ParetoSweepSolver(optimizer).solve([0.2, 0.9], refine=2)
        direct = _make_optimizer(example_bundle)
        for point in refined.points:
            result = direct.optimize(
                POWER, "min", upper_bounds={PENALTY: point.bound}
            )
            assert point.objective == pytest.approx(
                result.objective_average, abs=1e-8
            )

    def test_refine_zero_is_default(self, example_bundle):
        solver = ParetoSweepSolver(_make_optimizer(example_bundle))
        curve = solver.solve([0.3, 0.6])
        assert len(curve.points) == 2
        assert curve.stats.n_refined == 0

    def test_negative_refine_rejected(self, example_bundle):
        solver = ParetoSweepSolver(_make_optimizer(example_bundle))
        with pytest.raises(ValidationError, match="refine"):
            solver.solve([0.3, 0.6], refine=-1)


class TestSweepStats:
    def test_stats_attached_to_curve(self, example_bundle):
        curve = trade_off_curve(_make_optimizer(example_bundle), [0.3, 0.6])
        assert isinstance(curve.stats, SweepStats)
        assert curve.stats.n_requested == 2
        assert set(curve.stats.as_dict()) == {
            "n_requested",
            "n_unique",
            "n_solves",
            "n_warm",
            "n_cold",
            "n_deduped",
            "n_bracket_skipped",
            "n_refined",
            "lp_iterations",
            "lp_refactorizations",
        }

    def test_warm_solves_counted_on_simplex(self, example_bundle):
        curve = trade_off_curve(
            _make_optimizer(example_bundle, "simplex"),
            [0.3, 0.4, 0.5, 0.6, 0.7],
        )
        assert curve.stats.n_warm > 0
        assert curve.stats.n_warm + curve.stats.n_cold == curve.stats.n_solves

    def test_no_warm_solves_on_scipy(self, example_bundle):
        curve = trade_off_curve(
            _make_optimizer(example_bundle), [0.3, 0.5, 0.7]
        )
        assert curve.stats.n_warm == 0

    def test_empty_bounds_rejected(self, example_bundle):
        solver = ParetoSweepSolver(_make_optimizer(example_bundle))
        with pytest.raises(ValidationError, match="at least one"):
            solver.solve([])


class TestSimulateCurveTaggedError:
    def test_feasible_point_without_policy_raises(self, example_bundle):
        curve = trade_off_curve(_make_optimizer(example_bundle), [0.3, 0.6])
        curve.points[1].policy = None  # corrupt: feasible but no policy
        with pytest.raises(ValidationError, match="feasible but"):
            simulate_curve(
                curve,
                example_bundle.system,
                example_bundle.costs,
                100,
                rng=0,
            )

    def test_intact_curve_simulates(self, example_bundle):
        curve = trade_off_curve(
            _make_optimizer(example_bundle), [0.1, 0.3, 0.6]
        )
        results = simulate_curve(
            curve, example_bundle.system, example_bundle.costs, 200, rng=0
        )
        assert results[0] is None  # 0.1 is below the feasibility floor
        assert results[1] is not None and results[2] is not None


class TestLexicographicFallback:
    """The greedy-service fallback must order lexicographically."""

    @staticmethod
    def _fake_system(rates, power):
        rates = np.asarray(rates, dtype=float)
        provider = SimpleNamespace(
            service_rate_matrix=rates, power_matrix=np.asarray(power, float)
        )
        return SimpleNamespace(
            provider=provider,
            provider_index_of_state=np.arange(rates.shape[0]),
            n_states=rates.shape[0],
            n_commands=rates.shape[1],
        )

    def test_huge_power_does_not_override_rate(self):
        # Old scoring ``rates - 1e-9 * power`` picks command 1 here:
        # 1e-9 * 1e6 = 1e-3 dwarfs the 1e-12 rate gap.  Lexicographic
        # ordering must pick command 0, the strictly higher rate.
        system = self._fake_system(
            rates=[[1.0, 1.0 - 1e-12]], power=[[1e6, 0.0]]
        )
        commands = PolicyOptimizer._fallback_commands(
            system, "greedy-service", None
        )
        assert commands.tolist() == [0]

    def test_rate_tie_broken_by_lower_power(self):
        system = self._fake_system(
            rates=[[1.0, 1.0, 0.5]], power=[[3.0, 2.0, 0.0]]
        )
        commands = PolicyOptimizer._fallback_commands(
            system, "greedy-service", None
        )
        assert commands.tolist() == [1]

    def test_full_tie_prefers_lowest_index(self):
        system = self._fake_system(rates=[[1.0, 1.0]], power=[[2.0, 2.0]])
        commands = PolicyOptimizer._fallback_commands(
            system, "greedy-service", None
        )
        assert commands.tolist() == [0]

    def test_mask_excludes_commands(self):
        system = self._fake_system(
            rates=[[1.0, 0.9], [1.0, 0.9]], power=[[1.0, 0.0], [1.0, 0.0]]
        )
        mask = np.array([[False, True], [True, True]])
        commands = PolicyOptimizer._fallback_commands(
            system, "greedy-service", mask
        )
        assert commands.tolist() == [1, 0]

    def test_matches_exact_evaluation_on_example(self, example_bundle):
        # On the running example the old heuristic and the exact
        # ordering agree — the fix must not perturb it.
        commands = PolicyOptimizer._fallback_commands(
            example_bundle.system, "greedy-service", None
        )
        rates = example_bundle.system.provider.service_rate_matrix[
            example_bundle.system.provider_index_of_state
        ]
        for state, command in enumerate(commands):
            assert rates[state, command] == rates[state].max()


class TestSweepValidation:
    def test_rejects_optimizer_without_lp_surface(self):
        with pytest.raises(ValidationError, match="build_lp"):
            ParetoSweepSolver(SimpleNamespace())

    def test_rejects_bad_n_jobs(self, example_bundle):
        for n_jobs in (0, 2):
            with pytest.raises(ValidationError, match="n_jobs"):
                ParetoSweepSolver(_make_optimizer(example_bundle), n_jobs=n_jobs)

    def test_rejects_non_finite_bounds(self, example_bundle):
        solver = ParetoSweepSolver(_make_optimizer(example_bundle))
        with pytest.raises(ValidationError, match="finite"):
            solver.solve([0.3, float("nan")])
