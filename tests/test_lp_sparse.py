"""Sparse LP core: representation equivalence and the factored path.

The acceptance suite for the sparse revised-simplex tentpole:

* ``LinearProgram`` sparse (CSR) construction and standard-form
  conversion agree exactly with the dense fallback;
* sparse-vs-dense ``LPResult`` equivalence at 1e-8 (objective, policy,
  Pareto curves) across the figure experiments' optimization setups
  (fig6 example sweep, fig8 disk, fig9a web lower-bound sweep, fig9b
  CPU with its action mask);
* degenerate / redundant-row instances and warm-start round trips on
  the factored (LU + eta updates) path;
* solve statistics (``LPResult.stats``) shape and the
  no-per-iteration-refactorization invariant.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.average_cost import AverageCostOptimizer
from repro.core.costs import PENALTY, POWER
from repro.core.optimizer import PolicyOptimizer, balance_matrix
from repro.core.pareto import min_achievable
from repro.core.pareto_sweep import ParetoSweepSolver
from repro.lp import simplex
from repro.lp.problem import LinearProgram
from repro.lp.result import LPStatus
from repro.lp.solve import solve_lp
from repro.systems import cpu, disk_drive, example_system, web_server
from repro.util.validation import ValidationError

#: The tentpole's acceptance tolerance for representation agreement.
AGREEMENT_TOL = 1e-8


def _optimizer(bundle, sparse, backend="simplex", **kwargs):
    return PolicyOptimizer(
        bundle.system,
        bundle.costs,
        gamma=bundle.gamma,
        initial_distribution=bundle.initial_distribution,
        backend=backend,
        sparse=sparse,
        **kwargs,
    )


def small_sparse_lp() -> LinearProgram:
    lp = LinearProgram([1.0, 2.0, 0.0])
    lp.add_equality_block(
        sp.csr_matrix(np.array([[1.0, 1.0, 1.0]])), [1.0]
    )
    lp.add_inequality([1.0, 0.0, 0.0], 0.75)
    return lp


class TestSparseContainer:
    def test_block_construction_counts(self):
        lp = small_sparse_lp()
        assert lp.is_sparse
        assert lp.n_equalities == 1
        assert lp.n_variables == 3

    def test_dense_blocks_keep_problem_dense(self):
        lp = LinearProgram([1.0, 1.0])
        lp.add_equality_block(np.array([[1.0, 1.0]]), [1.0])
        assert not lp.is_sparse

    def test_dense_accessor_matches_sparse(self):
        lp = small_sparse_lp()
        assert np.array_equal(lp.A_eq, lp.A_eq_sparse.toarray())
        assert lp.b_eq.tolist() == [1.0]

    def test_mixed_blocks_stack_in_order(self):
        lp = LinearProgram([1.0, 1.0])
        lp.add_equality([1.0, 0.0], 0.25)
        lp.add_equality_block(sp.eye(2, format="csr"), [0.5, 0.75])
        assert lp.n_equalities == 3
        assert np.array_equal(
            lp.A_eq, [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        )
        assert lp.b_eq.tolist() == [0.25, 0.5, 0.75]

    def test_block_validation(self):
        lp = LinearProgram([1.0, 1.0])
        with pytest.raises(ValidationError, match="columns"):
            lp.add_equality_block(sp.eye(3, format="csr"), [0.0, 0.0, 0.0])
        with pytest.raises(ValidationError, match="rows"):
            lp.add_equality_block(sp.eye(2, format="csr"), [0.0])
        with pytest.raises(ValidationError, match="non-finite"):
            lp.add_equality_block(
                sp.csr_matrix(np.array([[np.inf, 0.0]])), [0.0]
            )
        with pytest.raises(ValidationError, match="non-finite"):
            lp.add_equality_block(sp.eye(2, format="csr"), [np.nan, 0.0])

    def test_standard_form_sparse_matches_dense(self):
        lp = small_sparse_lp()
        std_sparse = lp.to_standard_form()
        std_dense = lp.to_standard_form(sparse=False)
        assert std_sparse.is_sparse and not std_dense.is_sparse
        assert np.array_equal(std_sparse.A.toarray(), std_dense.A)
        assert np.array_equal(std_sparse.b, std_dense.b)
        assert np.array_equal(std_sparse.c, std_dense.c)

    def test_standard_form_forced_sparse_on_dense_problem(self):
        lp = LinearProgram([1.0, 2.0])
        lp.add_equality([1.0, 1.0], 1.0)
        std = lp.to_standard_form(sparse=True)
        assert std.is_sparse
        result = simplex.solve_standard_form(std)
        assert result.is_optimal
        assert result.objective == pytest.approx(1.0, abs=1e-9)

    def test_residuals_on_sparse_problem(self):
        lp = small_sparse_lp()
        assert lp.is_feasible([0.5, 0.25, 0.25])
        res = lp.residuals([0.0, 0.0, 0.0])
        assert res["equality"] == pytest.approx(1.0)


class TestBalanceMatrix:
    @pytest.mark.parametrize("gamma", [0.9, 1.0 - 1e-6, 1.0])
    def test_sparse_assembly_bit_identical(self, gamma):
        system = example_system.build().system
        dense = balance_matrix(system, gamma, sparse=False)
        sparse_m = balance_matrix(system, gamma, sparse=True)
        assert sp.issparse(sparse_m)
        assert np.array_equal(dense, sparse_m.toarray())

    def test_disk_sparse_assembly(self):
        system = disk_drive.build().system
        dense = balance_matrix(system, 1.0 - 1e-6, sparse=False)
        sparse_m = balance_matrix(system, 1.0 - 1e-6, sparse=True)
        assert np.array_equal(dense, sparse_m.toarray())
        # The point of the exercise: the balance block really is sparse.
        density = sparse_m.nnz / (sparse_m.shape[0] * sparse_m.shape[1])
        assert density < 0.1


class TestSimplexSparsePath:
    def test_sparse_solve_matches_dense(self):
        lp = small_sparse_lp()
        sparse_result = simplex.solve(lp)
        dense_result = simplex.solve_standard_form(lp.to_standard_form(sparse=False))
        assert sparse_result.is_optimal and dense_result.is_optimal
        assert sparse_result.objective == pytest.approx(
            dense_result.objective, abs=1e-12
        )
        assert np.allclose(sparse_result.x, dense_result.x, atol=1e-10)

    def test_redundant_rows_dropped_on_sparse_path(self):
        lp = LinearProgram([1.0, 1.0, 1.0])
        block = sp.csr_matrix(
            np.array(
                [
                    [1.0, 1.0, 0.0],
                    [2.0, 2.0, 0.0],  # redundant
                    [0.0, 0.0, 1.0],
                ]
            )
        )
        lp.add_equality_block(block, [1.0, 2.0, 0.5])
        result = simplex.solve(lp)
        assert result.is_optimal
        assert result.objective == pytest.approx(1.5, abs=1e-9)
        # The kept-row set excludes the dropped redundant row.
        assert len(result.warm_start.rows) == 2

    def test_degenerate_beale_on_sparse_path(self):
        from repro.lp.problem import StandardFormLP

        c = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
        A = sp.csr_matrix(
            np.array(
                [
                    [0.25, -60.0, -0.04, 9.0, 1.0, 0.0, 0.0],
                    [0.5, -90.0, -0.02, 3.0, 0.0, 1.0, 0.0],
                    [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
                ]
            )
        )
        std = StandardFormLP(c=c, A=A, b=np.array([0.0, 0.0, 1.0]), n_original=7)
        result = simplex.solve_standard_form(std)
        assert result.status is LPStatus.OPTIMAL
        assert result.objective == pytest.approx(-0.05, abs=1e-9)

    def test_negative_rhs_flip_on_sparse_path(self):
        lp = LinearProgram([1.0, 2.0])
        lp.add_equality_block(
            sp.csr_matrix(np.array([[-1.0, -1.0]])), [-1.0]
        )
        result = simplex.solve(lp)
        assert result.is_optimal
        assert result.objective == pytest.approx(1.0, abs=1e-9)

    def test_infeasible_certificate_on_sparse_path(self):
        lp = LinearProgram([1.0, 1.0])
        lp.add_equality_block(
            sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]])), [1.0, 2.0]
        )
        result = simplex.solve(lp)
        assert result.status is LPStatus.INFEASIBLE


class TestWarmStartFactoredPath:
    def _sparse_lp(self, rhs=0.75):
        lp = LinearProgram([1.0, 2.0, 0.0])
        lp.add_equality_block(
            sp.csr_matrix(np.array([[1.0, 1.0, 1.0]])), [1.0]
        )
        lp.add_inequality([-1.0, 0.0, 0.0], -rhs)  # x0 >= rhs
        return lp

    def test_round_trip_matches_cold(self):
        first = simplex.solve(self._sparse_lp(0.75))
        assert first.is_optimal and first.warm_start is not None
        moved = self._sparse_lp(0.25)
        warm = simplex.solve(moved, warm_start=first.warm_start)
        cold = simplex.solve(moved)
        assert warm.is_optimal and cold.is_optimal
        assert warm.objective == pytest.approx(cold.objective, abs=1e-10)
        assert np.allclose(warm.x, cold.x, atol=1e-9)
        assert warm.stats["warm_start_used"]
        assert not cold.stats["warm_start_used"]

    def test_warm_infeasibility_certificate(self):
        first = simplex.solve(self._sparse_lp(0.75))
        impossible = self._sparse_lp(1.5)  # x0 >= 1.5 but sum = 1
        warm = simplex.solve(impossible, warm_start=first.warm_start)
        assert warm.status is LPStatus.INFEASIBLE

    def test_cross_representation_warm_start(self):
        # A dense solve's basis indexes the same standard form, so it
        # warm-starts the sparse representation (and vice versa).
        dense_lp = LinearProgram([1.0, 2.0, 0.0])
        dense_lp.add_equality([1.0, 1.0, 1.0], 1.0)
        dense_lp.add_inequality([-1.0, 0.0, 0.0], -0.75)
        first = simplex.solve(dense_lp)
        warm = simplex.solve(self._sparse_lp(0.25), warm_start=first.warm_start)
        cold = simplex.solve(self._sparse_lp(0.25))
        assert warm.is_optimal
        assert warm.objective == pytest.approx(cold.objective, abs=1e-10)


class TestSolveStats:
    def test_simplex_stats_shape(self):
        result = simplex.solve(small_sparse_lp())
        stats = result.stats
        assert stats["sparse"] is True
        assert stats["pricing"] == "full"
        assert stats["iterations"] >= 1
        assert stats["refactorizations"] >= 1
        assert stats["fill_ratio"] > 0
        assert {"n_rows", "n_cols", "nnz", "eta_updates", "basis_nnz"} <= set(stats)

    def test_no_per_iteration_refactorization(self):
        # A non-degenerate random sparse LP that the cold two-phase
        # path solves directly with a long pivot run (recovery-free, so
        # the stats reflect the hot path).
        rng = np.random.default_rng(3)
        n, m = 500, 150
        x0 = rng.random(n)
        A = (rng.random((m, n)) < 0.05) * rng.standard_normal((m, n))
        lp = LinearProgram(rng.random(n))
        lp.add_equality_block(sp.csr_matrix(A), A @ x0)
        result = simplex.solve(lp)
        assert result.is_optimal
        stats = result.stats
        assert stats["iterations"] > 2 * simplex.REFRESH
        # The factored hot path refactorizes on the REFRESH cadence
        # (plus phase boundaries), never once per pivot.
        assert stats["refactorizations"] <= stats["iterations"] // 4 + simplex.REFRESH
        assert stats["eta_updates"] > stats["refactorizations"]

    def test_scipy_stats_present(self):
        bundle = example_system.build()
        optimizer = _optimizer(bundle, sparse=True, backend="scipy")
        result = optimizer.minimize_unconstrained(POWER).require_feasible()
        stats = result.lp_result.stats
        assert stats["sparse"] is True
        assert stats["n_cols"] == bundle.system.n_states * bundle.system.n_commands

    def test_sweep_aggregates_lp_stats(self):
        bundle = example_system.build()
        optimizer = _optimizer(bundle, sparse=False)
        solver = ParetoSweepSolver(optimizer)
        floor = min_achievable(optimizer, PENALTY)
        solver.solve([floor * 1.5, floor * 2.0, floor * 3.0])
        assert solver.stats.lp_iterations > 0
        assert solver.stats.lp_refactorizations > 0
        assert "lp_iterations" in solver.stats.as_dict()


def _assert_results_agree(sparse_result, dense_result):
    assert sparse_result.feasible == dense_result.feasible
    if not sparse_result.feasible:
        return
    assert sparse_result.objective_average == pytest.approx(
        dense_result.objective_average, abs=AGREEMENT_TOL
    )
    assert np.allclose(
        sparse_result.policy.matrix,
        dense_result.policy.matrix,
        atol=AGREEMENT_TOL,
    )


class TestFigureEquivalence:
    """Sparse vs dense at 1e-8 on every figure experiment's LP setup."""

    def test_fig6_example_constrained(self):
        bundle = example_system.build()
        for bound in (0.3, 0.5, 0.9):
            _assert_results_agree(
                _optimizer(bundle, sparse=True).minimize_power(
                    penalty_bound=bound
                ),
                _optimizer(bundle, sparse=False).minimize_power(
                    penalty_bound=bound
                ),
            )

    def test_fig6_example_curve(self):
        bundle = example_system.build()
        bounds = [0.3, 0.5, 0.7, 0.9]
        curves = {}
        for sparse in (True, False):
            solver = ParetoSweepSolver(_optimizer(bundle, sparse=sparse))
            curves[sparse] = solver.solve(bounds)
        for ps, pd in zip(curves[True].points, curves[False].points):
            assert ps.feasible == pd.feasible
            if ps.feasible:
                assert ps.objective == pytest.approx(
                    pd.objective, abs=AGREEMENT_TOL
                )

    def test_fig8_disk_constrained(self):
        bundle = disk_drive.build()
        sparse_opt = _optimizer(bundle, sparse=True)
        floor = min_achievable(sparse_opt, PENALTY)
        _assert_results_agree(
            sparse_opt.minimize_power(penalty_bound=floor * 1.5),
            _optimizer(bundle, sparse=False).minimize_power(
                penalty_bound=floor * 1.5
            ),
        )

    def test_fig9a_web_lower_bound_curve(self):
        bundle = web_server.build()
        curves = {}
        for sparse in (True, False):
            optimizer = _optimizer(bundle, sparse=sparse)
            solver = ParetoSweepSolver(
                optimizer,
                objective=POWER,
                constraint="throughput",
                constraint_sense=">=",
            )
            curves[sparse] = solver.solve([0.05, 0.11, 0.17])
        for ps, pd in zip(curves[True].points, curves[False].points):
            assert ps.feasible == pd.feasible
            if ps.feasible:
                assert ps.objective == pytest.approx(
                    pd.objective, abs=AGREEMENT_TOL
                )

    def test_fig9b_cpu_with_action_mask(self):
        bundle = cpu.build()
        for bound in (0.5, 1.0):
            results = {}
            for sparse in (True, False):
                optimizer = PolicyOptimizer(
                    bundle.system,
                    bundle.costs,
                    gamma=bundle.gamma,
                    initial_distribution=bundle.initial_distribution,
                    backend="simplex",
                    action_mask=bundle.action_mask,
                    sparse=sparse,
                )
                results[sparse] = optimizer.minimize_power(penalty_bound=bound)
            _assert_results_agree(results[True], results[False])

    def test_average_cost_sparse_matches_dense(self):
        bundle = example_system.build()
        results = {}
        for sparse in (True, False):
            optimizer = AverageCostOptimizer(
                bundle.system, bundle.costs, backend="simplex", sparse=sparse
            )
            results[sparse] = optimizer.minimize_power(penalty_bound=0.5)
        _assert_results_agree(results[True], results[False])

    def test_scipy_backend_sparse_pass_through(self):
        bundle = disk_drive.build()
        sparse_opt = _optimizer(bundle, sparse=True, backend="scipy")
        dense_opt = _optimizer(bundle, sparse=False, backend="scipy")
        sparse_result = sparse_opt.minimize_power(penalty_bound=0.5)
        dense_result = dense_opt.minimize_power(penalty_bound=0.5)
        _assert_results_agree(sparse_result, dense_result)
        assert sparse_result.lp_result.stats["sparse"] is True


class TestAutoSparseSelection:
    def test_small_system_defaults_dense(self):
        bundle = example_system.build()  # 8 states x 2 commands = 16 vars
        optimizer = _optimizer(bundle, sparse=None)
        assert optimizer.sparse is False

    def test_large_system_defaults_sparse(self):
        bundle = disk_drive.build()  # 66 x 5 = 330 vars
        optimizer = _optimizer(bundle, sparse=None)
        assert optimizer.sparse is True
        lp, _ = optimizer.build_lp(POWER, "min")
        assert lp.is_sparse

    def test_backends_agree_across_representations(self):
        # The sparse simplex's factored path against the interior-point
        # solver, which densifies the same LP at its boundary.
        bundle = disk_drive.build()
        sparse_lp, ipm_lp = (
            _optimizer(bundle, sparse=True, backend=backend)
            .minimize_unconstrained(POWER)
            .lp_result
            for backend in ("simplex", "interior-point")
        )
        assert sparse_lp.is_optimal and ipm_lp.is_optimal
        assert sparse_lp.objective == pytest.approx(
            ipm_lp.objective, rel=1e-6, abs=1e-6
        )


class TestPolicyCacheSparse:
    def test_sparse_lp_content_hit(self):
        from repro.runtime.policy_cache import PolicyCache

        bundle = disk_drive.build()
        cache = PolicyCache()
        optimizer = _optimizer(bundle, sparse=True, backend="scipy")
        a = cache.optimize(optimizer, POWER, upper_bounds={PENALTY: 0.5})
        b = cache.optimize(optimizer, POWER, upper_bounds={PENALTY: 0.5})
        assert a is b
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_sparse_and_dense_hash_separately(self):
        from repro.runtime.policy_cache import _lp_signature

        bundle = disk_drive.build()
        sparse_lp, _ = _optimizer(bundle, sparse=True).build_lp(POWER, "min")
        dense_lp, _ = _optimizer(bundle, sparse=False).build_lp(POWER, "min")
        assert _lp_signature(sparse_lp, "scipy") != _lp_signature(
            dense_lp, "scipy"
        )
        # Same content hashes identically regardless of object identity.
        again, _ = _optimizer(bundle, sparse=True).build_lp(POWER, "min")
        assert _lp_signature(sparse_lp, "scipy") == _lp_signature(again, "scipy")


class TestCrossBackendAgreement:
    @pytest.mark.parametrize("backend", ["scipy", "interior-point"])
    def test_sparse_simplex_vs_other_backends(self, backend):
        bundle = disk_drive.build()
        lp, _ = _optimizer(bundle, sparse=True).build_lp(
            POWER, "min", upper_bounds={PENALTY: 0.5}
        )
        ours = solve_lp(lp, backend="simplex")
        reference = solve_lp(lp, backend=backend)
        assert ours.is_optimal and reference.is_optimal
        assert ours.objective == pytest.approx(
            reference.objective, rel=1e-6, abs=1e-6
        )
