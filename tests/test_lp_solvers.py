"""Tests for the three LP backends, individually and against each other.

The from-scratch simplex and interior-point solvers are the library's
PCx stand-ins; scipy's HiGHS is the reference.  Each backend is tested
on hand-solvable instances, on degenerate/infeasible/unbounded corner
cases, and (property-based) on random feasible LPs where all three must
agree.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lp import interior_point, scipy_backend, simplex
from repro.lp.problem import LinearProgram
from repro.lp.result import LPStatus
from repro.lp.solve import available_backends, solve_lp

ALL_BACKENDS = ["scipy", "interior-point", "simplex"]


def assert_backends_agree(lp: LinearProgram, backends) -> dict:
    """Solve ``lp`` on each backend; every pair must agree on the status
    and, when optimal, on the objective within 1e-6 relative (scaled by
    ``1 + |objective|``).  Returns the results by backend."""
    results = {backend: solve_lp(lp, backend=backend) for backend in backends}
    for first, a in results.items():
        for second, b in results.items():
            assert a.status == b.status, (first, second)
            if a.is_optimal:
                scale = 1.0 + abs(a.objective)
                assert abs(a.objective - b.objective) <= 1e-6 * scale, (
                    first,
                    second,
                )
    return results


def solve_with(backend: str, lp: LinearProgram):
    return {
        "scipy": scipy_backend.solve,
        "interior-point": interior_point.solve,
        "simplex": simplex.solve,
    }[backend](lp)


def diet_lp() -> LinearProgram:
    """min x + 2y s.t. x + y >= 1  ->  optimum at (1, 0), value 1."""
    lp = LinearProgram([1.0, 2.0])
    lp.add_lower_bound_inequality([1.0, 1.0], 1.0)
    return lp


def equality_lp() -> LinearProgram:
    """min x + 3y + 2z s.t. x+y+z = 2, x <= 0.5 -> (0.5, 0, 1.5), 3.5."""
    lp = LinearProgram([1.0, 3.0, 2.0])
    lp.add_equality([1.0, 1.0, 1.0], 2.0)
    lp.add_inequality([1.0, 0.0, 0.0], 0.5)
    return lp


def infeasible_lp() -> LinearProgram:
    """x >= 0 with x <= -1 is infeasible."""
    lp = LinearProgram([1.0])
    lp.add_inequality([1.0], -1.0)
    return lp


def unbounded_lp() -> LinearProgram:
    """min -x with only x >= 0: unbounded below."""
    lp = LinearProgram([-1.0])
    lp.add_inequality([-1.0], 0.0)  # -x <= 0, vacuous
    return lp


@pytest.mark.parametrize("backend", ALL_BACKENDS)
class TestBasicInstances:
    def test_diet(self, backend):
        res = solve_with(backend, diet_lp())
        assert res.is_optimal
        assert res.objective == pytest.approx(1.0, abs=1e-7)
        assert np.allclose(res.x, [1.0, 0.0], atol=1e-6)

    def test_equality_mix(self, backend):
        res = solve_with(backend, equality_lp())
        assert res.is_optimal
        assert res.objective == pytest.approx(3.5, abs=1e-6)
        assert np.allclose(res.x, [0.5, 0.0, 1.5], atol=1e-5)

    def test_solution_is_feasible(self, backend):
        lp = equality_lp()
        res = solve_with(backend, lp)
        assert lp.is_feasible(res.x, tol=1e-6)

    def test_infeasible_detected(self, backend):
        res = solve_with(backend, infeasible_lp())
        assert res.status in (LPStatus.INFEASIBLE, LPStatus.NUMERICAL_ERROR)
        assert not res.is_optimal

    def test_no_constraints_zero_optimum(self, backend):
        res = solve_with(backend, LinearProgram([2.0, 3.0]))
        assert res.is_optimal
        assert res.objective == 0.0

    def test_no_constraints_unbounded(self, backend):
        res = solve_with(backend, LinearProgram([-1.0, 1.0]))
        assert res.status is LPStatus.UNBOUNDED

    def test_degenerate_duplicate_rows(self, backend):
        # The same equality twice: redundant but consistent.
        lp = LinearProgram([1.0, 1.0])
        lp.add_equality([1.0, 1.0], 1.0)
        lp.add_equality([1.0, 1.0], 1.0)
        res = solve_with(backend, lp)
        assert res.is_optimal
        assert res.objective == pytest.approx(1.0, abs=1e-7)

    def test_zero_rhs(self, backend):
        lp = LinearProgram([1.0, 1.0])
        lp.add_equality([1.0, -1.0], 0.0)
        res = solve_with(backend, lp)
        assert res.is_optimal
        assert res.objective == pytest.approx(0.0, abs=1e-7)


class TestSimplexSpecifics:
    def test_unbounded_direction(self):
        res = simplex.solve(unbounded_lp())
        assert res.status is LPStatus.UNBOUNDED

    def test_inconsistent_duplicate_rows_infeasible(self):
        lp = LinearProgram([1.0, 1.0])
        lp.add_equality([1.0, 1.0], 1.0)
        lp.add_equality([1.0, 1.0], 2.0)
        res = simplex.solve(lp)
        assert res.status is LPStatus.INFEASIBLE

    def test_iteration_counts_reported(self):
        res = simplex.solve(equality_lp())
        assert res.iterations > 0
        assert res.backend == "simplex"


class TestInteriorPointSpecifics:
    def test_inconsistent_dependent_rows_infeasible(self):
        lp = LinearProgram([1.0, 1.0])
        lp.add_equality([1.0, 1.0], 1.0)
        lp.add_equality([2.0, 2.0], 3.0)  # dependent, inconsistent
        res = interior_point.solve(lp)
        assert res.status is LPStatus.INFEASIBLE

    def test_converges_quickly_on_small_problems(self):
        res = interior_point.solve(equality_lp())
        assert res.is_optimal
        assert res.iterations < 50

    def test_tight_tolerance(self):
        res = interior_point.solve(diet_lp(), tol=1e-11)
        assert res.is_optimal
        assert res.objective == pytest.approx(1.0, abs=1e-8)


class TestDispatch:
    def test_available_backends(self):
        assert set(available_backends()) == set(ALL_BACKENDS)

    def test_unknown_backend_rejected(self):
        from repro.util.validation import ValidationError

        with pytest.raises(ValidationError, match="unknown LP backend"):
            solve_lp(diet_lp(), backend="nope")

    def test_scipy_and_interior_point_agree(self):
        results = assert_backends_agree(diet_lp(), ["scipy", "interior-point"])
        assert all(res.is_optimal for res in results.values())

    def test_all_backend_pairs_agree(self):
        results = assert_backends_agree(equality_lp(), ALL_BACKENDS)
        assert all(res.is_optimal for res in results.values())


def random_feasible_lp(
    rng: np.random.Generator, n: int, m_eq: int, m_ub: int
) -> LinearProgram:
    """A random LP guaranteed feasible by construction.

    A random non-negative point ``x0`` is drawn first; equalities are
    set to ``A x0`` and inequalities to ``A x0 + slack`` so that ``x0``
    is strictly feasible.  Objectives are non-negative, so the LP is
    bounded below.
    """
    lp = LinearProgram(rng.random(n))
    x0 = rng.random(n)
    for _ in range(m_eq):
        row = rng.standard_normal(n)
        lp.add_equality(row, float(row @ x0))
    for _ in range(m_ub):
        row = rng.standard_normal(n)
        lp.add_inequality(row, float(row @ x0) + float(rng.random()) + 0.1)
    return lp


class TestCrossBackendProperty:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=2, max_value=8),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=100_000),
    )
    def test_backends_agree_on_random_feasible_lps(self, n, m_eq, m_ub, seed):
        rng = np.random.default_rng(seed)
        lp = random_feasible_lp(rng, n, m_eq, m_ub)
        results = {name: solve_with(name, lp) for name in ALL_BACKENDS}
        reference = results["scipy"]
        assert reference.is_optimal
        for name, res in results.items():
            assert res.is_optimal, f"{name} failed: {res.status}"
            assert res.objective == pytest.approx(
                reference.objective, rel=1e-5, abs=1e-6
            ), name
            assert lp.is_feasible(res.x, tol=1e-5), name


class TestWarmStart:
    """Simplex warm-start hooks (and pass-through on other backends)."""

    @staticmethod
    def _bounded_lp(rhs: float) -> LinearProgram:
        """min -x - y s.t. x + y <= rhs, x <= 1 -> objective -rhs for rhs<=2."""
        lp = LinearProgram([-1.0, -1.0])
        lp.add_equality([1.0, 0.0], 1.0)
        lp.add_inequality([1.0, 1.0], rhs)
        return lp

    def test_optimal_solve_reports_basis(self):
        result = simplex.solve(self._bounded_lp(1.5))
        assert result.is_optimal
        assert result.warm_start is not None
        assert isinstance(result.warm_start, simplex.SimplexBasis)

    def test_warm_resolve_matches_cold_after_rhs_change(self):
        lp = self._bounded_lp(1.5)
        first = simplex.solve(lp)
        lp.set_inequality_rhs(0, 1.8)
        warm = simplex.solve(lp, warm_start=first.warm_start)
        cold = simplex.solve(lp)
        assert warm.is_optimal and cold.is_optimal
        assert warm.objective == pytest.approx(cold.objective, abs=1e-10)
        assert np.allclose(warm.x, cold.x, atol=1e-9)

    def test_warm_start_detects_infeasibility(self):
        lp = self._bounded_lp(1.5)
        first = simplex.solve(lp)
        lp.set_inequality_rhs(0, 0.5)  # x = 1 forces x + y >= 1 > 0.5
        warm = simplex.solve(lp, warm_start=first.warm_start)
        assert warm.status is LPStatus.INFEASIBLE

    def test_invalid_basis_falls_back_to_cold(self):
        lp = self._bounded_lp(1.5)
        bogus = simplex.SimplexBasis(basis=(99, 98), rows=(0, 1))
        result = simplex.solve(lp, warm_start=bogus)
        assert result.is_optimal
        assert result.objective == pytest.approx(-1.5, abs=1e-9)

    def test_solve_lp_passes_warm_start_through(self):
        lp = self._bounded_lp(1.5)
        first = solve_lp(lp, backend="simplex")
        lp.set_inequality_rhs(0, 1.7)
        warm = solve_lp(lp, backend="simplex", warm_start=first.warm_start)
        assert warm.is_optimal
        assert warm.objective == pytest.approx(-1.7, abs=1e-9)

    @pytest.mark.parametrize("backend", ["scipy", "interior-point"])
    def test_other_backends_accept_and_ignore(self, backend):
        lp = self._bounded_lp(1.5)
        first = solve_lp(lp, backend="simplex")
        result = solve_lp(lp, backend=backend, warm_start=first.warm_start)
        assert result.is_optimal
        assert result.objective == pytest.approx(-1.5, abs=1e-6)

    def test_supports_warm_start_capability_map(self):
        from repro.lp.solve import supports_warm_start

        assert supports_warm_start("simplex")
        assert not supports_warm_start("scipy")
        assert not supports_warm_start("interior-point")

    def test_warm_chain_along_a_sweep(self):
        lp = self._bounded_lp(1.2)
        result = simplex.solve(lp)
        for rhs in (1.4, 1.6, 1.8, 2.0):
            lp.set_inequality_rhs(0, rhs)
            result = simplex.solve(lp, warm_start=result.warm_start)
            assert result.is_optimal
            assert result.objective == pytest.approx(-min(rhs, 2.0), abs=1e-9)
            assert result.warm_start is not None
