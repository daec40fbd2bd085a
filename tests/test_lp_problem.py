"""Unit tests for :mod:`repro.lp.problem`."""

import numpy as np
import pytest

from repro.lp.problem import LinearProgram
from repro.util.validation import ValidationError


def small_lp() -> LinearProgram:
    lp = LinearProgram([1.0, 2.0, 0.0])
    lp.add_equality([1.0, 1.0, 1.0], 1.0)
    lp.add_inequality([1.0, 0.0, 0.0], 0.75)
    return lp


class TestConstruction:
    def test_counts(self):
        lp = small_lp()
        assert lp.n_variables == 3
        assert lp.n_equalities == 1
        assert lp.n_inequalities == 1

    def test_rejects_empty_objective(self):
        with pytest.raises(ValidationError):
            LinearProgram([])

    def test_rejects_nan_objective(self):
        with pytest.raises(ValidationError):
            LinearProgram([1.0, float("nan")])

    def test_rejects_wrong_row_shape(self):
        lp = LinearProgram([1.0, 2.0])
        with pytest.raises(ValidationError, match="shape"):
            lp.add_equality([1.0], 0.0)

    def test_rejects_nan_rhs(self):
        lp = LinearProgram([1.0])
        with pytest.raises(ValidationError):
            lp.add_inequality([1.0], float("nan"))

    def test_lower_bound_stored_negated(self):
        lp = LinearProgram([1.0, 1.0])
        lp.add_lower_bound_inequality([1.0, 0.0], 2.0)
        assert np.allclose(lp.A_ub, [[-1.0, 0.0]])
        assert np.allclose(lp.b_ub, [-2.0])


class TestMatrices:
    def test_matrix_assembly(self):
        lp = small_lp()
        assert lp.A_eq.shape == (1, 3)
        assert lp.A_ub.shape == (1, 3)
        assert lp.b_eq.tolist() == [1.0]
        assert lp.b_ub.tolist() == [0.75]

    def test_empty_matrices(self):
        lp = LinearProgram([1.0])
        assert lp.A_eq.shape == (0, 1)
        assert lp.A_ub.shape == (0, 1)

    def test_objective_value(self):
        lp = small_lp()
        assert lp.objective_value([1.0, 1.0, 1.0]) == 3.0


class TestFeasibility:
    def test_feasible_point(self):
        lp = small_lp()
        assert lp.is_feasible([0.5, 0.25, 0.25])

    def test_equality_violation(self):
        lp = small_lp()
        res = lp.residuals([0.0, 0.0, 0.0])
        assert res["equality"] == pytest.approx(1.0)
        assert not lp.is_feasible([0.0, 0.0, 0.0])

    def test_inequality_violation(self):
        lp = small_lp()
        res = lp.residuals([1.0, 0.0, 0.0])
        assert res["inequality"] == pytest.approx(0.25)

    def test_bound_violation(self):
        lp = small_lp()
        res = lp.residuals([-0.5, 1.0, 0.5])
        assert res["bound"] == pytest.approx(0.5)


class TestStandardForm:
    def test_slack_variables_added(self):
        std = small_lp().to_standard_form()
        assert std.n_original == 3
        assert std.n_variables == 4  # one slack
        assert std.n_constraints == 2

    def test_slack_makes_inequality_tight(self):
        std = small_lp().to_standard_form()
        x = np.array([0.5, 0.25, 0.25, 0.25])  # slack = 0.75 - 0.5
        assert np.allclose(std.A @ x, std.b)

    def test_objective_extension_is_zero(self):
        std = small_lp().to_standard_form()
        assert std.c[3] == 0.0

    def test_extract_original(self):
        std = small_lp().to_standard_form()
        assert std.extract_original([1.0, 2.0, 3.0, 9.0]).tolist() == [1.0, 2.0, 3.0]

    def test_no_constraints(self):
        std = LinearProgram([1.0, 1.0]).to_standard_form()
        assert std.A.shape == (0, 2)
        assert std.b.shape == (0,)


class TestMutation:
    """Cheap RHS mutation for the sweep engine's shared LP."""

    def test_set_inequality_rhs(self):
        lp = small_lp()
        lp.set_inequality_rhs(0, 0.25)
        assert lp.b_ub[0] == 0.25
        assert lp.A_ub[0, 0] == 1.0  # row untouched

    def test_set_inequality_rhs_validates(self):
        lp = small_lp()
        with pytest.raises(ValidationError, match="out of range"):
            lp.set_inequality_rhs(5, 0.1)
        with pytest.raises(ValidationError, match="finite"):
            lp.set_inequality_rhs(0, float("inf"))

    def test_matrix_cache_reused_and_invalidated(self):
        lp = small_lp()
        first = lp.A_eq
        assert lp.A_eq is first  # cached
        lp.add_equality([0.0, 1.0, 0.0], 0.5)
        assert lp.A_eq.shape == (2, 3)  # cache refreshed
        assert not lp.A_eq.flags.writeable

    def test_rhs_mutation_keeps_matrix_cache(self):
        lp = small_lp()
        cached = lp.A_ub
        lp.set_inequality_rhs(0, 0.1)
        assert lp.A_ub is cached

