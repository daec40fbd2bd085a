"""scipy (HiGHS) backend for linear programs.

The default production backend: HiGHS is an exact, mature dual-simplex /
interior-point code, used here both as the everyday solver and as the
reference the from-scratch backends are compared against in tests.
Sparse problems (:attr:`LinearProgram.is_sparse`) are handed to
``linprog`` as CSR matrices without densifying — HiGHS consumes them
natively, which is what keeps the deep-queue policy LPs tractable.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from repro.lp.problem import LinearProgram
from repro.lp.result import LPResult, LPStatus

_STATUS_MAP = {
    0: LPStatus.OPTIMAL,
    1: LPStatus.ITERATION_LIMIT,
    2: LPStatus.INFEASIBLE,
    3: LPStatus.UNBOUNDED,
    4: LPStatus.NUMERICAL_ERROR,
}


def solve(problem: LinearProgram, warm_start: object | None = None) -> LPResult:
    """Solve a :class:`LinearProgram` with scipy's HiGHS.

    ``warm_start`` is accepted for interface uniformity with the
    simplex backend and ignored: scipy's ``linprog`` wrapper does not
    expose HiGHS basis restarts, and HiGHS's own presolve + dual
    simplex make cold solves cheap at this problem size.
    """
    sparse = problem.is_sparse
    if sparse:
        A_eq = problem.A_eq_sparse
        A_ub = problem.A_ub  # bound rows are few and dense by nature
    else:
        A_eq = problem.A_eq
        A_ub = problem.A_ub
    b_eq = problem.b_eq
    b_ub = problem.b_ub
    res = linprog(
        c=problem.c,
        A_eq=A_eq if b_eq.size else None,
        b_eq=b_eq if b_eq.size else None,
        A_ub=A_ub if b_ub.size else None,
        b_ub=b_ub if b_ub.size else None,
        bounds=(0, None),
        method="highs",
    )
    status = _STATUS_MAP.get(res.status, LPStatus.NUMERICAL_ERROR)
    x = np.asarray(res.x, dtype=float) if res.x is not None else None
    dual_eq = None
    dual_ub = None
    if res.status == 0:
        # HiGHS exposes duals through the marginals attributes.
        eqlin = getattr(res, "eqlin", None)
        ineqlin = getattr(res, "ineqlin", None)
        if eqlin is not None and getattr(eqlin, "marginals", None) is not None:
            dual_eq = np.asarray(eqlin.marginals, dtype=float)
        if ineqlin is not None and getattr(ineqlin, "marginals", None) is not None:
            dual_ub = np.asarray(ineqlin.marginals, dtype=float)
    iterations = int(getattr(res, "nit", 0) or 0)
    return LPResult(
        status=status,
        x=np.clip(x, 0.0, None) if (x is not None and status.is_optimal) else None,
        objective=float(res.fun) if status.is_optimal else None,
        iterations=iterations,
        backend="scipy-highs",
        dual_eq=dual_eq,
        dual_ub=dual_ub,
        message=str(res.message),
        stats={
            "sparse": bool(sparse),
            "n_rows": int(b_eq.size + b_ub.size),
            "n_cols": int(problem.n_variables),
            "iterations": iterations,
            # nnz is O(1) off the CSR header; on the dense path counting
            # it would rescan the full matrix every solve of a sweep.
            **({"nnz": int(A_eq.nnz)} if sparse else {}),
        },
    )
