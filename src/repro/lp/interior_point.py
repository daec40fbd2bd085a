"""Mehrotra predictor-corrector primal-dual interior-point LP solver.

This is the library's stand-in for PCx, the interior-point solver the
paper's tool was built around.  It implements the classic Mehrotra
predictor–corrector method (see S. J. Wright, *Primal-Dual Interior-
Point Methods*, SIAM 1997, Ch. 10) on dense standard-form problems:

    min c.x   s.t.   A x = b,  x >= 0

with duals ``(y, s)``.  Per iteration one normal-equations matrix
``M = A diag(x/s) A^T`` is factorized (Cholesky, with diagonal
regularization fallback) and reused for the predictor and corrector
solves.  Linearly dependent rows of ``A`` are removed up front by a
pivoted-QR rank test so ``M`` stays positive definite.

Before iterating, the constraint system is equilibrated (one pass of
row then column max-norm scaling, as PCx's presolve does): the policy
LPs mix O(1) balance-equation rows with budget rows scaled by the
horizon ``1/(1-gamma)`` (1e5 and beyond), and without scaling the
Newton steps on such systems overflow.

The policy-optimization LPs are a few hundred variables at most, so a
dense implementation converges in 10–30 iterations in well under a
millisecond-to-second budget.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from repro.lp.problem import LinearProgram, StandardFormLP
from repro.lp.result import LPResult, LPStatus

#: Relative tolerance on primal/dual residuals and the duality gap.
DEFAULT_TOL = 1e-8
#: Accept the best iterate seen when progress stalls, provided its
#: worst relative error is below this (badly conditioned instances
#: cannot reach DEFAULT_TOL in double precision; the LP optimum is
#: still accurate to ~6 digits, the tolerance the backend-agreement
#: tests compare objectives at).
FALLBACK_TOL = 1e-6
#: Stop when the merit has not improved for this many iterations.
STALL_LIMIT = 10
#: Iteration ceiling; Mehrotra needs ~10-40 iterations on these LPs.
DEFAULT_MAX_ITERATIONS = 200
#: Fraction-to-boundary step damping.
STEP_DAMPING = 0.9995
#: Divergence guard: iterates beyond this norm indicate an unbounded or
#: infeasible problem that the method cannot certify.
BLOWUP_LIMIT = 1e14


def _independent_rows(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """Select a maximal independent row subset of ``(A, b)``.

    Returns ``(A_kept, b_kept, consistent)`` where ``consistent`` is
    False when a dropped (dependent) row has a right-hand side that is
    inconsistent with the kept rows — a certificate of infeasibility.
    """
    m = A.shape[0]
    if m == 0:
        return A, b, True
    # Rank-revealing QR of A^T: pivot columns of A^T = independent rows of A.
    q, r, pivots = scipy.linalg.qr(A.T, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r)) if r.size else np.zeros(0)
    if diag.size == 0 or diag[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(diag > diag[0] * max(A.shape) * np.finfo(float).eps))
    keep = np.sort(pivots[:rank])
    A_kept = A[keep]
    b_kept = b[keep]
    if rank == m:
        return A_kept, b_kept, True
    # Consistency: dropped rows must be linear combinations with matching rhs.
    dropped = np.sort(pivots[rank:])
    if A_kept.shape[0] == 0:
        consistent = bool(np.all(np.abs(b[dropped]) <= 1e-9))
        return A_kept, b_kept, consistent
    coeffs, *_ = np.linalg.lstsq(A_kept.T, A[dropped].T, rcond=None)
    reconstructed_rhs = coeffs.T @ b_kept
    scale = 1.0 + np.abs(b[dropped])
    consistent = bool(np.all(np.abs(reconstructed_rhs - b[dropped]) <= 1e-7 * scale))
    return A_kept, b_kept, consistent


def _equilibrate(A: np.ndarray, b: np.ndarray, c: np.ndarray):
    """One pass of row/column max-norm scaling.

    Returns ``(A', b', c', row_scale, col_scale)`` with
    ``A' = diag(1/row) A diag(1/col)``; a solution ``x'`` of the scaled
    problem maps back as ``x = x' / col`` and duals as ``y = y' / row``.
    """
    row = np.max(np.abs(A), axis=1)
    row[row == 0.0] = 1.0
    A1 = A / row[:, None]
    col = np.max(np.abs(A1), axis=0)
    col[col == 0.0] = 1.0
    A2 = A1 / col[None, :]
    return A2, b / row, c / col, row, col


def _starting_point(A: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Mehrotra's heuristic starting point (Wright, Ch. 10, eq. 10.9)."""
    m, n = A.shape
    AAT = A @ A.T + 1e-12 * np.eye(m)
    x_tilde = A.T @ np.linalg.solve(AAT, b)
    y_tilde = np.linalg.solve(AAT, A @ c)
    s_tilde = c - A.T @ y_tilde

    dx = max(-1.5 * x_tilde.min(initial=0.0), 0.0)
    ds = max(-1.5 * s_tilde.min(initial=0.0), 0.0)
    x_hat = x_tilde + dx
    s_hat = s_tilde + ds
    # Guard against the all-zero corner (b = 0 or c in row space of A).
    if x_hat.max(initial=0.0) <= 0.0:
        x_hat = np.ones(n)
    if s_hat.max(initial=0.0) <= 0.0:
        s_hat = np.ones(n)
    gap = float(x_hat @ s_hat)
    dx_hat = 0.5 * gap / max(s_hat.sum(), 1e-12)
    ds_hat = 0.5 * gap / max(x_hat.sum(), 1e-12)
    return x_hat + dx_hat, y_tilde, s_hat + ds_hat


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest alpha in [0, 1] with ``v + alpha dv >= 0``."""
    negative = dv < 0
    if not np.any(negative):
        return 1.0
    return float(min(1.0, np.min(-v[negative] / dv[negative])))


def _solve_normal_equations(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``M z = rhs`` with Cholesky, regularizing on breakdown."""
    jitter = 0.0
    identity = np.eye(M.shape[0])
    for _ in range(6):
        try:
            cho = scipy.linalg.cho_factor(M + jitter * identity, lower=True)
            return scipy.linalg.cho_solve(cho, rhs)
        except np.linalg.LinAlgError:
            jitter = 1e-12 if jitter == 0.0 else jitter * 100.0
    # Last resort: least squares (keeps the iteration alive).
    return np.linalg.lstsq(M, rhs, rcond=None)[0]


def solve_standard_form(
    std: StandardFormLP,
    tol: float = DEFAULT_TOL,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> LPResult:
    """Solve a standard-form LP with Mehrotra predictor-corrector.

    Parameters
    ----------
    std:
        Problem in ``min c.x, A x = b, x >= 0`` form.
    tol:
        Relative convergence tolerance on residuals and duality gap.
    max_iterations:
        Iteration ceiling before giving up with
        :attr:`LPStatus.ITERATION_LIMIT`.
    """
    A_full, b_full, c = std.A.copy(), std.b.copy(), std.c.copy()
    n = c.size

    if A_full.shape[0] == 0:
        if np.any(c < -tol):
            return LPResult(status=LPStatus.UNBOUNDED, backend="interior-point")
        x = np.zeros(n)
        return LPResult(
            status=LPStatus.OPTIMAL,
            x=std.extract_original(x),
            objective=0.0,
            backend="interior-point",
        )

    A, b, consistent = _independent_rows(A_full, b_full)
    if not consistent:
        return LPResult(
            status=LPStatus.INFEASIBLE,
            backend="interior-point",
            message="dependent rows with inconsistent right-hand sides",
        )
    m = A.shape[0]
    if m == 0:
        # All rows were 0 = 0; fall back to the unconstrained case.
        if np.any(c < -tol):
            return LPResult(status=LPStatus.UNBOUNDED, backend="interior-point")
        x = np.zeros(n)
        return LPResult(
            status=LPStatus.OPTIMAL,
            x=std.extract_original(x),
            objective=0.0,
            backend="interior-point",
        )

    original_c = c
    A, b, c, _row_scale, col_scale = _equilibrate(A, b, c)

    x, y, s = _starting_point(A, b, c)
    norm_b = 1.0 + np.linalg.norm(b)
    norm_c = 1.0 + np.linalg.norm(c)

    def optimal_result(candidate: np.ndarray, iteration: int) -> LPResult:
        unscaled = np.clip(candidate, 0.0, None) / col_scale
        return LPResult(
            status=LPStatus.OPTIMAL,
            x=std.extract_original(unscaled),
            objective=float(original_c @ unscaled),
            iterations=iteration,
            backend="interior-point",
        )

    best_merit = np.inf
    best_x = x.copy()
    stalled = 0
    for iteration in range(1, max_iterations + 1):
        r_b = A @ x - b
        r_c = A.T @ y + s - c
        mu = float(x @ s) / n
        primal_obj = float(c @ x)
        dual_obj = float(b @ y)
        gap = abs(primal_obj - dual_obj) / (1.0 + abs(primal_obj))
        merit = max(
            np.linalg.norm(r_b) / norm_b, np.linalg.norm(r_c) / norm_c, gap
        )

        if merit <= tol:
            return optimal_result(x, iteration)
        if merit < best_merit * (1.0 - 1e-3):
            best_merit = merit
            best_x = x.copy()
            stalled = 0
        else:
            stalled += 1
        # Badly conditioned instances hit a double-precision floor above
        # ``tol``; once progress stalls, the best iterate is the answer
        # (or a genuine failure if it never got close).
        if stalled >= STALL_LIMIT:
            if best_merit <= FALLBACK_TOL:
                return optimal_result(best_x, iteration)
            return LPResult(
                status=LPStatus.NUMERICAL_ERROR,
                backend="interior-point",
                iterations=iteration,
                message=f"stalled with merit {best_merit:.3e}",
            )
        if np.linalg.norm(x) > BLOWUP_LIMIT or np.linalg.norm(y) > BLOWUP_LIMIT:
            if best_merit <= FALLBACK_TOL:
                return optimal_result(best_x, iteration)
            return LPResult(
                status=LPStatus.NUMERICAL_ERROR,
                backend="interior-point",
                iterations=iteration,
                message="iterates diverged (problem likely infeasible or unbounded)",
            )

        d = x / s
        M = (A * d) @ A.T

        # --- predictor (affine scaling) direction ---------------------
        rhs_xs = -x * s
        rhs_y = -r_b - A @ (rhs_xs / s) - (A * d) @ r_c
        dy_aff = _solve_normal_equations(M, rhs_y)
        ds_aff = -r_c - A.T @ dy_aff
        dx_aff = (rhs_xs - x * ds_aff) / s

        alpha_p_aff = _max_step(x, dx_aff)
        alpha_d_aff = _max_step(s, ds_aff)
        mu_aff = float((x + alpha_p_aff * dx_aff) @ (s + alpha_d_aff * ds_aff)) / n
        sigma = (mu_aff / mu) ** 3 if mu > 0 else 0.0
        sigma = float(min(max(sigma, 0.0), 1.0))

        # --- corrector direction (reuses the factorization pattern) ---
        rhs_xs = -x * s + sigma * mu - dx_aff * ds_aff
        rhs_y = -r_b - A @ (rhs_xs / s) - (A * d) @ r_c
        dy = _solve_normal_equations(M, rhs_y)
        ds = -r_c - A.T @ dy
        dx = (rhs_xs - x * ds) / s

        alpha_p = STEP_DAMPING * _max_step(x, dx)
        alpha_d = STEP_DAMPING * _max_step(s, ds)
        x = x + alpha_p * dx
        y = y + alpha_d * dy
        s = s + alpha_d * ds
        # Keep strictly interior despite floating-point cancellation.
        x = np.maximum(x, 1e-300)
        s = np.maximum(s, 1e-300)

    return LPResult(
        status=LPStatus.ITERATION_LIMIT,
        backend="interior-point",
        iterations=max_iterations,
        message="no convergence within the iteration budget",
    )


def solve(
    problem: LinearProgram,
    tol: float = DEFAULT_TOL,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    warm_start: object | None = None,
) -> LPResult:
    """Solve a :class:`LinearProgram` with the interior-point method.

    ``warm_start`` is accepted for interface uniformity and ignored —
    warm-starting interior-point methods from a vertex is notoriously
    counterproductive (the iterate starts on the boundary of the
    central path's neighbourhood).
    """
    # The Mehrotra implementation is dense (Cholesky on the normal
    # equations); sparse problems are densified at the boundary.
    return solve_standard_form(
        problem.to_standard_form(sparse=False), tol, max_iterations
    )
