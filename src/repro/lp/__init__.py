"""Linear programming substrate.

The paper's policy-optimization tool is built around PCx, an interior
point LP solver.  This package provides the equivalent layer:

* :class:`~repro.lp.problem.LinearProgram` — an LP container
  ``min c.x  s.t.  A_eq x = b_eq, A_ub x <= b_ub, x >= 0`` holding the
  constraint blocks sparse (CSR) or dense, with conversion to standard
  equality form in either representation;
* :mod:`~repro.lp.interior_point` — a from-scratch Mehrotra
  predictor–corrector primal–dual interior-point solver (the PCx
  stand-in; dense — sparse problems densify at its boundary);
* :mod:`~repro.lp.simplex` — a from-scratch two-phase revised simplex
  over a factored basis (LU + eta updates, sparse or dense) with
  Bland's anti-cycling rule and dual-simplex warm restarts;
* :mod:`~repro.lp.scipy_backend` — scipy's HiGHS, the default
  production backend (CSR passed straight through on sparse problems);
* :func:`~repro.lp.solve.solve_lp` — the single entry point used by the
  optimizer: one solve on the selected backend.

All three backends are interchangeable on the policy-optimization LPs
and are compared against each other in the test suite; the sparse
simplex and HiGHS paths scale to deep-queue systems with thousands of
states.
"""

from repro.lp.problem import LinearProgram, StandardFormLP
from repro.lp.result import LPResult, LPStatus
from repro.lp.simplex import SimplexBasis
from repro.lp.solve import available_backends, solve_lp, supports_warm_start

__all__ = [
    "LinearProgram",
    "StandardFormLP",
    "LPResult",
    "LPStatus",
    "SimplexBasis",
    "solve_lp",
    "available_backends",
    "supports_warm_start",
]
