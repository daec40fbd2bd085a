"""Backend dispatch for LP solves.

:func:`solve_lp` is the single entry point the optimizer uses.  The
``backend`` argument selects between the production scipy/HiGHS solver
and the two from-scratch implementations; a solve runs on that backend
alone, so its result is a function of the LP and the backend (plus the
``warm_start`` state on warm-capable backends).  The test suite checks
the backends against each other by solving with each.
"""

from __future__ import annotations

from repro.lp import interior_point, scipy_backend, simplex
from repro.lp.problem import LinearProgram
from repro.lp.result import LPResult
from repro.util.validation import ValidationError

#: Backend name -> callable(problem, warm_start=None) -> LPResult.
_BACKENDS = {
    "scipy": scipy_backend.solve,
    "interior-point": interior_point.solve,
    "simplex": simplex.solve,
}

#: Backends whose ``warm_start`` argument actually changes the solve
#: path (the others accept and ignore it — documented pass-through).
_WARM_CAPABLE = frozenset({"simplex"})


def available_backends() -> tuple[str, ...]:
    """Names accepted by :func:`solve_lp`'s ``backend`` argument."""
    return tuple(_BACKENDS)


def supports_warm_start(backend: str) -> bool:
    """True when ``backend`` can exploit a ``warm_start`` restart state
    (rather than merely accepting and ignoring it)."""
    return backend in _WARM_CAPABLE


def solve_lp(
    problem: LinearProgram,
    backend: str = "scipy",
    warm_start: object | None = None,
) -> LPResult:
    """Solve ``problem`` with the selected backend.

    Parameters
    ----------
    problem:
        The LP to solve.
    backend:
        One of :func:`available_backends` (default ``"scipy"``).
    warm_start:
        Restart state from a previous solve's ``LPResult.warm_start``
        (same constraint structure, RHS changes only).  Exploited by
        warm-capable backends (:func:`supports_warm_start`), accepted
        and ignored by the rest.

    Sparse problems (:attr:`LinearProgram.is_sparse`) stay sparse on
    the simplex and scipy backends; solve accounting, when the backend
    keeps any, is returned in ``LPResult.stats``.
    """
    if backend not in _BACKENDS:
        raise ValidationError(
            f"unknown LP backend {backend!r}; available: {sorted(_BACKENDS)}"
        )
    return _BACKENDS[backend](problem, warm_start=warm_start)
