"""Linear program container with sparse (CSR) and dense representations.

The policy-optimization LPs (paper Appendix A, LP2/LP3/LP4) have one
unknown per (state, command) pair, and the balance-equation block that
dominates them is inherently sparse: column ``x[s, a]`` only touches
the states reachable from ``s`` in one slice.  This layer therefore
supports two interchangeable representations:

* a **dense fallback** (row-by-row :meth:`LinearProgram.add_equality`),
  the original clarity-first path, still the default for tiny systems;
* a **first-class sparse path** (:meth:`LinearProgram.add_equality_block`
  with a ``scipy.sparse`` matrix), which flows through standard-form
  conversion (:meth:`to_standard_form`), the revised simplex's factored
  basis, and scipy's HiGHS front end without ever densifying.

Dense accessors (:attr:`A_eq`, :attr:`A_ub`) remain available on sparse
problems for backends and tests that want arrays — they densify on
demand and cache the result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.util.validation import ValidationError


@dataclass(frozen=True)
class StandardFormLP:
    """An LP in standard equality form: ``min c.x  s.t.  A x = b, x >= 0``.

    Attributes
    ----------
    c, A, b:
        Objective vector, constraint matrix and right-hand side.  ``A``
        is either a dense ``ndarray`` or a ``scipy.sparse`` CSR matrix;
        consumers dispatch on :attr:`is_sparse`.
    n_original:
        Number of leading variables that correspond to the original
        problem (the remainder are slack variables).
    """

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    n_original: int

    @property
    def is_sparse(self) -> bool:
        """True when ``A`` is stored as a ``scipy.sparse`` matrix."""
        return sp.issparse(self.A)

    @property
    def n_variables(self) -> int:
        """Total variables including slacks."""
        return self.c.size

    @property
    def n_constraints(self) -> int:
        """Number of equality rows."""
        return self.b.size

    def extract_original(self, x: np.ndarray) -> np.ndarray:
        """Project a standard-form solution back onto original variables."""
        return np.asarray(x, dtype=float)[: self.n_original].copy()


class LinearProgram:
    """``min c.x  s.t.  A_eq x = b_eq, A_ub x <= b_ub, x >= 0``.

    All variables are implicitly non-negative — exactly the form of the
    state-action-frequency LPs.  Constraints may be added incrementally,
    which is how the optimizer layers the balance equations, the power
    budget and the request-loss budget (paper LP3 and the loss extension
    of Appendix A).  The balance block can be supplied as one sparse
    matrix (:meth:`add_equality_block`), in which case the whole problem
    stays sparse end to end (:attr:`is_sparse`).

    The container is sweep-friendly: the stacked constraint matrices are
    cached between solves and an inequality row's right-hand side can be
    changed in place (:meth:`set_inequality_rhs`) — so a Pareto sweep
    assembles the balance equations exactly once.

    Parameters
    ----------
    objective:
        Coefficient vector ``c``.

    Examples
    --------
    >>> lp = LinearProgram([1.0, 2.0])
    >>> lp.add_equality([1.0, 1.0], 1.0)
    >>> lp.add_inequality([1.0, 0.0], 0.75)
    >>> lp.n_variables
    2
    >>> lp.set_inequality_rhs(0, 0.5)
    >>> float(lp.b_ub[0])
    0.5
    >>> import scipy.sparse as sp
    >>> slp = LinearProgram([1.0, 2.0])
    >>> slp.add_equality_block(sp.eye(2, format="csr"), [0.25, 0.75])
    >>> slp.is_sparse, slp.n_equalities
    (True, 2)
    """

    def __init__(self, objective):
        c = np.asarray(objective, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValidationError(f"objective must be a non-empty vector, got shape {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValidationError("objective contains non-finite entries")
        self._c = c
        # Equality constraints live in *blocks*: each entry is a 2-D
        # dense array or a CSR matrix, paired with its RHS vector.  The
        # row-by-row API appends one-row dense blocks.
        self._eq_blocks: list[tuple[object, np.ndarray]] = []
        self._n_eq = 0
        self._ub_rows: list[np.ndarray] = []
        self._ub_rhs: list[float] = []
        self._A_eq_cache: np.ndarray | None = None
        self._A_eq_sparse_cache: sp.csr_matrix | None = None
        self._A_ub_cache: np.ndarray | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _check_row(self, row) -> np.ndarray:
        arr = np.asarray(row, dtype=float)
        if arr.shape != (self._c.size,):
            raise ValidationError(
                f"constraint row has shape {arr.shape}, expected ({self._c.size},)"
            )
        if not np.all(np.isfinite(arr)):
            raise ValidationError("constraint row contains non-finite entries")
        return arr

    @staticmethod
    def _check_rhs(rhs, kind: str) -> float:
        rhs = float(rhs)
        if not np.isfinite(rhs):
            raise ValidationError(f"{kind} rhs must be finite, got {rhs!r}")
        return rhs

    def _invalidate_eq(self) -> None:
        self._A_eq_cache = None
        self._A_eq_sparse_cache = None

    def add_equality(self, row, rhs: float) -> None:
        """Append the constraint ``row . x == rhs``."""
        arr = self._check_row(row).reshape(1, -1)
        rhs_arr = np.array([self._check_rhs(rhs, "equality")])
        self._eq_blocks.append((arr, rhs_arr))
        self._n_eq += 1
        self._invalidate_eq()

    def add_equality_block(self, matrix, rhs) -> None:
        """Append a block of equality constraints ``matrix @ x == rhs``.

        ``matrix`` may be a ``scipy.sparse`` matrix (kept sparse, making
        the whole problem sparse) or any 2-D dense array-like.  This is
        how the optimizers hand over the balance-equation block in one
        piece instead of row by row.
        """
        rhs_arr = np.asarray(rhs, dtype=float).reshape(-1)
        if not np.all(np.isfinite(rhs_arr)):
            raise ValidationError("equality rhs contains non-finite entries")
        if sp.issparse(matrix):
            block = matrix.tocsr()
            if block.shape[1] != self._c.size:
                raise ValidationError(
                    f"equality block has {block.shape[1]} columns, "
                    f"expected {self._c.size}"
                )
            if block.nnz and not np.all(np.isfinite(block.data)):
                raise ValidationError("equality block contains non-finite entries")
        else:
            block = np.asarray(matrix, dtype=float)
            if block.ndim != 2 or block.shape[1] != self._c.size:
                raise ValidationError(
                    f"equality block must be 2-D with {self._c.size} columns, "
                    f"got shape {block.shape}"
                )
            if not np.all(np.isfinite(block)):
                raise ValidationError("equality block contains non-finite entries")
        if block.shape[0] != rhs_arr.size:
            raise ValidationError(
                f"equality block has {block.shape[0]} rows but rhs has "
                f"{rhs_arr.size} entries"
            )
        self._eq_blocks.append((block, rhs_arr))
        self._n_eq += int(block.shape[0])
        self._invalidate_eq()

    def add_inequality(self, row, rhs: float) -> None:
        """Append the constraint ``row . x <= rhs``."""
        self._ub_rows.append(self._check_row(row))
        self._ub_rhs.append(self._check_rhs(rhs, "inequality"))
        self._A_ub_cache = None

    def add_lower_bound_inequality(self, row, rhs: float) -> None:
        """Append ``row . x >= rhs`` (stored as ``-row . x <= -rhs``)."""
        self.add_inequality(-self._check_row(row), -float(rhs))

    # ------------------------------------------------------------------
    # cheap mutation (the Pareto sweep hot path)
    # ------------------------------------------------------------------
    def set_inequality_rhs(self, index: int, rhs: float) -> None:
        """Replace the right-hand side of inequality ``index`` in place.

        The constraint matrix is untouched, so any cached assembly (and
        any warm-start state keyed on the matrix structure) stays valid.
        This is the sweep engine's per-bound mutation.
        """
        index = int(index)
        if not -len(self._ub_rows) <= index < len(self._ub_rows):
            raise ValidationError(
                f"inequality index {index} out of range "
                f"(have {len(self._ub_rows)} rows)"
            )
        self._ub_rhs[index] = self._check_rhs(rhs, "inequality")

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def n_variables(self) -> int:
        """Number of decision variables."""
        return self._c.size

    @property
    def n_equalities(self) -> int:
        """Number of equality constraints added so far."""
        return self._n_eq

    @property
    def n_inequalities(self) -> int:
        """Number of inequality constraints added so far."""
        return len(self._ub_rows)

    @property
    def is_sparse(self) -> bool:
        """True when any equality block is stored sparse.

        Sparse problems flow through standard-form conversion, the
        simplex basis factorization and the scipy front end without
        densifying; dense accessors still work (and densify on demand).
        """
        return any(sp.issparse(block) for block, _ in self._eq_blocks)

    @property
    def c(self) -> np.ndarray:
        """Objective vector (copy)."""
        return self._c.copy()

    @property
    def A_eq(self) -> np.ndarray:
        """Equality matrix as a dense array (cached, read-only).

        On sparse problems this densifies — prefer :attr:`A_eq_sparse`
        there.  Cached so repeated solves over the same constraint
        structure — a Pareto sweep — assemble it once.
        """
        if self._A_eq_cache is None:
            if not self._eq_blocks:
                stacked = np.zeros((0, self._c.size))
            else:
                stacked = np.vstack(
                    [
                        block.toarray() if sp.issparse(block) else block
                        for block, _ in self._eq_blocks
                    ]
                )
            stacked.flags.writeable = False
            self._A_eq_cache = stacked
        return self._A_eq_cache

    @property
    def A_eq_sparse(self) -> sp.csr_matrix:
        """Equality matrix as CSR (cached).

        Defined for every problem; dense blocks are converted.  This is
        the representation the sparse simplex and the scipy (HiGHS)
        backend consume directly.
        """
        if self._A_eq_sparse_cache is None:
            if not self._eq_blocks:
                stacked = sp.csr_matrix((0, self._c.size))
            else:
                stacked = sp.vstack(
                    [sp.csr_matrix(block) for block, _ in self._eq_blocks],
                    format="csr",
                )
            self._A_eq_sparse_cache = stacked
        return self._A_eq_sparse_cache

    @property
    def b_eq(self) -> np.ndarray:
        """Equality right-hand side."""
        if not self._eq_blocks:
            return np.zeros(0)
        return np.concatenate([rhs for _, rhs in self._eq_blocks])

    @property
    def A_ub(self) -> np.ndarray:
        """Inequality matrix, shape ``(n_inequalities, n_variables)``.

        Cached and read-only, like :attr:`A_eq`; RHS-only mutation via
        :meth:`set_inequality_rhs` keeps the cache valid.
        """
        if self._A_ub_cache is None:
            if not self._ub_rows:
                stacked = np.zeros((0, self._c.size))
            else:
                stacked = np.vstack(self._ub_rows)
            stacked.flags.writeable = False
            self._A_ub_cache = stacked
        return self._A_ub_cache

    @property
    def b_ub(self) -> np.ndarray:
        """Inequality right-hand side."""
        return np.asarray(self._ub_rhs, dtype=float)

    def objective_value(self, x) -> float:
        """Evaluate ``c . x``."""
        return float(self._c @ np.asarray(x, dtype=float))

    # ------------------------------------------------------------------
    # feasibility checking
    # ------------------------------------------------------------------
    def residuals(self, x) -> dict[str, float]:
        """Worst-case constraint violations of a candidate point.

        Returns a dict with keys ``equality`` (max ``|A_eq x - b_eq|``),
        ``inequality`` (max positive part of ``A_ub x - b_ub``) and
        ``bound`` (max positive part of ``-x``).
        """
        x = np.asarray(x, dtype=float)
        eq = 0.0
        if self._n_eq:
            A = self.A_eq_sparse if self.is_sparse else self.A_eq
            eq = float(np.max(np.abs(A @ x - self.b_eq)))
        ub = 0.0
        if self._ub_rows:
            ub = float(np.max(np.clip(self.A_ub @ x - self.b_ub, 0.0, None)))
        bound = float(np.max(np.clip(-x, 0.0, None))) if x.size else 0.0
        return {"equality": eq, "inequality": ub, "bound": bound}

    def is_feasible(self, x, tol: float = 1e-7) -> bool:
        """True when ``x`` satisfies every constraint within ``tol``."""
        res = self.residuals(x)
        return all(v <= tol for v in res.values())

    # ------------------------------------------------------------------
    # standard form
    # ------------------------------------------------------------------
    def to_standard_form(self, sparse: bool | None = None) -> StandardFormLP:
        """Convert to ``min c.x  s.t.  A x = b, x >= 0``.

        Each inequality gains one non-negative slack variable.  Rows of
        the combined system with a negative right-hand side are *not*
        sign-flipped here — backends that need ``b >= 0`` (phase-1
        simplex) handle that locally.

        ``sparse`` selects the representation of the stacked matrix:
        ``None`` (default) follows :attr:`is_sparse`, ``True`` forces a
        CSR matrix, ``False`` forces a dense array.
        """
        if sparse is None:
            sparse = self.is_sparse
        n = self._c.size
        n_ub = len(self._ub_rows)
        c = np.concatenate([self._c, np.zeros(n_ub)])
        if self._n_eq == 0 and n_ub == 0:
            A = sp.csr_matrix((0, n)) if sparse else np.zeros((0, n))
            return StandardFormLP(c=c, A=A, b=np.zeros(0), n_original=n)

        rhs = []
        if sparse:
            blocks = []
            if self._n_eq:
                eq = self.A_eq_sparse
                blocks.append(
                    [eq, sp.csr_matrix((self._n_eq, n_ub))] if n_ub else [eq]
                )
                rhs.append(self.b_eq)
            if n_ub:
                ub = sp.csr_matrix(self.A_ub)
                blocks.append([ub, sp.identity(n_ub, format="csr")])
                rhs.append(self.b_ub)
            A = sp.bmat(blocks, format="csr")
        else:
            blocks = []
            if self._n_eq:
                blocks.append(np.hstack([self.A_eq, np.zeros((self._n_eq, n_ub))]))
                rhs.append(self.b_eq)
            if n_ub:
                blocks.append(np.hstack([self.A_ub, np.eye(n_ub)]))
                rhs.append(self.b_ub)
            A = np.vstack(blocks)
        return StandardFormLP(c=c, A=A, b=np.concatenate(rhs), n_original=n)
