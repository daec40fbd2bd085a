"""Exact policy optimization via linear programming (paper Appendix A).

The unknowns are the *state-action frequencies* ``x[s, a]`` — total
discounted expected number of slices the system spends in joint state
``s`` with command ``a`` issued.  They satisfy the balance equations
(paper LP2, Fig. 11)::

    sum_a x[j, a]  -  gamma * sum_{s, a} P^a[s, j] x[s, a]  =  p0[j]

for every state ``j``, and any cost metric is linear in ``x``.  The
constrained problems PO1/PO2 (paper LP3/LP4) add budget rows for the
other metrics; the optimal policy is recovered from the optimal ``x``
by Eq. 16::

    pi[s, a] = x[s, a] / sum_a' x[s, a']

States never visited by the optimal flow (row sum zero) are completed
with a deterministic fallback rule — they are unreachable under the
optimal policy from ``p0``, but trace-driven simulation can still enter
them, so the completion matters in practice (see ``fallback``).

The long-run average LP (:mod:`repro.core.average_cost`) shares all of
this at ``gamma = 1``; both formulations are thin hooks over
:class:`_FrequencyLP`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.core.costs import LOSS, PENALTY, POWER, CostModel
from repro.core.policy import MarkovPolicy, PolicyEvaluation, evaluate_policy
from repro.core.system import PowerManagedSystem
from repro.lp.problem import LinearProgram
from repro.lp.result import LPResult
from repro.lp.solve import solve_lp
from repro.util.validation import ValidationError, check_probability

#: Relative row-sum threshold for "state never visited" in Eq. 16.
#: Scaled by the total flow (``sum(x)``, the horizon for the discounted
#: LP, 1 for the average-cost LP): a state carrying below this fraction
#: of the flow is indistinguishable from solver round-off, and
#: normalizing such dust into a policy row would let the optimal vertex
#: choice — which legitimately varies across equally-optimal bases —
#: leak noise into the policy.  Those states get the deterministic
#: fallback completion instead.
VISIT_TOL = 1e-12

#: Auto mode (``sparse=None``) assembles the balance equations sparsely
#: once the LP has at least this many variables; below it the dense
#: fallback's lower constant factors win.
SPARSE_AUTO_MIN_VARIABLES = 256


def balance_matrix(system: PowerManagedSystem, gamma: float, sparse: bool):
    """The balance-equation matrix ``A_bal`` (paper LP2, Fig. 11).

    Row ``j``, column ``(s, a)`` (state-major, command-minor) holds
    ``1{j == s} - gamma * P^a[s, j]``; the average-cost formulation is
    the ``gamma = 1`` special case.  With ``sparse=True`` the matrix is
    assembled straight from the per-command transition structure as CSR
    — column ``(s, a)`` only touches the states reachable from ``s`` in
    one slice, so the ``(n, n * n_a)`` matrix is never densified.  The
    two representations hold bit-identical values.
    """
    n, n_a = system.n_states, system.n_commands
    tensor = system.chain.tensor  # (A, N, N)
    if not sparse:
        outflow = np.kron(np.eye(n), np.ones((1, n_a)))
        inflow = np.transpose(tensor, (2, 1, 0)).reshape(n, n * n_a)
        return outflow - gamma * inflow
    eye = sp.identity(n, format="csr")
    blocks = [eye - gamma * sp.csr_matrix(tensor[a]).T for a in range(n_a)]
    # Blocks stack command-major; permute columns to the state-major
    # order the metric matrices flatten to: (s, a) -> a * n + s.
    stacked = sp.hstack(blocks, format="csc")
    order = (np.arange(n)[:, None] + n * np.arange(n_a)[None, :]).ravel()
    return stacked[:, order].tocsr()


@dataclass
class OptimizationResult:
    """Outcome of one policy-optimization solve.

    Attributes
    ----------
    feasible:
        True when the LP had an optimal solution (constraints can be
        met).  When False, every other field except ``lp_result`` and
        ``constraints`` is ``None`` — matching the paper's convention
        ``f(c) = +inf`` on infeasible instances.
    policy:
        The optimal randomized Markov stationary policy (Eq. 16).
    frequencies:
        Optimal state-action frequencies ``x`` with shape
        ``(n_states, n_commands)``.
    evaluation:
        Closed-form evaluation of ``policy`` (totals and per-slice
        averages of every registered metric).
    objective_metric:
        Name of the optimized metric.
    objective_average:
        Optimal per-slice average of the objective metric.
    constraints:
        The per-slice bounds that were imposed, as
        ``{metric: (sense, bound)}``.
    gamma:
        Discount factor used.
    lp_result:
        The raw LP backend result (for diagnostics).
    """

    feasible: bool
    policy: MarkovPolicy | None
    frequencies: np.ndarray | None
    evaluation: PolicyEvaluation | None
    objective_metric: str
    objective_average: float | None
    constraints: dict[str, tuple[str, float]]
    gamma: float
    lp_result: LPResult = field(repr=False, default=None)

    def average(self, metric: str) -> float:
        """Per-slice average of ``metric`` under the optimal policy."""
        self.require_feasible()
        return self.evaluation.averages[metric]

    def require_feasible(self) -> "OptimizationResult":
        """Return self, raising if the problem was infeasible."""
        if not self.feasible:
            raise InfeasibleProblemError(
                f"policy optimization infeasible under constraints "
                f"{self.constraints!r}"
            )
        return self


class InfeasibleProblemError(RuntimeError):
    """The requested constraint combination cannot be met."""


class _SolveEntryPoints:
    """The paper-named solve entry points, written once over ``optimize``.

    Shared by both optimizer formulations and by the cache proxy
    (:class:`~repro.runtime.policy_cache.CachedOptimizer`), whose
    ``optimize`` routes through the cache — so these wrappers do too.
    Bounds are per-slice averages in every formulation.
    """

    def minimize_power(
        self,
        penalty_bound: float | None = None,
        loss_bound: float | None = None,
        extra_upper_bounds: dict[str, float] | None = None,
    ) -> OptimizationResult:
        """PO2 / LP4: minimum power under performance constraints."""
        upper = dict(extra_upper_bounds or {})
        if penalty_bound is not None:
            upper[PENALTY] = float(penalty_bound)
        if loss_bound is not None:
            upper[LOSS] = float(loss_bound)
        return self.optimize(POWER, "min", upper_bounds=upper)

    def minimize_penalty(
        self,
        power_bound: float | None = None,
        loss_bound: float | None = None,
        extra_upper_bounds: dict[str, float] | None = None,
    ) -> OptimizationResult:
        """PO1 / LP3: minimum performance penalty under a power budget."""
        upper = dict(extra_upper_bounds or {})
        if power_bound is not None:
            upper[POWER] = float(power_bound)
        if loss_bound is not None:
            upper[LOSS] = float(loss_bound)
        return self.optimize(PENALTY, "min", upper_bounds=upper)

    def minimize_unconstrained(self, objective: str = PENALTY) -> OptimizationResult:
        """POU / LP2: unconstrained minimization of one metric.

        By Theorem A.1 the optimum is attained by a deterministic
        Markov stationary policy; vertex-seeking LP backends (simplex,
        HiGHS) return it directly.
        """
        return self.optimize(objective, "min")


class _FrequencyLP(_SolveEntryPoints):
    """The LP over state-action frequencies that both formulations share.

    Holds the validation, the balance block (built once at
    ``balance_gamma``), LP assembly, Eq. 16 extraction and the general
    solve.  A formulation supplies ``bound_scale`` plus thin
    ``build_lp`` (balance right-hand side and extra equality rows, via
    :meth:`_assemble`) and ``result_from_lp`` (gamma stamp and policy
    evaluation, via :meth:`_extract`).
    """

    def __init__(
        self,
        system: PowerManagedSystem,
        costs: CostModel,
        balance_gamma: float,
        backend: str,
        fallback: str,
        action_mask,
        sparse: bool | None,
    ):
        if not isinstance(system, PowerManagedSystem):
            raise ValidationError("system must be a PowerManagedSystem")
        if not isinstance(costs, CostModel):
            raise ValidationError("costs must be a CostModel")
        if costs.system is not system:
            raise ValidationError("costs were built for a different system")
        self._system = system
        self._costs = costs
        self._backend = backend
        self._fallback = fallback
        self._mask = self._check_action_mask(system, action_mask)

        # Balance-equation matrix, built once, with columns in
        # (state-major, command-minor) order matching flattened
        # (n_states, n_commands) metric matrices.
        n, n_a = system.n_states, system.n_commands
        if sparse is None:
            sparse = n * n_a >= SPARSE_AUTO_MIN_VARIABLES
        self._sparse = bool(sparse)
        self._balance = balance_matrix(system, balance_gamma, self._sparse)

    @staticmethod
    def _check_action_mask(system: PowerManagedSystem, action_mask):
        if action_mask is None:
            return None
        mask = np.asarray(action_mask, dtype=bool)
        expected = (system.n_states, system.n_commands)
        if mask.shape != expected:
            raise ValidationError(
                f"action_mask must have shape {expected}, got {mask.shape}"
            )
        if not np.all(mask.any(axis=1)):
            bad = int(np.argmin(mask.any(axis=1)))
            raise ValidationError(
                f"action_mask forbids every command in state {bad}"
            )
        return mask

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def system(self) -> PowerManagedSystem:
        """The system being optimized."""
        return self._system

    @property
    def costs(self) -> CostModel:
        """The registered cost metrics."""
        return self._costs

    @property
    def backend(self) -> str:
        """LP backend name this optimizer solves with."""
        return self._backend

    @property
    def sparse(self) -> bool:
        """Whether the balance block is assembled (and solved) sparse."""
        return self._sparse

    # ------------------------------------------------------------------
    # the general solve
    # ------------------------------------------------------------------
    def _assemble(
        self,
        objective: str,
        sense: str,
        upper_bounds: dict[str, float] | None,
        lower_bounds: dict[str, float] | None,
        balance_rhs: np.ndarray,
        extra_equalities: tuple = (),
    ) -> tuple[LinearProgram, dict[str, tuple[str, float]]]:
        """Assemble the LP with its rows in one fixed order.

        Balance rows (RHS ``balance_rhs``), ``extra_equalities``, the
        mask row, then bound rows in iteration order, upper bounds
        before lower bounds — the sweep engine relies on appending its
        swept constraint last and mutating only that row's RHS between
        solves.  Each per-slice bound enters as ``bound * bound_scale``.
        """
        if sense not in ("min", "max"):
            raise ValidationError(f"sense must be 'min' or 'max', got {sense!r}")
        c = self._costs.metric(objective).reshape(-1)
        if sense == "max":
            c = -c

        lp = LinearProgram(c)
        if self._sparse:
            lp.add_equality_block(self._balance, balance_rhs)
        else:
            for j in range(self._system.n_states):
                lp.add_equality(self._balance[j], balance_rhs[j])
        for row, rhs in extra_equalities:
            lp.add_equality(row, rhs)
        if self._mask is not None and not self._mask.all():
            # One row pins every masked frequency to zero (x >= 0 makes
            # the sum-to-zero equality equivalent to per-entry zeros).
            forbidden = (~self._mask).astype(float).reshape(-1)
            lp.add_equality(forbidden, 0.0)

        scale = self.bound_scale
        recorded: dict[str, tuple[str, float]] = {}
        for name, bound in (upper_bounds or {}).items():
            lp.add_inequality(
                self._costs.metric(name).reshape(-1), float(bound) * scale
            )
            recorded[name] = ("<=", float(bound))
        for name, bound in (lower_bounds or {}).items():
            lp.add_lower_bound_inequality(
                self._costs.metric(name).reshape(-1), float(bound) * scale
            )
            recorded[name] = (">=", float(bound))
        return lp, recorded

    def _extract(
        self,
        lp_result: LPResult,
        objective: str,
        constraints: dict[str, tuple[str, float]],
        gamma: float,
        evaluate,
    ) -> OptimizationResult:
        """Package a raw LP solve, stamped with ``gamma``.

        Infeasible solves give the standard ``feasible=False`` result;
        otherwise ``evaluate(policy, frequencies)`` scores the Eq. 16
        policy of the clipped frequencies.
        """
        if not lp_result.is_optimal:
            return OptimizationResult(
                feasible=False,
                policy=None,
                frequencies=None,
                evaluation=None,
                objective_metric=objective,
                objective_average=None,
                constraints=constraints,
                gamma=gamma,
                lp_result=lp_result,
            )

        frequencies = np.clip(
            lp_result.x.reshape(self._system.n_states, self._system.n_commands),
            0.0,
            None,
        )
        policy = self.policy_from_frequencies(frequencies)
        evaluation = evaluate(policy, frequencies)
        return OptimizationResult(
            feasible=True,
            policy=policy,
            frequencies=frequencies,
            evaluation=evaluation,
            objective_metric=objective,
            objective_average=evaluation.averages[objective],
            constraints=constraints,
            gamma=gamma,
            lp_result=lp_result,
        )

    def optimize(
        self,
        objective: str,
        sense: str = "min",
        upper_bounds: dict[str, float] | None = None,
        lower_bounds: dict[str, float] | None = None,
    ) -> OptimizationResult:
        """Optimize ``objective`` subject to per-slice metric bounds.

        Parameters
        ----------
        objective:
            Name of a registered metric to optimize.
        sense:
            ``"min"`` or ``"max"``.
        upper_bounds:
            ``{metric: bound}`` — per-slice average of each metric must
            not exceed its bound (scaled internally by
            :attr:`bound_scale`, the horizon for the discounted LP as in
            paper Example A.2).
        lower_bounds:
            ``{metric: bound}`` — per-slice average must be at least the
            bound (e.g. a minimum-throughput requirement).
        """
        lp, recorded = self.build_lp(objective, sense, upper_bounds, lower_bounds)
        lp_result = solve_lp(lp, backend=self._backend)
        return self.result_from_lp(lp_result, objective, recorded)

    # ------------------------------------------------------------------
    # policy extraction (paper Eq. 16)
    # ------------------------------------------------------------------
    @staticmethod
    def _fallback_commands(
        system: PowerManagedSystem, fallback: str, mask
    ) -> np.ndarray:
        """Per-state deterministic completion for unvisited states."""
        if fallback == "greedy-service":
            idx = system.provider_index_of_state
            rates = system.provider.service_rate_matrix[idx]
            power = system.provider.power_matrix[idx]
            if mask is not None:
                rates = np.where(mask, rates, -np.inf)
                power = np.where(mask, power, np.inf)
            # True lexicographic argmax: highest service rate, ties
            # broken toward lower power, remaining ties toward the
            # lowest command index (lexsort is stable).  A weighted
            # score such as ``rates - 1e-9 * power`` mis-orders as soon
            # as power spans ~9 orders of magnitude relative to the
            # rate gaps, so the keys are compared exactly instead.
            return np.lexsort((power, -rates), axis=1)[:, 0]
        if fallback == "lowest-power":
            scores = -system.power_cost_matrix()
        else:
            # Otherwise interpret as an explicit command name.
            try:
                command = system.chain.command_index(fallback)
            except KeyError:
                raise ValidationError(
                    f"unknown fallback rule or command {fallback!r}; "
                    f"use 'greedy-service', 'lowest-power' or one of "
                    f"{system.command_names}"
                ) from None
            scores = np.zeros((system.n_states, system.n_commands))
            scores[:, command] = 1.0
        if mask is not None:
            scores = np.where(mask, scores, -np.inf)
        return np.argmax(scores, axis=1)

    def policy_from_frequencies(self, frequencies: np.ndarray) -> MarkovPolicy:
        """Extract the randomized policy from state-action frequencies.

        Validates/clips the frequencies, zeroes masked pairs, normalizes
        rows carrying more than :data:`VISIT_TOL` of the total flow and
        completes the rest with the deterministic fallback rule.  The
        formulations differ in what the frequencies *mean*, not in how
        the policy is read off them.
        """
        freq = np.asarray(frequencies, dtype=float)
        expected = (self._system.n_states, self._system.n_commands)
        if freq.shape != expected:
            raise ValidationError(
                f"frequencies must have shape {expected}, got {freq.shape}"
            )
        freq = np.clip(freq, 0.0, None)
        if self._mask is not None:
            # Solver-tolerance dust on forbidden pairs must not leak
            # into the policy.
            freq = np.where(self._mask, freq, 0.0)
        row_sums = freq.sum(axis=1)
        matrix = np.zeros_like(freq)
        visited = row_sums > VISIT_TOL * max(1.0, float(row_sums.sum()))
        matrix[visited] = freq[visited] / row_sums[visited, None]
        fallback_commands = self._fallback_commands(
            self._system, self._fallback, self._mask
        )
        for state in np.where(~visited)[0]:
            matrix[state, fallback_commands[state]] = 1.0
        return MarkovPolicy(matrix, self._system.command_names)


class PolicyOptimizer(_FrequencyLP):
    """Exact policy optimization for a power-managed system.

    Parameters
    ----------
    system:
        The composed joint system.
    costs:
        Registered cost metrics (must include whatever metrics are used
        as objectives or constraints; :meth:`CostModel.standard`
        registers ``power``, ``penalty`` and ``loss``).
    gamma:
        Discount factor in (0, 1); the expected session length is
        ``1/(1-gamma)`` slices (paper Section IV).
    initial_distribution:
        Initial joint-state distribution ``p0``; defaults to uniform.
    backend:
        LP backend name (see :func:`repro.lp.available_backends`).
    fallback:
        Completion rule for states the optimal flow never visits:
        ``"greedy-service"`` (default: command with the highest service
        rate, ties to lower power), ``"lowest-power"``, or an explicit
        command name applied to all such states.
    action_mask:
        Optional boolean ``(n_states, n_commands)`` array; ``False``
        marks command choices the hardware does not expose to the power
        manager (e.g. the CPU case study's unconditional reactive wake,
        Section VI-C).  Masked-out state-action frequencies are pinned
        to zero in every LP, and the extracted policy never issues a
        masked command.  Every state must keep at least one allowed
        command.
    sparse:
        Representation of the balance-equation block: ``True`` keeps it
        as a CSR matrix end to end (sparse simplex basis, CSR
        pass-through to HiGHS), ``False`` forces the dense fallback and
        ``None`` (default) picks sparse once the LP has at least
        :data:`SPARSE_AUTO_MIN_VARIABLES` variables.  Both
        representations produce the same LP values; only solve speed
        and memory differ.

    Examples
    --------
    >>> from repro.systems import example_system
    >>> bundle = example_system.build()
    >>> opt = PolicyOptimizer(bundle.system, bundle.costs, gamma=0.99999,
    ...                       initial_distribution=bundle.initial_distribution)
    >>> res = opt.minimize_power(penalty_bound=0.5, loss_bound=0.2)
    >>> res.feasible
    True
    """

    def __init__(
        self,
        system: PowerManagedSystem,
        costs: CostModel,
        gamma: float,
        initial_distribution=None,
        backend: str = "scipy",
        fallback: str = "greedy-service",
        action_mask=None,
        sparse: bool | None = None,
    ):
        gamma = check_probability(gamma, "gamma")
        if not 0.0 < gamma < 1.0:
            raise ValidationError(f"gamma must be in (0, 1), got {gamma!r}")
        super().__init__(
            system, costs, gamma, backend, fallback, action_mask, sparse
        )
        self._gamma = gamma
        if initial_distribution is None:
            initial_distribution = system.uniform_distribution()
        self._p0 = system.check_distribution(initial_distribution)

    @property
    def gamma(self) -> float:
        """Discount factor."""
        return self._gamma

    @property
    def expected_horizon(self) -> float:
        """Expected session length ``1/(1-gamma)`` in slices."""
        return 1.0 / (1.0 - self._gamma)

    @property
    def initial_distribution(self) -> np.ndarray:
        """Initial joint-state distribution ``p0`` (copy)."""
        return self._p0.copy()

    @property
    def bound_scale(self) -> float:
        """Multiplier from a per-slice metric bound to its LP row RHS.

        The discounted LP accounts in expected totals over the horizon,
        so per-slice bounds are scaled by ``1/(1-gamma)`` (paper Example
        A.2).  Used by the sweep engine to mutate the constraint row.
        """
        return self.expected_horizon

    def build_lp(
        self,
        objective: str,
        sense: str = "min",
        upper_bounds: dict[str, float] | None = None,
        lower_bounds: dict[str, float] | None = None,
    ) -> tuple[LinearProgram, dict[str, tuple[str, float]]]:
        """Assemble the LP3/LP4 instance (balance RHS ``p0``) unsolved.

        Returns the :class:`LinearProgram` and the recorded constraint
        dict ``{metric: (sense, per_slice_bound)}``; row order is
        documented on :meth:`_assemble`.
        """
        return self._assemble(objective, sense, upper_bounds, lower_bounds, self._p0)

    def result_from_lp(
        self,
        lp_result: LPResult,
        objective: str,
        constraints: dict[str, tuple[str, float]],
    ) -> OptimizationResult:
        """Turn a raw LP solve into an :class:`OptimizationResult`.

        Extracts the policy (Eq. 16) and evaluates it in closed form
        over the discounted horizon from ``p0``.
        """
        return self._extract(
            lp_result,
            objective,
            constraints,
            self._gamma,
            lambda policy, _: evaluate_policy(
                self._system, self._costs, policy, self._gamma, self._p0
            ),
        )
