"""Adaptive policy management for nonstationary workloads.

The paper closes with: "Another interesting direction of investigation
is the study of adaptive algorithms that can compute optimal policies
in systems where workloads are highly nonstationary and the service
provider model changes over time."  This module implements that
direction:

:class:`AdaptivePolicyAgent` maintains a sliding window of observed
arrivals, periodically refits a k-memory SR model over the window,
re-solves the (average-cost) policy optimization against the refit
model, and switches to the new optimal policy.  Between refits it
executes the current policy like any stationary agent.

On stationary Markov workloads it converges to the static optimum (the
refit model converges to the truth); on regime-switching workloads like
paper Fig. 10's it tracks the active regime instead of averaging over
both — the ablation benchmark ``bench_ablation_adaptive`` quantifies
the gain.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.average_cost import AverageCostOptimizer
from repro.core.components import ServiceQueue
from repro.core.costs import CostModel
from repro.core.policy import MarkovPolicy
from repro.core.system import PowerManagedSystem
from repro.policies.base import Observation, PolicyAgent
from repro.util.validation import ValidationError


class AdaptivePolicyAgent(PolicyAgent):
    """Re-estimate the workload online and re-optimize periodically.

    Parameters
    ----------
    provider:
        The service provider (fixed hardware model).
    queue_capacity:
        Queue capacity of the managed system.
    build_costs:
        Callable ``system -> CostModel`` producing the metrics for a
        freshly composed system (use :meth:`CostModel.standard` unless
        the deployment needs custom penalties).
    optimize:
        Callable ``optimizer -> OptimizationResult`` issuing the
        constrained solve (e.g. ``lambda o: o.minimize_power(
        penalty_bound=0.1)``); receives an
        :class:`~repro.core.average_cost.AverageCostOptimizer`.
    window:
        Sliding-window length in slices.
    refit_every:
        Slices between refit-and-reoptimize steps.
    memory:
        SR extractor memory ``k``.
    fallback_command:
        Command issued until the first model has been fitted and
        whenever re-optimization fails (e.g. infeasible constraints on
        the current window); typically the active command.
    action_mask_builder:
        Optional callable ``system -> mask`` rebuilding a hardware
        action mask for each refit system (the CPU's reactive wake).
    smoothing:
        Laplace smoothing for the extractor (keeps rare transitions
        alive on short windows).
    estimator:
        Optional workload estimator replacing the fixed-memory window
        heuristic: any object with ``fit(counts) -> KMemoryModel``
        (e.g. :class:`~repro.estimation.chain_fit.ArrivalChainEstimator`,
        which re-runs a BIC structure search per refit so the model
        order tracks the data).  Pass the string ``"bic"`` for a
        default BIC estimator.  When given, ``memory`` / ``smoothing``
        only bound the refit trigger — the estimator owns the fit.
    policy_cache:
        Optional :class:`~repro.runtime.policy_cache.PolicyCache`.
        When given, every refit solve routes through the cache: a
        window whose refit LP is content-identical to a previous one
        (common once a stationary workload's model converges, or across
        a fleet of devices seeing the same regime) costs a lookup
        instead of a solve.  Any other refit solves cold, so a refit's
        policy depends only on its window, not on the cache's history.
        Cache traffic from this agent is reported by :attr:`cache_hits`
        next to :attr:`refits` / :attr:`failed_refits`.
    """

    def __init__(
        self,
        provider,
        queue_capacity: int,
        optimize,
        window: int = 5000,
        refit_every: int = 1000,
        memory: int = 1,
        fallback_command: int = 0,
        build_costs=None,
        action_mask_builder=None,
        smoothing: float = 0.5,
        backend: str = "scipy",
        policy_cache=None,
        estimator=None,
    ):
        if window < 10:
            raise ValidationError(f"window must be >= 10 slices, got {window}")
        if refit_every < 1:
            raise ValidationError(
                f"refit_every must be >= 1, got {refit_every}"
            )
        self._provider = provider
        self._queue_capacity = int(queue_capacity)
        self._optimize = optimize
        self._window = int(window)
        self._refit_every = int(refit_every)
        self._memory = int(memory)
        self._fallback_command = int(fallback_command)
        self._build_costs = build_costs or CostModel.standard
        self._mask_builder = action_mask_builder
        self._smoothing = float(smoothing)
        self._backend = backend
        self._policy_cache = policy_cache
        if estimator == "bic":
            from repro.estimation.chain_fit import ArrivalChainEstimator

            estimator = ArrivalChainEstimator(smoothing=self._smoothing)
        if estimator is not None and not callable(
            getattr(estimator, "fit", None)
        ):
            raise ValidationError(
                "estimator must expose fit(counts) -> KMemoryModel "
                f"(or be the string 'bic'), got {type(estimator).__name__}"
            )
        self._estimator = estimator

        self._arrivals: deque[int] = deque(maxlen=self._window)
        self._policy: MarkovPolicy | None = None
        self._fitted_memory: int | None = None
        self._policy_system: PowerManagedSystem | None = None
        self._tracker = None
        self._tracked_state = 0
        self._since_refit = 0
        self._refits = 0
        self._failed_refits = 0
        self._cache_hits = 0

    # ------------------------------------------------------------------
    # bookkeeping accessors (for experiments and tests)
    # ------------------------------------------------------------------
    @property
    def refits(self) -> int:
        """Successful re-optimizations performed so far."""
        return self._refits

    @property
    def failed_refits(self) -> int:
        """Refits skipped because extraction/optimization failed."""
        return self._failed_refits

    @property
    def cache_hits(self) -> int:
        """Refit solves answered by the policy cache without an LP solve."""
        return self._cache_hits

    @property
    def current_policy(self) -> MarkovPolicy | None:
        """The policy currently being executed (None before first fit)."""
        return self._policy

    @property
    def fitted_memory(self) -> int | None:
        """Memory of the last fitted model (None before the first fit).

        Under an estimator this is the BIC-selected order, which may
        differ from the constructor's ``memory`` argument.
        """
        return self._fitted_memory

    def reset(self) -> None:
        self._arrivals.clear()
        self._policy = None
        self._fitted_memory = None
        self._policy_system = None
        self._tracker = None
        self._tracked_state = 0
        self._since_refit = 0
        self._refits = 0
        self._failed_refits = 0
        self._cache_hits = 0

    # ------------------------------------------------------------------
    # the refit step
    # ------------------------------------------------------------------
    def _refit(self) -> None:
        # Imported here: repro.traces pulls repro.sim which pulls this
        # package — a module-level import would be circular.
        from repro.traces.extractor import SRExtractor

        counts = np.asarray(self._arrivals, dtype=int)
        try:
            if self._estimator is not None:
                model = self._estimator.fit(counts)
            else:
                model = SRExtractor(
                    memory=self._memory, smoothing=self._smoothing
                ).fit(counts)
            requester = model.to_requester()
            system = PowerManagedSystem(
                self._provider, requester, ServiceQueue(self._queue_capacity)
            )
            costs = self._build_costs(system)
            mask = self._mask_builder(system) if self._mask_builder else None
            optimizer = AverageCostOptimizer(
                system,
                costs,
                backend=self._backend,
                action_mask=mask,
                fallback="greedy-service",
            )
            if self._policy_cache is not None:
                hits = self._policy_cache.stats.hits
                result = self._optimize(self._policy_cache.wrap(optimizer))
                self._cache_hits += self._policy_cache.stats.hits - hits
            else:
                result = self._optimize(optimizer)
        except Exception:
            self._failed_refits += 1
            return
        if not result.feasible:
            self._failed_refits += 1
            return
        self._policy = result.policy
        self._policy_system = system
        self._fitted_memory = int(model.memory)
        tracker = model.tracker()
        self._tracked_state = tracker.reset()
        # Warm the tracker with the recent window so the state is current.
        for z in list(self._arrivals)[-model.memory :]:
            self._tracked_state = tracker.update(int(z))
        self._tracker = tracker
        self._refits += 1

    # ------------------------------------------------------------------
    # the agent protocol
    # ------------------------------------------------------------------
    def select_command(
        self, observation: Observation, rng: np.random.Generator
    ) -> int:
        # Record the newest arrivals observation.
        self._arrivals.append(int(observation.arrivals))
        if self._tracker is not None:
            self._tracked_state = self._tracker.update(
                int(observation.arrivals)
            )
        self._since_refit += 1

        if (
            self._policy is None and len(self._arrivals) >= self._window
        ) or self._since_refit >= self._refit_every:
            if len(self._arrivals) >= max(self._memory + 1, 10):
                self._refit()
            self._since_refit = 0

        if self._policy is None or self._policy_system is None:
            return self._fallback_command

        system = self._policy_system
        joint = (
            observation.provider_state * system.requester.n_states
            + self._tracked_state
        ) * system.queue.n_states + min(
            observation.queue_length, system.queue.capacity
        )
        row = self._policy.matrix[joint]
        if row.max() > 1.0 - 1e-12:
            return int(row.argmax())
        return int(rng.choice(row.size, p=row))

    def describe(self) -> str:
        if self._estimator is not None:
            estimator = getattr(self._estimator, "describe", None)
            label = estimator() if callable(estimator) else "custom"
            return (
                f"adaptive(window={self._window}, "
                f"refit_every={self._refit_every}, estimator={label})"
            )
        return (
            f"adaptive(window={self._window}, refit_every={self._refit_every}, "
            f"memory={self._memory})"
        )
