"""Content-addressed caching of policy-optimization solves.

A fleet of a thousand identical devices does not need a thousand LP
solves: the optimal policy is a pure function of the LP content
(objective row, balance matrix, bound rows, backend).  The
:class:`PolicyCache` addresses solves by a SHA-256 digest of exactly
that content, so devices (or adaptive refits) with *identical* LPs
share one solve.  Every miss is a cold solve on the optimizer's own
backend, so what the cache returns never depends on what it solved
before.

The module also owns the content-signature helpers
(:func:`system_signature`, :func:`costs_signature`,
:func:`policy_signature`) that the fleet runtime uses to group devices
for batched stepping, and :func:`memoized_by_identity`, which lets a
pass over a fleet hash each distinct model once.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.core.optimizer import _SolveEntryPoints
from repro.lp.solve import solve_lp
from repro.util.validation import ValidationError

__all__ = [
    "CacheStats",
    "CachedOptimizer",
    "PolicyCache",
    "costs_signature",
    "memoized_by_identity",
    "policy_signature",
    "system_signature",
]


def _hash_arrays(parts) -> str:
    """SHA-256 over a sequence of arrays/strings (shape-delimited)."""
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, str):
            digest.update(part.encode())
        else:
            arr = np.ascontiguousarray(part)
            digest.update(str(arr.shape).encode())
            digest.update(str(arr.dtype).encode())
            digest.update(arr.tobytes())
        digest.update(b"|")
    return digest.hexdigest()


def system_signature(system) -> str:
    """Content digest of a composed system's stochastic tables.

    Two systems with equal provider tensors, service rates, power
    tables, requester chains, arrival counts and queue capacity hash
    identically regardless of object identity — the grouping key the
    fleet controller batches on.
    """
    return _hash_arrays(
        [
            system.provider.chain.tensor,
            system.provider.service_rate_matrix,
            system.provider.power_matrix,
            system.requester.chain.matrix,
            system.requester.arrival_counts,
            str(system.queue.capacity),
        ]
    )


def costs_signature(costs) -> str:
    """Content digest of a cost model's metric matrices (name order)."""
    parts: list = []
    for name in costs.metric_names:
        parts.append(name)
        parts.append(costs.metric(name))
    return _hash_arrays(parts)


def policy_signature(policy) -> str:
    """Content digest of a Markov policy matrix."""
    return _hash_arrays([policy.matrix])


def memoized_by_identity(memo: dict, objects: tuple, compute, *args):
    """``compute(*args)``, once per distinct ``objects`` (by identity).

    Devices of one group share their model and policy objects, so
    keying a content signature on those objects' identities computes
    it once per group instead of once per device.  The memo entry holds
    ``objects``, so their ``id()`` keys stay valid while the memo lives.
    """
    key = tuple(id(obj) for obj in objects)
    entry = memo.get(key)
    if entry is None:
        entry = memo[key] = (objects, compute(*args))
    return entry[1]


def _lp_signature(lp, backend: str) -> str:
    """Exact content address of one LP instance on one backend.

    Sparse problems are hashed through their CSR triplet
    (``data``/``indices``/``indptr``) — the (n_states*n_commands x
    n_states) balance block is never densified just to fingerprint it.
    Dense and sparse assemblies of the same system therefore hash to
    *different* keys, which is correct: they run different solve paths
    and may return different (equally optimal) vertex policies.
    """
    if lp.is_sparse:
        eq = lp.A_eq_sparse
        return _hash_arrays(
            [
                backend,
                "csr",
                lp.c,
                str(eq.shape),
                eq.data,
                eq.indices,
                eq.indptr,
                lp.b_eq,
                lp.A_ub,
                lp.b_ub,
            ]
        )
    return _hash_arrays(
        [backend, lp.c, lp.A_eq, lp.b_eq, lp.A_ub, lp.b_ub]
    )


@dataclass
class CacheStats:
    """Counters describing how a :class:`PolicyCache` has been used.

    Attributes
    ----------
    hits:
        Solves answered from the cache without touching a backend.
    misses:
        Solves that went to the LP backend.
    evictions:
        Entries dropped by the LRU bound.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0


class PolicyCache:
    """LRU cache of :class:`~repro.core.optimizer.OptimizationResult`.

    Parameters
    ----------
    max_entries:
        LRU bound on cached results (``None`` means unbounded).

    Notes
    -----
    Cached results are returned *shared*, not copied — policies and
    evaluations are treated as immutable, which every consumer in this
    package honours.

    *Determinism.*  A result is a function of the LP's content and
    the backend alone: a miss solves cold, and a hit returns what that
    cold solve returned.  So it does not matter which device solved an
    LP first, or what else the cache solved before — a fresh cache, a
    shared one and one restored from a checkpoint answer bit for bit
    alike.

    Examples
    --------
    >>> from repro.core.average_cost import AverageCostOptimizer
    >>> from repro.runtime.policy_cache import PolicyCache
    >>> from repro.systems import example_system
    >>> bundle = example_system.build()
    >>> cache = PolicyCache()
    >>> opt = AverageCostOptimizer(bundle.system, bundle.costs)
    >>> a = cache.optimize(opt, "power", upper_bounds={"penalty": 0.5})
    >>> b = cache.optimize(opt, "power", upper_bounds={"penalty": 0.5})
    >>> a is b, cache.stats.hits, cache.stats.misses
    (True, 1, 1)
    """

    def __init__(self, max_entries: int | None = 256):
        if max_entries is not None and int(max_entries) <= 0:
            raise ValidationError(
                f"max_entries must be positive or None, got {max_entries}"
            )
        self._max_entries = None if max_entries is None else int(max_entries)
        self._results: OrderedDict[str, object] = OrderedDict()
        self._stats = CacheStats()

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        """Usage counters (live object, not a copy)."""
        return self._stats

    def __len__(self) -> int:
        return len(self._results)

    def clear(self) -> None:
        """Drop every cached result."""
        self._results.clear()

    # ------------------------------------------------------------------
    # the cached solve
    # ------------------------------------------------------------------
    def optimize(
        self,
        optimizer,
        objective: str,
        sense: str = "min",
        upper_bounds: dict[str, float] | None = None,
        lower_bounds: dict[str, float] | None = None,
    ):
        """Solve through ``optimizer``, deduped by LP content.

        ``optimizer`` is either a
        :class:`~repro.core.optimizer.PolicyOptimizer` or an
        :class:`~repro.core.average_cost.AverageCostOptimizer` — both
        expose the ``build_lp``/``result_from_lp`` split this cache
        needs to address the raw LP solve.
        """
        lp, recorded = optimizer.build_lp(
            objective, sense, upper_bounds, lower_bounds
        )
        backend = optimizer.backend
        key = _lp_signature(lp, backend)
        cached = self._results.get(key)
        if cached is not None:
            self._results.move_to_end(key)
            self._stats.hits += 1
            return cached

        lp_result = solve_lp(lp, backend=backend)
        self._stats.misses += 1
        result = optimizer.result_from_lp(lp_result, objective, recorded)
        self._results[key] = result
        if (
            self._max_entries is not None
            and len(self._results) > self._max_entries
        ):
            self._results.popitem(last=False)
            self._stats.evictions += 1
        return result

    def wrap(self, optimizer) -> "CachedOptimizer":
        """An optimizer proxy whose solves all route through this cache."""
        return CachedOptimizer(optimizer, self)


class CachedOptimizer(_SolveEntryPoints):
    """Duck-typed optimizer facade backed by a :class:`PolicyCache`.

    Exposes the solve entry points (``optimize`` plus the paper-named
    ``minimize_*`` wrappers it inherits) routed through the cache and
    delegates everything else to the wrapped optimizer.
    """

    def __init__(self, optimizer, cache: PolicyCache):
        self._optimizer = optimizer
        self._cache = cache

    @property
    def cache(self) -> PolicyCache:
        """The backing cache."""
        return self._cache

    def optimize(
        self,
        objective: str,
        sense: str = "min",
        upper_bounds: dict[str, float] | None = None,
        lower_bounds: dict[str, float] | None = None,
    ):
        return self._cache.optimize(
            self._optimizer, objective, sense, upper_bounds, lower_bounds
        )

    def __getattr__(self, name: str):
        return getattr(self._optimizer, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CachedOptimizer({self._optimizer!r})"
