"""RNG-discipline rules: randomness must be explicit and caller-owned.

Every stochastic path in this repo threads an explicit
:class:`numpy.random.Generator` (see :mod:`repro.sim.rng`): seeded at
the experiment boundary, spawned per device/replication with
:class:`numpy.random.SeedSequence` keys, and passed down — never
created ambiently inside the code that draws.  These rules make that
contract machine-checked:

* :class:`NumpyLegacyRandomRule` (RNG001) — the module-level
  ``np.random.*`` legacy API draws from one hidden global stream;
* :class:`AmbientEntropyRule` (RNG002) — stdlib ``random`` and
  time/pid-based seeding are unreproducible by construction;
* :class:`EntropySeededGeneratorRule` (RNG003) — ``default_rng()``
  with no seed pulls OS entropy, so two runs can never agree;
* :class:`UnthreadedGeneratorRule` (RNG004) — a function that draws
  from a generator it neither received nor created locally is drawing
  from ambient state the caller cannot control.

:class:`~repro.sim.rng.UniformSource` implementations
(:class:`~repro.sim.rng.FanInSource`,
:class:`~repro.sim.rng_batched.BatchedPCG64Source`) are sanctioned
generator carriers: they hold caller-supplied generators or stream
positions and re-expose the draw surface, so the same threading
discipline applies to them — ``random``/``random_raw`` on a source
count as draws (policed by RNG004 like any generator method), and a
source must reach its draw site as a parameter, local, or instance
attribute, never as module state.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import FileContext, parameter_names
from repro.lint.finding import Finding
from repro.lint.registry import Rule, register

#: numpy.random members that are part of the explicit-Generator API
#: (everything else on the module is the legacy global-state surface).
ALLOWED_NP_RANDOM = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "MT19937",
        "SFC64",
    }
)

#: Calls that construct a generator; their seeding is policed.
GENERATOR_CONSTRUCTORS = frozenset(
    {
        "numpy.random.default_rng",
        "numpy.random.SeedSequence",
        "repro.sim.rng.make_rng",
        "repro.sim.rng.spawn_rngs",
    }
)

#: Short spellings of the constructors (``from repro.sim.rng import
#: make_rng`` resolves to the dotted form; these cover same-module use).
GENERATOR_CONSTRUCTOR_TAILS = frozenset({"default_rng", "make_rng", "spawn_rngs"})

#: Wall-clock / process-identity entropy sources that must never seed.
ENTROPY_SOURCES = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.perf_counter",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "os.urandom",
        "os.getpid",
        "uuid.uuid4",
    }
)

#: Generator (and :class:`~repro.sim.rng.UniformSource`) methods that
#: consume a stream.  ``random`` doubles as the UniformSource protocol
#: method; ``random_raw`` consumes the underlying bit generator — both
#: advance caller-owned stream state, so drawing them through an
#: ambient name is exactly the leak RNG004 exists to catch.
DRAW_METHODS = frozenset(
    {
        "random",
        "random_raw",
        "integers",
        "choice",
        "shuffle",
        "permutation",
        "permuted",
        "standard_normal",
        "standard_exponential",
        "normal",
        "uniform",
        "exponential",
        "poisson",
        "binomial",
        "multinomial",
        "spawn",
    }
)


def _own_nodes(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[ast.AST]:
    """Nodes of ``func``'s body without descending into nested defs.

    Nested function definitions are yielded (so callers can recurse)
    but their bodies are their own scope and are not walked.
    """
    stack: list[ast.AST] = list(func.body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _constructor_name(context: FileContext, node: ast.Call) -> str | None:
    """Dotted (or local-tail) name when ``node`` builds a generator."""
    resolved = context.call_name(node)
    if resolved in GENERATOR_CONSTRUCTORS:
        return resolved
    raw = context.dotted(node.func)
    if raw is not None and raw in GENERATOR_CONSTRUCTOR_TAILS:
        return raw
    return None


@register
class NumpyLegacyRandomRule(Rule):
    """RNG001: no ``np.random.<fn>`` legacy global-stream calls."""

    rule_id = "RNG001"
    name = "numpy-legacy-random"
    description = (
        "module-level numpy.random functions (seed/rand/choice/...) "
        "draw from one hidden global RandomState"
    )
    contract = (
        "explicit RNG threading: all randomness flows from caller-owned "
        "numpy.random.Generator objects (repro.sim.rng)"
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Attribute):
                continue
            resolved = context.resolve(node)
            if resolved is None or not resolved.startswith("numpy.random."):
                continue
            member = resolved.split(".")[2]
            if member in ALLOWED_NP_RANDOM:
                continue
            yield self.finding(
                context,
                node.lineno,
                node.col_offset,
                f"np.random.{member} uses the legacy global random state",
                "thread an explicit numpy.random.Generator "
                "(repro.sim.rng.make_rng) instead",
            )


@register
class AmbientEntropyRule(Rule):
    """RNG002: no stdlib ``random`` and no time/pid-based seeding."""

    rule_id = "RNG002"
    name = "ambient-entropy"
    description = (
        "stdlib random module usage, or seeding a generator from "
        "wall-clock/process identity"
    )
    contract = (
        "reproducible seeding: a run is a pure function of its declared "
        "seed, never of when or where it ran"
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Attribute):
                resolved = context.resolve(node)
                if (
                    resolved is not None
                    and resolved.startswith("random.")
                    and context.aliases.get(resolved.split(".")[0]) == "random"
                ):
                    member = resolved.split(".", 1)[1]
                    yield self.finding(
                        context,
                        node.lineno,
                        node.col_offset,
                        f"stdlib random.{member} draws from the "
                        f"process-global Mersenne Twister",
                        "use a threaded numpy.random.Generator "
                        "(repro.sim.rng) instead of the random module",
                    )
            elif isinstance(node, ast.Call):
                if _constructor_name(context, node) is None:
                    continue
                for arg in list(node.args) + [kw.value for kw in node.keywords]:
                    for sub in ast.walk(arg):
                        if not isinstance(sub, ast.Call):
                            continue
                        source = context.resolve(sub.func)
                        if source in ENTROPY_SOURCES:
                            yield self.finding(
                                context,
                                sub.lineno,
                                sub.col_offset,
                                f"generator seeded from {source}() — the "
                                f"seed changes every run",
                                "accept an explicit integer seed or "
                                "SeedSequence from the caller",
                            )


@register
class EntropySeededGeneratorRule(Rule):
    """RNG003: ``default_rng()`` / ``make_rng()`` without a seed."""

    rule_id = "RNG003"
    name = "entropy-seeded-generator"
    description = (
        "generator constructed with no seed argument (or literal None) "
        "pulls fresh OS entropy"
    )
    contract = (
        "reproducible seeding: generators are built from caller-supplied "
        "seeds or SeedSequence spawn keys, never fresh entropy"
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _constructor_name(context, node)
            if name is None:
                continue
            entropy = False
            if not node.args and not node.keywords:
                entropy = True
            elif node.args and len(node.args) >= 1:
                first = node.args[0]
                entropy = isinstance(first, ast.Constant) and first.value is None
            if not entropy:
                continue
            tail = name.rsplit(".", 1)[-1]
            yield self.finding(
                context,
                node.lineno,
                node.col_offset,
                f"{tail}() with no seed draws fresh OS entropy — two runs "
                f"can never reproduce each other",
                "pass the caller's seed/Generator/SeedSequence through "
                "(repro.sim.rng.make_rng(seed))",
            )


@register
class UnthreadedGeneratorRule(Rule):
    """RNG004: functions drawing randomness must receive their generator.

    A function may draw from: a parameter (of itself or an enclosing
    function — explicit threading), a local it constructed from a
    policed constructor (RNG003 covers bad construction), an attribute
    (``self._rng`` — instance state captured at construction), or a
    subscript (per-device generator arrays).  Drawing from a bare name
    that is none of these means the randomness comes from module/global
    state the caller cannot control or checkpoint.  The same applies to
    :class:`~repro.sim.rng.UniformSource` objects — a fan-in or batched
    source *is* a bundle of caller-owned streams, and its ``random``
    draws advance them just as directly.
    """

    rule_id = "RNG004"
    name = "unthreaded-generator"
    description = (
        "function draws randomness from an ambient name it neither "
        "received as a parameter nor assigned locally"
    )
    contract = (
        "explicit RNG threading: functions drawing randomness accept a "
        "Generator/SeedSequence parameter (device_rng spawn keys)"
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        nested: set[ast.AST] = set()
        for func in context.function_defs():
            for node in _own_nodes(func):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    nested.add(node)
        for func in context.function_defs():
            if func not in nested:
                yield from self._check_function(context, func, set())

    def _check_function(
        self,
        context: FileContext,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        enclosing: set[str],
    ) -> Iterator[Finding]:
        own = list(_own_nodes(func))
        local = set(enclosing) | parameter_names(func)
        # Any name assigned anywhere in the body counts as locally
        # owned — construction discipline is RNG003's job, and
        # ``rng = self._rng`` style rebinding is legitimate threading.
        for node in own:
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                local.add(node.id)
        for node in own:
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr not in DRAW_METHODS:
                continue
            receiver = node.func.value
            if not isinstance(receiver, ast.Name):
                continue  # self._rng.random(), rngs[i].random(): fine
            name = receiver.id
            if name in local or context.resolve(receiver) is not None:
                # Imported modules are other rules' business (RNG001/2).
                continue
            yield self.finding(
                context,
                node.lineno,
                node.col_offset,
                f"{func.name}() draws via {name}.{node.func.attr}() but "
                f"{name!r} is neither a parameter nor assigned locally",
                "accept the generator as a parameter (or derive it from "
                "one with repro.sim.rng / device_rng)",
            )
        for node in own:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(context, node, local)
