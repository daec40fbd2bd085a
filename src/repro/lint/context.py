"""Per-file analysis context shared by every rule.

A :class:`FileContext` is built once per linted file and hands rules
the parsed AST plus the cross-cutting facts most of them need:

* an **import alias table** so ``np.random.seed`` resolves to
  ``numpy.random.seed`` however numpy was imported (``import numpy as
  np``, ``from numpy import random``, ...).  Resolution is
  import-verified: a local variable that merely *shadows* a module
  name never resolves, which keeps rules from firing on coincidental
  attribute spellings;
* the ``# repro-lint:`` **comment directives** (inline suppressions
  and schema markers), collected with :mod:`tokenize` so they survive
  anywhere a comment is legal;
* whether the module **declares the bitwise contract** (its docstring
  promises bitwise/byte-identical results), which scopes the
  float-determinism rules to the files that actually make the promise.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

#: Comment directive syntax: ``# repro-lint: disable=RNG001,HSH002``
#: or ``# repro-lint: schema=SNAPSHOT_FIELDS`` /
#: ``schema=repro.runtime.telemetry:SNAPSHOT_FIELDS``.  Anchored to the
#: start of the comment so prose *mentioning* a directive (like this
#: very comment) is not itself a directive.
_DIRECTIVE_RE = re.compile(r"\A#\s*repro-lint:\s*(?P<body>.+)$")
_DISABLE_RE = re.compile(r"disable=(?P<ids>[A-Z0-9,\s]+)")
_SCHEMA_RE = re.compile(r"schema=(?P<target>[\w.:]+)")

#: Module docstring phrases that declare the bitwise-reproducibility
#: contract (scoping marker for the float-determinism rules).
_BITWISE_PHRASES = ("bitwise", "byte-identical", "byte-for-byte", "byte for byte")


@dataclass
class Suppression:
    """One ``disable=`` directive: which rules it silences on its line."""

    line: int
    rule_ids: tuple[str, ...]
    used: set[str] = field(default_factory=set)


class FileContext:
    """Everything the rule battery knows about one source file."""

    def __init__(self, path: str, source: str, tree: ast.Module):
        self.path = path
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()
        docstring = ast.get_docstring(tree) or ""
        lowered = docstring.lower()
        #: True when the module docstring promises bitwise results.
        self.declares_bitwise_contract = any(
            phrase in lowered for phrase in _BITWISE_PHRASES
        )
        #: local name -> fully dotted import target.
        self.aliases: dict[str, str] = {}
        self._collect_aliases(tree)
        #: def-line -> schema declaration target (``NAME`` or ``mod:NAME``).
        self.schema_markers: dict[int, str] = {}
        #: line -> suppression directive.
        self.suppressions: dict[int, Suppression] = {}
        self._collect_directives(source)

    # ------------------------------------------------------------------
    # imports
    # ------------------------------------------------------------------
    def _collect_aliases(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for name in node.names:
                    local = name.asname or name.name.split(".", 1)[0]
                    # ``import numpy.random`` binds ``numpy``; map the
                    # bound name to its own top-level module path.
                    target = name.name if name.asname else local
                    self.aliases[local] = target
            elif isinstance(node, ast.ImportFrom):
                if node.level:  # relative import: keep the tail only
                    base = node.module or ""
                else:
                    base = node.module or ""
                for name in node.names:
                    if name.name == "*":
                        continue
                    local = name.asname or name.name
                    target = f"{base}.{name.name}" if base else name.name
                    self.aliases[local] = target

    def dotted(self, node: ast.AST) -> str | None:
        """Raw dotted spelling of a Name/Attribute chain (un-resolved)."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
            return ".".join(reversed(parts))
        return None

    def resolve(self, node: ast.AST) -> str | None:
        """Import-verified dotted name of a Name/Attribute chain.

        ``np.random.seed`` -> ``numpy.random.seed`` when ``np`` was
        imported as numpy; ``None`` when the chain's root is not an
        imported name (locals and builtins never resolve).
        """
        raw = self.dotted(node)
        if raw is None:
            return None
        root, _, rest = raw.partition(".")
        target = self.aliases.get(root)
        if target is None:
            return None
        return f"{target}.{rest}" if rest else target

    def call_name(self, node: ast.Call) -> str | None:
        """Import-verified dotted name of a call's callee (or None)."""
        return self.resolve(node.func)

    # ------------------------------------------------------------------
    # comment directives
    # ------------------------------------------------------------------
    def _collect_directives(self, source: str) -> None:
        try:
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            comments = [
                (token.start[0], token.string)
                for token in tokens
                if token.type == tokenize.COMMENT
            ]
        except (tokenize.TokenError, IndentationError):  # pragma: no cover
            return
        for line, comment in comments:
            match = _DIRECTIVE_RE.match(comment)
            if match is None:
                continue
            body = match.group("body")
            disable = _DISABLE_RE.search(body)
            if disable is not None:
                rule_ids = tuple(
                    rule_id.strip()
                    for rule_id in disable.group("ids").split(",")
                    if rule_id.strip()
                )
                if rule_ids:
                    self.suppressions[line] = Suppression(line, rule_ids)
            schema = _SCHEMA_RE.search(body)
            if schema is not None:
                self.schema_markers[line] = schema.group("target")

    # ------------------------------------------------------------------
    # AST helpers shared by rules
    # ------------------------------------------------------------------
    def function_defs(self) -> list[ast.FunctionDef | ast.AsyncFunctionDef]:
        """Every function/method definition in the file."""
        return [
            node
            for node in ast.walk(self.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]

    def package_root(self) -> Path | None:
        """Directory *containing* the linted file's top-level package.

        Walks up while ``__init__.py`` markers continue — the anchor
        cross-module ``schema=pkg.mod:NAME`` references resolve against.
        """
        here = Path(self.path).resolve().parent
        if not (here / "__init__.py").exists():
            return None
        while (here.parent / "__init__.py").exists():
            here = here.parent
        return here.parent


def parameter_names(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> set[str]:
    """All parameter names of a function definition."""
    args = node.args
    names = {arg.arg for arg in args.posonlyargs}
    names.update(arg.arg for arg in args.args)
    names.update(arg.arg for arg in args.kwonlyargs)
    if args.vararg is not None:
        names.add(args.vararg.arg)
    if args.kwarg is not None:
        names.add(args.kwarg.arg)
    return names
