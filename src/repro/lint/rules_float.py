"""Float-determinism rules for files declaring the bitwise contract.

Floating-point addition is not associative: summing the same values in
a different order produces different last-bit results.  Files whose
module docstring promises bitwise / byte-identical behaviour (the
loop/vector backends, telemetry, checkpointing) therefore must not
accumulate floats over iterables whose order is not pinned.  Scoping
to contract-declaring files keeps ordinary statistics code (where
last-bit drift is irrelevant) out of scope.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.context import FileContext
from repro.lint.finding import Finding
from repro.lint.registry import Rule, register
from repro.lint.rules_hash import _unordered_reason

#: Order-sensitive reduction callables (builtin + numpy spellings).
_REDUCTIONS = frozenset({"sum"})
_REDUCTION_DOTTED = frozenset(
    {"math.fsum", "numpy.sum", "numpy.nansum", "numpy.cumsum", "numpy.prod"}
)


@register
class UnorderedFloatReductionRule(Rule):
    """FLT001: no float reductions over unordered iterables."""

    rule_id = "FLT001"
    name = "unordered-float-reduction"
    description = (
        "sum()/np.sum() over a set or other unordered iterable in a "
        "file declaring the bitwise contract"
    )
    contract = (
        "loop/vector byte-parity: float accumulation order is "
        "pinned, so totals are bitwise-reproducible"
    )

    def check(self, context: FileContext) -> Iterator[Finding]:
        if not context.declares_bitwise_contract:
            return
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            name: str | None = None
            if isinstance(node.func, ast.Name) and node.func.id in _REDUCTIONS:
                name = node.func.id
            else:
                resolved = context.call_name(node)
                if resolved in _REDUCTION_DOTTED:
                    name = resolved
            if name is None:
                continue
            target = node.args[0]
            reason = _unordered_reason(context, target)
            if reason is None and isinstance(target, ast.GeneratorExp):
                # sum(f(x) for x in {...}) — look through the genexp.
                reason = _unordered_reason(
                    context, target.generators[0].iter
                )
            if reason is None:
                continue
            yield self.finding(
                context,
                node.lineno,
                node.col_offset,
                f"{name}() reduces over {reason} in a file declaring "
                f"the bitwise contract — float addition order is "
                f"unpinned",
                "reduce over sorted(...) or an explicitly-ordered "
                "array so the summation tree is reproducible",
            )
