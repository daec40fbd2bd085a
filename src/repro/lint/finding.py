"""The unit of lint output: one :class:`Finding` per violation.

A finding pins a rule violation to an exact ``file:line:col`` location
and carries the machine-readable rule id (what CI gates and inline
``# repro-lint: disable=...`` comments match on), a human message, and
a fix hint explaining how to restore the contract the rule protects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Severity levels, mirrored in the JSON output schema.
ERROR = "error"
WARNING = "warning"

_SEVERITY_ORDER = {ERROR: 0, WARNING: 1}


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Attributes
    ----------
    path:
        File the finding is in (as given to the driver).
    line / col:
        1-indexed line and 0-indexed column of the offending node.
    rule_id:
        Stable machine id (``RNG001``, ``HSH002``, ...) — the key that
        suppression comments and the JSON output match on.
    severity:
        ``"error"`` findings fail the lint run; ``"warning"`` findings
        are reported but do not (none of the initial battery warns —
        every reproducibility contract here is load-bearing).
    message:
        What is wrong, in terms of the violated contract.
    fix_hint:
        How to fix it (or how to suppress it when it is a justified
        false positive).
    """

    path: str
    line: int
    col: int
    rule_id: str
    severity: str
    message: str
    fix_hint: str = field(default="")

    def sort_key(self) -> tuple[str, int, int, str]:
        """Deterministic report ordering: path, line, col, rule."""
        return (self.path, self.line, self.col, self.rule_id)

    def severity_rank(self) -> int:
        """0 for errors, 1 for warnings (for summaries)."""
        return _SEVERITY_ORDER.get(self.severity, 1)

    def render(self) -> str:
        """One-line text rendering (``path:line:col: ID message [hint]``)."""
        text = f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"
        if self.fix_hint:
            text += f" [{self.fix_hint}]"
        return text

    def as_dict(self) -> dict[str, object]:
        """JSON-ready mapping (pinned by ``tests/test_lint_cli.py``)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "severity": self.severity,
            "message": self.message,
            "fix_hint": self.fix_hint,
        }
