"""``repro.lint`` — determinism & backend-parity static analysis.

This repo's reproducibility guarantees — bitwise-identical batch
stepping, explicit RNG threading, content-addressed policy caching,
byte-exact checkpoint/resume — are promised in module
docstrings and enforced by runtime tests.  This package checks them
*structurally*, before anything executes: an AST-based rule battery
(:mod:`~repro.lint.registry`) walks every source file and fails on the
bug classes that silently break reproduction.

Rule families (``python -m repro.lint --list-rules`` for details):

=========  ==========================================================
``RNG00x``  explicit RNG threading (no legacy ``np.random``, no
            ambient/time-based seeding, generators passed in)
``HSH00x``  hash stability (no unordered iteration or unsorted JSON
            feeding content digests)
``FLT001``  float-determinism (no reductions over unordered iterables
            in files declaring the bitwise contract)
``SCH001``  telemetry/checkpoint schema drift (writers checked
            against single-point field declarations)
``SUP001``  unused ``# repro-lint: disable=`` suppressions
=========  ==========================================================

Findings are suppressed inline with ``# repro-lint: disable=RULEID``
on the offending line; every suppression must actually suppress
something.  ``tests/test_lint_self.py`` keeps ``src/`` lint-clean.
"""

from __future__ import annotations

# Importing the rule modules registers the battery.
from repro.lint import (  # noqa: F401  (registration side effect)
    rules_float,
    rules_hash,
    rules_rng,
    rules_schema,
)
from repro.lint.context import FileContext
from repro.lint.driver import (
    JSON_SCHEMA_VERSION,
    PARSE_ERROR_ID,
    LintReport,
    lint_file,
    lint_paths,
    lint_source,
)
from repro.lint.finding import ERROR, WARNING, Finding
from repro.lint.registry import Rule, get_rules, register, registered_rules
from repro.lint.suppress import UNUSED_SUPPRESSION_ID

__all__ = [
    "ERROR",
    "JSON_SCHEMA_VERSION",
    "PARSE_ERROR_ID",
    "UNUSED_SUPPRESSION_ID",
    "WARNING",
    "FileContext",
    "Finding",
    "LintReport",
    "Rule",
    "get_rules",
    "lint_file",
    "lint_paths",
    "lint_source",
    "register",
    "registered_rules",
]
