"""Tier-1 self-lint: the repo's own sources must satisfy every
``repro.lint`` contract.

This is the analyzer's reason to exist — the rules only defend the
byte-parity and checkpoint contracts if the shipped code passes them.
The acceptance check at the bottom proves the gate has teeth: planting
a canonical violation in a copy of a real module makes the lint fail
with the right rule id.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import lint_paths, lint_source, registered_rules

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


def test_src_lints_clean():
    report = lint_paths([SRC])
    assert report.files_checked > 50
    assert report.clean, "\n".join(f.render() for f in report.findings)
    assert report.findings == []


def test_tests_and_benchmarks_parse():
    # no contract enforcement outside src/, but the analyzer must at
    # least digest the rest of the repo without crashing
    report = lint_paths([REPO_ROOT / "tests", REPO_ROOT / "benchmarks"])
    assert report.files_checked > 20
    assert not any(f.rule_id == "LNT000" for f in report.findings)


def test_registry_is_populated_and_consistent():
    rules = registered_rules()
    assert len(rules) >= 8
    ids = list(rules)
    assert ids == sorted(ids)
    for rule_id, rule in rules.items():
        assert rule.rule_id == rule_id
        assert rule.description
        assert rule.contract
        assert rule.severity in ("error", "warning")


def test_planted_legacy_seed_is_caught():
    source = (SRC / "repro" / "sim" / "rng.py").read_text()
    planted = source + "\n\nimport numpy as np\nnp.random.seed(1234)\n"
    line = planted.count("\n")  # the seed call is the final line
    findings = lint_source("rng.py", planted)
    assert [(f.rule_id, f.line) for f in findings] == [("RNG001", line)]
