"""CLI and JSON-contract tests for ``repro-dpm lint``.

The JSON shape is consumed by CI (artifact upload) and by
``benchmarks/bench_lint.py``; these tests pin it so a field rename is
an explicit, versioned decision rather than an accident.
"""

from __future__ import annotations

import json

import pytest

from repro.lint import lint_paths, lint_source
from repro.lint.cli import main as lint_main
from repro.lint.driver import JSON_SCHEMA_VERSION
from repro.tool.cli import main as tool_main

CLEAN = "def double(x):\n    return 2 * x\n"
DIRTY = "import numpy as np\n\nnp.random.seed(7)\n"


@pytest.fixture
def tree(tmp_path):
    (tmp_path / "clean.py").write_text(CLEAN)
    sub = tmp_path / "pkg"
    sub.mkdir()
    (sub / "__init__.py").write_text("")
    (sub / "dirty.py").write_text(DIRTY)
    return tmp_path


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(CLEAN)
        assert lint_main([str(tmp_path)]) == 0
        assert "lint clean" in capsys.readouterr().out

    def test_findings_exit_one(self, tree, capsys):
        assert lint_main([str(tree)]) == 1
        out = capsys.readouterr().out
        assert "RNG001" in out
        assert "dirty.py:3" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "nowhere")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_select_subsets_rules(self, tree):
        # RNG001 excluded -> the only finding disappears
        assert lint_main([str(tree), "--select", "HSH001,HSH002"]) == 0

    def test_unknown_rule_id_exits_two(self, tree, capsys):
        assert lint_main([str(tree), "--select", "BOGUS1"]) == 2
        assert "BOGUS1" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RNG001", "HSH001", "FLT001", "SCH001"):
            assert rule_id in out


class TestJsonOutput:
    def test_report_schema_is_pinned(self, tree, capsys):
        assert lint_main([str(tree), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "version",
            "files_checked",
            "clean",
            "counts",
            "findings",
        }
        assert payload["version"] == JSON_SCHEMA_VERSION
        assert payload["files_checked"] == 3
        assert payload["clean"] is False
        assert payload["counts"] == {"RNG001": 1}

    def test_finding_schema_is_pinned(self, tree, capsys):
        lint_main([str(tree), "--json"])
        payload = json.loads(capsys.readouterr().out)
        (finding,) = payload["findings"]
        assert set(finding) == {
            "path",
            "line",
            "col",
            "rule",
            "severity",
            "message",
            "fix_hint",
        }
        assert finding["rule"] == "RNG001"
        assert finding["line"] == 3
        assert finding["severity"] == "error"
        assert finding["path"].endswith("dirty.py")

    def test_clean_json_report(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(CLEAN)
        assert lint_main([str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert payload["findings"] == []
        assert payload["counts"] == {}


class TestToolIntegration:
    def test_repro_dpm_lint_subcommand(self, tree, capsys):
        assert tool_main(["lint", str(tree)]) == 1
        assert "RNG001" in capsys.readouterr().out

    def test_repro_dpm_lint_json(self, tree, capsys):
        assert tool_main(["lint", str(tree), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == JSON_SCHEMA_VERSION

    def test_module_entrypoint_importable(self):
        import repro.lint.__main__  # noqa: F401


class TestReportObject:
    def test_stale_suppression_fails_the_gate(self):
        # SUP001 is error severity: a stale directive is a blind spot,
        # so it must flip the report to not-clean on its own
        findings = lint_source(
            "w.py",
            "x = 1  # repro-lint: disable=RNG001\n",
        )
        assert [(f.rule_id, f.severity) for f in findings] == [
            ("SUP001", "error")
        ]

    def test_lint_paths_accepts_single_file(self, tree):
        report = lint_paths([tree / "pkg" / "dirty.py"])
        assert report.files_checked == 1
        assert not report.clean
