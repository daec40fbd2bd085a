"""The benchmark's own tests: BENCHMARK.json shape, tracing neutrality, exact counts.

Each workload runs here at a tiny size (a few hundred devices, short
schedules, one set-up, two small case studies), untraced once and
traced twice at one seed.  Tracing must change timing only: the traced
pass emits the untraced pass's output byte for byte, and two traced
passes record identical counts.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ledger
import run
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Counts that depend on more than seed and code: frame sizes carry the
#: client's pid-derived request keys and the daemon's pid.
_NOT_EXACT = {"protocol.bytes"}


def test_benchmark_json_matches_the_runner():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert document["command"] == ["python3", "perfbench/run.py"]
    assert document["paths"] == ["perfbench"]
    assert {m["name"]: m["unit"] for m in document["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in document["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in document["workloads"]] == list(workloads.WORKLOADS)
    setup = next(m for m in document["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in document["end_to_end"])


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every schedule and case list to test size."""
    from repro.systems import cpu, example_system

    monkeypatch.setattr(workloads, "SETUPS", 1)
    monkeypatch.setattr(workloads, "MIN_STEPS", 45)
    monkeypatch.setattr(
        workloads,
        "_case_builders",
        lambda: (
            ("example", example_system.build, "penalty"),
            ("cpu", cpu.build, "penalty"),
        ),
    )
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))


SIZES = {
    "fleet-steady": {"n_devices": 300},
    "service-churn": {"n_devices": 120},
    "policy-design": {},
}


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tracing_changes_timing_only(workload, tiny, tmp_path):
    size = SIZES[workload]
    plain_dir = tmp_path / "plain"
    plain_dir.mkdir()
    plain = workloads.WORKLOADS[workload](3, 1, plain_dir, **size)
    assert plain.correct, (plain.checks, plain.notes)

    counts = []
    for attempt in range(2):
        traced, ledgers = run.traced_pass(workload, 3, 1, tmp_path / f"traced{attempt}", **size)
        assert traced.correct, (traced.checks, traced.notes)
        assert traced.digest == plain.digest
        counts.append(
            {k: v for k, v in ledger.merged_counts(ledgers).items() if k not in _NOT_EXACT}
        )
        metrics = run.per_layer(ledgers, workload)
        assert set(metrics) == set(run.PER_LAYER)
        assert metrics["trace.coverage"] > 0.9
    assert counts[0] == counts[1]
    assert counts[0]["op." + {"fleet-steady": "tick", "service-churn": "step",
                              "policy-design": "optimize"}[workload] + ".calls"] > 0


def test_wrappers_are_removed_on_uninstall():
    from repro.runtime.controller import FleetController

    original = FleetController.step_tick
    tracer = ledger.Tracer("bench").install()
    assert FleetController.step_tick is not original
    tracer.uninstall()
    assert FleetController.step_tick is original


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench" / path.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "policy-design",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode != 0
    assert result.stdout.strip() == ""
