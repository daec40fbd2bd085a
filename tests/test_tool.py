"""Tests for the tool layer: specs, the Fig. 7 pipeline, and the CLI."""

import json
import os
from typing import ClassVar

import numpy as np
import pytest

from repro.sim import make_rng
from repro.tool.cli import main as cli_main
from repro.tool.pipeline import optimize_spec, run_pipeline
from repro.tool.spec import load_spec, parse_spec
from repro.traces import Trace, mmpp2_trace
from repro.util.validation import ValidationError


def example_spec_dict() -> dict:
    return {
        "name": "example",
        "gamma": 0.99999,
        "queue_capacity": 1,
        "time_resolution": 1.0,
        "provider": {
            "states": ["on", "off"],
            "commands": ["s_on", "s_off"],
            "transitions": {
                "s_on": [[1.0, 0.0], [0.1, 0.9]],
                "s_off": [[0.2, 0.8], [0.0, 1.0]],
            },
            "service_rates": [[0.8, 0.0], [0.0, 0.0]],
            "power": [[3.0, 4.0], [4.0, 0.0]],
        },
        "requester": {
            "states": ["0", "1"],
            "transitions": [[0.95, 0.05], [0.15, 0.85]],
            "arrivals": [0, 1],
        },
        "initial_state": ["on", "0", 0],
        "objective": "power",
        "constraints": {"penalty": 0.5, "loss": 0.2},
    }


class TestSpecParsing:
    def test_roundtrip(self):
        spec = parse_spec(example_spec_dict())
        assert spec.name == "example"
        assert spec.provider.n_states == 2
        assert spec.requester.n_states == 2
        assert spec.constraints == {"penalty": 0.5, "loss": 0.2}

    def test_compose(self):
        spec = parse_spec(example_spec_dict())
        system, costs, p0 = spec.compose()
        assert system.n_states == 8
        assert costs.has_metric("power")
        assert p0[system.state_index("on", "0", 0)] == 1.0

    def test_missing_provider(self):
        raw = example_spec_dict()
        del raw["provider"]
        with pytest.raises(ValidationError, match="provider"):
            parse_spec(raw)

    def test_missing_provider_field(self):
        raw = example_spec_dict()
        del raw["provider"]["power"]
        with pytest.raises(ValidationError, match="power"):
            parse_spec(raw)

    def test_bad_gamma(self):
        raw = example_spec_dict()
        raw["gamma"] = 1.5
        with pytest.raises(ValidationError, match="gamma"):
            parse_spec(raw)

    def test_bad_initial_state(self):
        raw = example_spec_dict()
        raw["initial_state"] = ["on", "0"]
        with pytest.raises(ValidationError, match="initial_state"):
            parse_spec(raw)

    def test_stochastic_error_propagates(self):
        raw = example_spec_dict()
        raw["provider"]["transitions"]["s_on"] = [[0.5, 0.4], [0.1, 0.9]]
        with pytest.raises(ValidationError):
            parse_spec(raw)

    def test_requester_optional(self):
        raw = example_spec_dict()
        raw["requester"] = None
        spec = parse_spec(raw)
        assert spec.requester is None
        with pytest.raises(ValidationError, match="no requester"):
            spec.compose()

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(example_spec_dict()))
        spec = load_spec(path)
        assert spec.name == "example"

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValidationError, match="JSON"):
            load_spec(path)


class TestPipeline:
    def test_optimize_spec(self):
        spec = parse_spec(example_spec_dict())
        optimizer, result = optimize_spec(spec)
        result.require_feasible()
        assert result.average("power") == pytest.approx(1.7383, abs=2e-3)

    def test_optimize_spec_average_formulation(self):
        spec = parse_spec(example_spec_dict())
        _, result = optimize_spec(spec, formulation="average")
        result.require_feasible()
        # Long-run average optimum sits next to the discounted one at
        # gamma = 0.99999.
        assert result.average("power") == pytest.approx(1.7386, abs=2e-3)
        assert result.evaluation.expected_horizon == float("inf")

    def test_optimize_spec_unknown_formulation(self):
        spec = parse_spec(example_spec_dict())
        with pytest.raises(ValidationError, match="formulation"):
            optimize_spec(spec, formulation="quantum")

    def test_waiting_metric_constraint(self):
        raw = example_spec_dict()
        raw["constraints"] = {"waiting": 2.0, "loss": 0.2}
        spec = parse_spec(raw)
        _, result = optimize_spec(spec)
        result.require_feasible()
        assert result.average("waiting") <= 2.0 + 1e-7
        rate = 0.25  # stationary arrival rate of the example workload
        assert result.average("penalty") == pytest.approx(
            result.average("waiting") * rate, rel=1e-9
        )

    def test_pipeline_without_trace(self):
        spec = parse_spec(example_spec_dict())
        report = run_pipeline(spec, rng=make_rng(0), verify_slices=20_000)
        assert report.optimization.feasible
        assert report.markov_simulation is not None
        assert report.trace_simulation is None
        assert report.markov_simulation.averages["power"] == pytest.approx(
            report.optimization.average("power"), rel=0.15, abs=0.1
        )

    def test_pipeline_with_trace_extraction(self):
        spec = parse_spec(example_spec_dict())
        spec.requester = None  # force extraction
        trace = mmpp2_trace(0.95, 0.85, 60_000, 1.0, make_rng(1))
        report = run_pipeline(
            spec, trace=trace, rng=make_rng(2), verify_slices=20_000
        )
        assert report.sr_model is not None
        assert report.sr_model.matrix[0, 0] == pytest.approx(0.95, abs=0.02)
        assert report.optimization.feasible
        assert report.trace_simulation is not None
        # Trace-driven power agrees with the model prediction (the
        # workload really is Markovian here).
        assert report.trace_simulation.averages["power"] == pytest.approx(
            report.optimization.average("power"), rel=0.15, abs=0.1
        )

    def test_trace_column_reports_measured_overflow(self):
        # Three requests land in every fourth slice.  The fitted model
        # clips arrivals to one per slice, so the overflow it expects
        # along the tracked states is far below what the trace loses.
        spec = parse_spec(example_spec_dict())
        spec.requester = None
        trace = Trace(np.repeat(np.arange(0.5, 4000.0, 4.0), 3), duration=4000.0)
        report = run_pipeline(spec, trace=trace, rng=make_rng(2), verify_slices=2000)
        replay = report.trace_simulation
        measured = replay.lost / replay.n_slices
        assert measured > 2 * replay.averages["overflow"] + 0.1
        row = next(
            line.split()
            for line in report.summary().splitlines()
            if line.split()[:1] == ["overflow"]
        )
        assert float(row[3]) == pytest.approx(measured, abs=1e-4)

    def test_pipeline_infeasible_constraints(self):
        spec = parse_spec(example_spec_dict())
        spec.constraints = {"penalty": 0.01}
        report = run_pipeline(spec, rng=make_rng(0))
        assert not report.optimization.feasible
        assert "INFEASIBLE" in report.summary()

    def test_pipeline_no_verification(self):
        spec = parse_spec(example_spec_dict())
        report = run_pipeline(spec, rng=None)
        assert report.markov_simulation is None
        assert report.optimization.feasible

    def test_summary_renders(self):
        spec = parse_spec(example_spec_dict())
        report = run_pipeline(spec, rng=make_rng(0), verify_slices=5000)
        text = report.summary()
        assert "power" in text
        assert "analytic" in text


class TestCLI:
    @pytest.fixture()
    def spec_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(example_spec_dict()))
        return str(path)

    def test_optimize(self, spec_file, capsys):
        code = cli_main(["optimize", spec_file, "--no-verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert "policy: randomized" in out

    def test_optimize_print_policy(self, spec_file, capsys):
        code = cli_main(["optimize", spec_file, "--no-verify", "--print-policy"])
        out = capsys.readouterr().out
        assert code == 0
        assert "(on,0,0)" in out

    def test_optimize_average_formulation(self, spec_file, capsys):
        code = cli_main(["optimize", spec_file, "--no-verify", "--average"])
        out = capsys.readouterr().out
        assert code == 0
        assert "policy: randomized" in out

    def test_optimize_profile(self, spec_file, capsys):
        code = cli_main(
            [
                "optimize",
                spec_file,
                "--no-verify",
                "--lp-backend",
                "simplex",
                "--profile",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "lp solve profile" in out
        assert "iterations" in out and "refactorizations" in out
        assert "fill-in" in out and "pricing" in out

    def test_optimize_profile_backend_without_stats(self, spec_file, capsys):
        code = cli_main(
            [
                "optimize",
                spec_file,
                "--no-verify",
                "--lp-backend",
                "interior-point",
                "--profile",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "reported no solve statistics" in out

    def test_optimize_infeasible_exit_code(self, spec_file, tmp_path, capsys):
        raw = example_spec_dict()
        raw["constraints"] = {"penalty": 0.001}
        bad = tmp_path / "bad_spec.json"
        bad.write_text(json.dumps(raw))
        assert cli_main(["optimize", str(bad), "--no-verify"]) == 1

    def test_pareto(self, spec_file, capsys):
        code = cli_main(
            ["pareto", spec_file, "--bounds", "0.3,0.5,0.7", "--constraint", "penalty"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "trade-off curve" in out
        assert out.count("yes") == 3

    def test_pareto_profile(self, spec_file, capsys):
        code = cli_main(
            [
                "pareto",
                spec_file,
                "--bounds",
                "0.3,0.5,0.7",
                "--constraint",
                "penalty",
                "--lp-backend",
                "simplex",
                "--profile",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "simplex iterations" in out
        assert "refactorizations across" in out
        assert "representative solve" in out

    def test_experiment_list(self, capsys):
        code = cli_main(["experiment", "list"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fig8" in out
        assert "table1" in out

    def test_experiment_run(self, capsys):
        code = cli_main(["experiment", "table1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Travelstar" in out

    def test_experiment_unknown_id(self, capsys):
        code = cli_main(["experiment", "fig99"])
        assert code == 2

    def test_experiment_backend_flags_forwarded(self, capsys):
        # fig9a accepts --lp-backend; table1 does not — both must run
        # (the registry forwards only what a driver's signature takes).
        code = cli_main(["experiment", "fig9a", "--lp-backend", "scipy"])
        out = capsys.readouterr().out
        assert code == 0
        assert "web server" in out
        assert cli_main(["experiment", "table1", "--lp-backend", "scipy"]) == 0

    def test_fleet_run(self, capsys, tmp_path):
        spec = {
            "name": "cli-test",
            "slices_per_tick": 50,
            "groups": [
                {
                    "id": "ex",
                    "count": 3,
                    "system": "example",
                    "agent": {"type": "optimal", "penalty_bound": 0.5},
                    "seed": 1,
                }
            ],
        }
        spec_path = tmp_path / "fleet.json"
        spec_path.write_text(json.dumps(spec))
        telemetry = tmp_path / "telemetry.jsonl"
        checkpoint = tmp_path / "fleet.ckpt"
        code = cli_main(
            [
                "fleet",
                str(spec_path),
                "--ticks",
                "2",
                "--telemetry",
                str(telemetry),
                "--checkpoint",
                str(checkpoint),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "3 devices" in out
        assert "1 batch group(s)" in out
        assert "ran 2 tick(s) in " in out and " ms/tick)" in out
        assert len(telemetry.read_text().splitlines()) == 2
        assert checkpoint.exists()

        # Resume continues from the checkpoint and appends telemetry.
        code = cli_main(
            [
                "fleet",
                "--resume",
                str(checkpoint),
                "--ticks",
                "1",
                "--telemetry",
                str(telemetry),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "resumed fleet" in out
        assert "after tick 3" in out
        assert len(telemetry.read_text().splitlines()) == 3

    def test_fleet_requires_spec_or_resume(self, capsys):
        assert cli_main(["fleet", "--ticks", "1"]) == 2
        assert "fleet spec is required" in capsys.readouterr().err

    def test_extract(self, tmp_path, capsys):
        trace = Trace([2, 5, 6, 7, 12], duration=13)
        path = tmp_path / "trace.txt"
        trace.save(path)
        code = cli_main(["extract", str(path), "--resolution", "1.0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "2 states" in out

    def test_missing_file_error(self, capsys):
        code = cli_main(["optimize", "/nonexistent/spec.json"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestResumeFlags:
    """``--telemetry-every`` on ``--resume``: an absent flag keeps the
    checkpoint's value, a given one overrides it.  What no flag can
    override is refused: a checkpoint stepped at another chunk length
    or saved with ``backend: "loop"``, and an unindexed or reused group
    registration (the checkpoint does not record the daemon's group
    counter)."""

    SPEC: ClassVar[dict] = {
        "name": "resume-flags",
        "slices_per_tick": 50,
        "groups": [
            {
                "id": "ex",
                "count": 4,
                "system": "example",
                "agent": {"type": "eager", "active": "s_on", "sleep": "s_off"},
            }
        ],
    }

    def _spec_file(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(self.SPEC))
        return path

    def _fleet(self, *args):
        assert cli_main(["fleet", *map(str, args), "--per-device"]) == 0

    def _checkpoint(self, tmp_path, *flags, **saved):
        """Two ticks of telemetry plus a checkpoint whose ``saved``
        payload fields are rewritten."""
        from repro.runtime import load_checkpoint
        from repro.runtime.checkpoint import write_checkpoint

        telemetry = tmp_path / "got.jsonl"
        checkpoint = tmp_path / "fleet.ckpt"
        outputs = ("--telemetry", telemetry, "--checkpoint", checkpoint)
        self._fleet(self._spec_file(tmp_path), "--ticks", 2, *outputs, *flags)
        if saved:
            payload = load_checkpoint(checkpoint)
            payload.update(saved)
            write_checkpoint(checkpoint, payload)
        return checkpoint, telemetry

    def test_fleet_resume_of_jit_checkpoint_is_byte_identical(self, tmp_path):
        reference = tmp_path / "ref.jsonl"
        spec = self._spec_file(tmp_path)
        self._fleet(spec, "--ticks", 4, "--telemetry", reference)
        checkpoint, telemetry = self._checkpoint(tmp_path, backend="jit")
        self._fleet("--resume", checkpoint, "--ticks", 2, "--telemetry", telemetry)
        assert telemetry.read_bytes() == reference.read_bytes()

    def _cadence_reference(self, tmp_path):
        """Six uninterrupted ticks of telemetry every third tick, and a
        checkpoint of the same run after two ticks."""
        reference = tmp_path / "ref.jsonl"
        every = ("--telemetry-every", 3)
        spec = self._spec_file(tmp_path)
        self._fleet(spec, "--ticks", 6, *every, "--telemetry", reference)
        checkpoint, telemetry = self._checkpoint(tmp_path, *every)
        return reference, checkpoint, telemetry

    def test_fleet_resume_keeps_telemetry_cadence(self, tmp_path):
        reference, checkpoint, telemetry = self._cadence_reference(tmp_path)
        self._fleet("--resume", checkpoint, "--ticks", 4, "--telemetry", telemetry)
        assert telemetry.read_bytes() == reference.read_bytes()

    @staticmethod
    def _serve_args(tmp_path, checkpoint, *flags):
        serve = ["serve", "--resume", str(checkpoint), "--socket", str(tmp_path / "s")]
        return [*serve, "--checkpoint-every", "0", *map(str, flags)]

    @staticmethod
    def _serve(capsys, serve, drive):
        """Run ``serve`` on a thread, ``drive`` a client, shut it down."""
        import threading
        import time

        from repro.service import ServiceClient

        socket_path = serve[serve.index("--socket") + 1]
        codes = []
        thread = threading.Thread(
            target=lambda: codes.append(cli_main(serve)), daemon=True
        )
        thread.start()
        deadline = time.monotonic() + 60
        while not os.path.exists(socket_path):
            assert thread.is_alive(), capsys.readouterr().err
            assert time.monotonic() < deadline, "daemon never bound its socket"
            time.sleep(0.01)
        with ServiceClient(socket_path, timeout=60) as client:
            result = drive(client)
            client.shutdown()
        thread.join(timeout=60)
        assert codes == [0]
        return result

    def test_serve_resume_honours_backend(self, tmp_path, capsys):
        # A jit checkpoint resumes as it is; only "loop" is refused.
        checkpoint, _ = self._checkpoint(tmp_path, backend="jit")
        serve = self._serve_args(tmp_path, checkpoint, "--shards", 1)
        info = self._serve(capsys, serve, lambda client: client.info())
        assert "backend" not in info
        assert info["tick"] == 2

    def test_resume_refuses_a_loop_checkpoint(self, tmp_path, capsys):
        from repro.runtime import FleetController

        checkpoint, _ = self._checkpoint(tmp_path, backend="loop")
        with pytest.raises(ValidationError, match="backend='loop'"):
            FleetController.resume(checkpoint)
        capsys.readouterr()
        fleet = ["fleet", "--resume", str(checkpoint), "--ticks", "1"]
        assert cli_main(fleet) == 2
        assert "backend='loop'" in capsys.readouterr().err
        serve = self._serve_args(tmp_path, checkpoint, "--shards", 1)
        assert cli_main(serve) == 2
        assert "backend='loop'" in capsys.readouterr().err

    def test_resume_refuses_another_chunk_pin(self, tmp_path, capsys):
        from repro.runtime import FleetController

        checkpoint, _ = self._checkpoint(tmp_path, chunk_slices=128)
        with pytest.raises(ValidationError, match="chunk_slices=128"):
            FleetController.resume(checkpoint)
        capsys.readouterr()
        fleet = ["fleet", "--resume", str(checkpoint), "--ticks", "1"]
        assert cli_main(fleet) == 2
        assert "chunk_slices=128" in capsys.readouterr().err
        serve = self._serve_args(tmp_path, checkpoint, "--shards", 1)
        assert cli_main(serve) == 2
        assert "chunk_slices=128" in capsys.readouterr().err

    def test_resumed_daemon_needs_an_explicit_group_index(
        self, tmp_path, capsys
    ):
        from repro.service import ServiceError

        checkpoint, _ = self._checkpoint(tmp_path)
        group = {**self.SPEC["groups"][0], "count": 2}
        del group["id"]

        def drive(client):
            # Group 0's index would reuse its seed, so its streams.
            with pytest.raises(ServiceError, match="--group-index"):
                client.register_group(group)
            explicit = client.register_group(group, group_index=1)
            with pytest.raises(ServiceError, match="group index 1"):
                client.register_group(group, group_index=1)
            following = client.register_group(group)
            return explicit, following, client.info()["n_devices"]

        serve = self._serve_args(tmp_path, checkpoint, "--shards", 1)
        explicit, following, n_devices = self._serve(capsys, serve, drive)
        assert explicit["group_index"] == 1
        assert explicit["device_ids"] == ["g1-0000", "g1-0001"]
        assert following["group_index"] == 2
        assert n_devices == 8

    def test_serve_resume_keeps_telemetry_cadence(self, tmp_path, capsys):
        reference, checkpoint, telemetry = self._cadence_reference(tmp_path)
        serve = self._serve_args(
            tmp_path, checkpoint, "--shards", 2, "--telemetry", telemetry
        )
        self._serve(capsys, serve, lambda client: client.step(4))
        assert telemetry.read_bytes() == reference.read_bytes()


class TestFitCLI:
    """The estimation pipeline behind ``repro-dpm fit``."""

    @pytest.fixture()
    def trace_file(self, tmp_path):
        trace = mmpp2_trace(0.95, 0.85, 6000, 1.0, make_rng(0))
        path = tmp_path / "trace.txt"
        trace.save(path)
        return str(path)

    @pytest.fixture()
    def spec_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(example_spec_dict()))
        return str(path)

    def test_report_only(self, trace_file, capsys):
        code = cli_main(["fit", trace_file, "--resolution", "1.0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "arrival-chain selection" in out
        assert "chi-square" in out

    def test_out_requires_provider(self, trace_file, tmp_path, capsys):
        code = cli_main(
            ["fit", trace_file, "--resolution", "1.0",
             "--out", str(tmp_path / "sys.json")]
        )
        assert code == 2
        assert "provider" in capsys.readouterr().err

    def test_provider_sources_are_exclusive(
        self, trace_file, spec_file, capsys
    ):
        code = cli_main(
            ["fit", trace_file, "--resolution", "1.0",
             "--provider-spec", spec_file, "--provider-log", spec_file]
        )
        assert code == 2

    def test_report_json_written(self, trace_file, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = cli_main(
            ["fit", trace_file, "--resolution", "1.0",
             "--report", str(report_path)]
        )
        assert code == 0
        document = json.loads(report_path.read_text())
        assert document["valid"] is True
        assert document["selection"]["selected"]["memory"] >= 1

    def test_provider_log_fit(self, trace_file, tmp_path, capsys):
        from repro.estimation import sample_provider_log
        from repro.systems.example_system import build_provider

        log_path = tmp_path / "provider.jsonl"
        sample_provider_log(
            build_provider(), 5000, make_rng(1)
        ).save_jsonl(log_path)
        out_path = tmp_path / "sys.json"
        code = cli_main(
            ["fit", trace_file, "--resolution", "1.0",
             "--provider-log", str(log_path), "--out", str(out_path),
             "--queue-capacity", "1"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "provider fit" in out
        spec = load_spec(out_path)
        assert spec.provider.n_states == 2

    def test_fit_output_feeds_optimize_exactly(
        self, trace_file, spec_file, tmp_path, capsys
    ):
        """Acceptance: the fit CLI's spec reproduces the directly-built
        system's optimal power within 1e-6."""
        out_path = tmp_path / "fitted.json"
        code = cli_main(
            ["fit", trace_file, "--resolution", "1.0", "--memory", "1",
             "--smoothing", "0.0",
             "--provider-spec", spec_file, "--out", str(out_path)]
        )
        assert code == 0
        capsys.readouterr()

        # The CLI-emitted spec, solved through the optimize pipeline.
        fitted_spec = load_spec(out_path)
        _, via_cli = optimize_spec(fitted_spec)

        # The same fit constructed directly in memory.
        from repro.core.optimizer import PolicyOptimizer
        from repro.estimation import assemble_system
        from repro.traces import SRExtractor

        trace = Trace.load(trace_file)
        model = SRExtractor(memory=1, smoothing=0.0).fit_trace(trace, 1.0)
        system, costs = assemble_system(
            parse_spec(example_spec_dict()).provider, model,
            queue_capacity=1,
        )
        direct = PolicyOptimizer(
            system,
            costs,
            gamma=fitted_spec.gamma,
            initial_distribution=system.uniform_distribution(),
        ).optimize(
            "power", "min", upper_bounds={"penalty": 0.5, "loss": 0.2}
        )
        assert via_cli.feasible and direct.feasible
        assert via_cli.evaluation.averages["power"] == pytest.approx(
            direct.evaluation.averages["power"], abs=1e-6
        )

    def test_fleet_out_builds(self, trace_file, spec_file, tmp_path, capsys):
        fleet_path = tmp_path / "fleet.json"
        code = cli_main(
            ["fit", trace_file, "--resolution", "1.0",
             "--provider-spec", spec_file,
             "--fleet-out", str(fleet_path), "--count", "3"]
        )
        assert code == 0
        capsys.readouterr()
        assert (
            cli_main(
                ["fleet", str(fleet_path), "--ticks", "1",
                 "--slices-per-tick", "50"]
            )
            == 0
        )
        assert "3 devices" in capsys.readouterr().out

    def test_strict_flags_nonstationary(self, tmp_path, capsys):
        from repro.traces import merge_traces

        calm = mmpp2_trace(0.995, 0.4, 5000, 1.0, make_rng(2))
        storm = mmpp2_trace(0.5, 0.97, 5000, 1.0, make_rng(3))
        path = tmp_path / "mixed.txt"
        merge_traces([calm, storm]).save(path)
        code = cli_main(
            ["fit", str(path), "--resolution", "1.0", "--strict"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "validation: FAILED" in out
