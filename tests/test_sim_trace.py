"""Tests for trace-driven simulation (paper Section V, second mode)."""

import numpy as np
import pytest

from repro.core.costs import PENALTY, POWER
from repro.policies import ConstantAgent, EagerAgent, StationaryPolicyAgent
from repro.policies.markov_conversion import eager_markov_policy
from repro.sim import make_rng, simulate, simulate_trace
from repro.sim.trace_sim import NearestArrivalTracker
from repro.traces import mmpp2_trace
from repro.util.validation import ValidationError


class TestBasicReplay:
    def test_arrival_accounting(self, example_bundle, rng):
        counts = np.array([0, 1, 0, 2, 0, 1])
        result = simulate_trace(
            example_bundle.system, example_bundle.costs, ConstantAgent(0), counts, rng
        )
        assert result.n_slices == 6
        assert result.arrivals == 4

    def test_always_on_power(self, example_bundle, rng):
        counts = np.zeros(100, dtype=int)
        result = simulate_trace(
            example_bundle.system,
            example_bundle.costs,
            ConstantAgent(0),
            counts,
            rng,
            initial_provider_state="on",
        )
        assert result.averages[POWER] == pytest.approx(3.0)

    def test_request_conservation(self, example_bundle, rng):
        counts = (np.arange(2000) % 3 == 0).astype(int)
        result = simulate_trace(
            example_bundle.system, example_bundle.costs, EagerAgent(0, 1), counts, rng
        )
        capacity = example_bundle.system.queue.capacity
        assert result.serviced + result.lost <= result.arrivals
        assert result.arrivals - result.serviced - result.lost <= capacity

    def test_custom_penalty_metric(self, cpu_bundle, rng):
        # The CPU costs' penalty is sleep-while-busy, on the tracked SR
        # state: busy exactly when the previous slice had arrivals.
        counts = np.ones(50, dtype=int)
        result = simulate_trace(
            cpu_bundle.system,
            cpu_bundle.costs,
            ConstantAgent(cpu_bundle.metadata["sleep_command"]),
            counts,
            rng,
            initial_provider_state="sleep",
        )
        # Asleep with arrivals every slice: penalty ~ 1 (first slice has
        # no previous arrivals).
        assert result.averages[PENALTY] == pytest.approx(49 / 50)

    def test_zero_probability_transition_unreachable_on_zero_draw(
        self, example_bundle
    ):
        # s_off from off stays off with probability 1 (P(off -> on) = 0);
        # an exact 0.0 uniform must not land on the leading "on" state.
        class ZeroDraws:
            def random(self):
                return 0.0

        system = example_bundle.system
        result = simulate_trace(
            system,
            example_bundle.costs,
            ConstantAgent(system.chain.command_index("s_off")),
            [0, 0, 0],
            ZeroDraws(),
            initial_provider_state="off",
        )
        assert result.provider_occupancy.tolist() == [0, 3]

    def test_rejects_empty_trace(self, example_bundle, rng):
        with pytest.raises(ValidationError):
            simulate_trace(
                example_bundle.system, example_bundle.costs, ConstantAgent(0), [], rng
            )

    def test_rejects_negative_counts(self, example_bundle, rng):
        with pytest.raises(ValidationError):
            simulate_trace(
                example_bundle.system, example_bundle.costs, ConstantAgent(0), [-1], rng
            )

    def test_rejects_bad_agent_command(self, example_bundle, rng):
        with pytest.raises(ValidationError, match="command"):
            simulate_trace(
                example_bundle.system,
                example_bundle.costs,
                ConstantAgent(9),
                [0, 1],
                rng,
            )


class TestTrackers:
    def test_nearest_tracker_binary(self, example_bundle):
        tracker = NearestArrivalTracker(example_bundle.system.requester)
        assert tracker.reset() == 0
        assert tracker.update(1) == 1
        assert tracker.update(0) == 0
        assert tracker.update(5) == 1  # nearest to arrivals=1

    def test_kmemory_tracker_drives_policy(self, rng):
        """Trace-driven simulation with a k-memory tracker exercises the
        extracted model's full state space."""
        from repro.systems import disk_drive

        trace = mmpp2_trace(0.99, 0.8, 30_000, 1e-3, make_rng(1))
        bundle = disk_drive.build_from_trace(trace, memory=2)
        model = bundle.metadata["sr_model"]
        policy = eager_markov_policy(
            bundle.system, "go_active", "go_idle"
        )
        agent = StationaryPolicyAgent(bundle.system, policy)
        result = simulate_trace(
            bundle.system,
            bundle.costs,
            agent,
            trace.discretize(1e-3),
            rng,
            tracker=model.tracker(),
            initial_provider_state="active",
        )
        assert result.n_slices == 30_000
        assert result.arrivals == trace.n_requests


class TestModelFit:
    """The paper's verification idea: when the workload *is* Markovian,
    trace-driven and Markov-driven simulation agree."""

    def test_markovian_workload_agreement(self, rng):
        from repro.systems import example_system

        stay_idle, stay_busy = 0.95, 0.85
        bundle = example_system.build()
        n = 150_000
        trace_counts = mmpp2_trace(
            stay_idle, stay_busy, n, 1.0, make_rng(10)
        ).discretize(1.0)
        if trace_counts.size < n:
            trace_counts = np.pad(trace_counts, (0, n - trace_counts.size))

        agent = EagerAgent(0, 1)
        markov = simulate(
            bundle.system,
            bundle.costs,
            agent,
            n,
            make_rng(11),
            initial_state=("on", "0", 0),
        )
        replay = simulate_trace(
            bundle.system,
            bundle.costs,
            EagerAgent(0, 1),
            trace_counts,
            make_rng(12),
            initial_provider_state="on",
        )
        assert replay.averages[POWER] == pytest.approx(
            markov.averages[POWER], rel=0.05
        )
        assert replay.averages[PENALTY] == pytest.approx(
            markov.averages[PENALTY], rel=0.12, abs=0.02
        )
