"""Simulation-path equivalence suite: loop vs vector vs the seed engine.

Four layers of guarantees:

1. **Golden byte-for-byte**: the loop path must reproduce the exact
   pre-refactor engine output for fixed seeds (hex-encoded floats
   captured from the seed revision) — heuristic agents, stationary
   agents, randomized policies, and session mode — and seeded vector
   runs are pinned the same way: a batch, a session run, and the
   kernel's resumable and ragged paths (timeout lanes, counts-driven
   lanes, a lone lane, lanes that end mid-chunk).
2. **Common random numbers**: on an always-issuing workload with a
   fully randomized policy, the loop and vector paths consume
   uniforms in the same order, so a single-lane vector run reproduces
   the loop trajectory *exactly* (counters, commands, occupancy, final
   state; averages to float-summation-order precision).
3. **Statistical**: batched vector replications agree with the
   closed-form policy evaluation and with loop replications within
   Monte-Carlo tolerance.
4. **The rule**: each branch of the engine's path choice equals a
   direct call of the path it picks, on the same stream.

The layers that compare the two paths call :class:`LoopBackend` and
:class:`VectorBackend` directly; the engine itself never runs a single
lane on the vector kernel.
"""

from typing import ClassVar

import numpy as np
import pytest

from repro.core.components import ServiceProvider, ServiceQueue, ServiceRequester
from repro.core.costs import PENALTY, POWER, CostModel
from repro.core.pareto import simulate_curve, trade_off_curve
from repro.core.policy import MarkovPolicy, evaluate_policy
from repro.core.system import PowerManagedSystem
from repro.markov.chain import MarkovChain
from repro.policies import (
    ConstantAgent,
    StationaryAgent,
    StationaryPolicyAgent,
    TimeoutAgent,
)
from repro.policies.markov_conversion import eager_markov_policy
from repro.sim import (
    LoopBackend,
    VectorBackend,
    child_rngs,
    make_rng,
    simulate,
    simulate_many,
    simulate_replications,
    simulate_sessions,
)
from repro.sim.backends import CompiledPolicyBatch
from repro.sim.backends.base import SimulationTables
from repro.sim.backends.vector import TimeoutLanes
from repro.systems import disk_drive, example_system
from repro.util.validation import ValidationError


def _hex(values: dict) -> dict:
    return {name: float.fromhex(h) for name, h in values.items()}


class TestGoldenLoopPath:
    """The default/loop path reproduces the seed engine bit for bit."""

    def test_disk_eager_stationary(self):
        bundle = disk_drive.build()
        policy = eager_markov_policy(bundle.system, "go_active", "go_idle")
        agent = StationaryPolicyAgent(bundle.system, policy)
        result = simulate(
            bundle.system,
            bundle.costs,
            agent,
            20_000,
            make_rng(0),
            initial_state=("active", "0", 0),
        )
        assert result.averages == _hex(
            {
                "loss": "0x1.0cb295e9e1b09p-9",
                "overflow": "0x1.82ee068351d96p-12",
                "penalty": "0x1.30be0ded288cep-8",
                "power": "0x1.00ff972474539p+0",
            }
        )
        assert (
            result.arrivals,
            result.serviced,
            result.lost,
            result.loss_event_slices,
        ) == (45, 35, 10, 41)
        assert result.command_counts.tolist() == [51, 19949, 0, 0, 0]
        assert result.final_state == (1, 0, 0)

    def test_example_randomized_policy(self):
        bundle = example_system.build()
        rows = np.tile([[0.3, 0.7]], (8, 1))
        rows[::2] = [0.6, 0.4]
        policy = MarkovPolicy(rows, ("s_on", "s_off"))
        agent = StationaryPolicyAgent(bundle.system, policy)
        result = simulate(
            bundle.system,
            bundle.costs,
            agent,
            5_000,
            make_rng(123),
            initial_state=("on", "0", 0),
        )
        assert result.averages == _hex(
            {
                "loss": "0x1.d77318fc50481p-3",
                "overflow": "0x1.c9c4da9003d79p-3",
                "penalty": "0x1.bd3c36113404fp-1",
                "power": "0x1.7e00d1b71758ep+0",
            }
        )
        assert (
            result.arrivals,
            result.serviced,
            result.lost,
            result.loss_event_slices,
        ) == (1159, 64, 1094, 1151)
        assert result.command_counts.tolist() == [1717, 3283]
        assert result.provider_occupancy.tolist() == [347, 4653]
        assert result.final_state == (1, 0, 1)

    def test_example_constant_agent(self):
        bundle = example_system.build()
        result = simulate(
            bundle.system, bundle.costs, ConstantAgent(0), 2_000, make_rng(9)
        )
        assert result.averages == _hex(
            {
                "loss": "0x1.46a7ef9db22d1p-3",
                "overflow": "0x1.bce8533b107aap-6",
                "penalty": "0x1.4ed916872b021p-3",
                "power": "0x1.8000000000000p+1",
            }
        )
        assert result.final_state == (0, 1, 1)

    def test_disk_timeout_heuristic(self):
        bundle = disk_drive.build()
        agent = TimeoutAgent(
            50,
            bundle.metadata["active_command"],
            bundle.metadata["sleep_commands"]["standby"],
        )
        result = simulate(
            bundle.system,
            bundle.costs,
            agent,
            5_000,
            make_rng(5),
            initial_state=("active", "0", 0),
        )
        assert result.averages == _hex(
            {
                "loss": "0x1.0624dd2f1a9fcp-7",
                "overflow": "0x1.de4a22b8e78b4p-8",
                "penalty": "0x1.a305532617c1cp-2",
                "power": "0x1.977d955714f12p-1",
            }
        )
        assert result.command_counts.tolist() == [1124, 0, 0, 3876, 0]
        assert result.final_state == (6, 0, 0)

    def test_sessions_loop_golden(self):
        bundle = example_system.build()
        stats = LoopBackend().simulate_sessions(
            bundle.system,
            bundle.costs,
            ConstantAgent(0),
            0.99,
            50,
            make_rng(11),
            initial_state=("on", "0", 0),
        )
        assert stats[POWER].count == 50
        assert stats[POWER].mean == float.fromhex("0x1.edccccccccccdp+7")
        assert stats[POWER].std == float.fromhex("0x1.360a446386265p+8")
        assert stats[PENALTY].mean == float.fromhex("0x1.b851eb851eb85p+3")


def _crn_system():
    """Always-issuing workload: every slice has pending work, so the
    loop draws its service uniform every slice and the vector backend's
    fixed draw schedule (policy, SP, SR, service) aligns with it."""
    provider = ServiceProvider.from_tables(
        states=["on", "off"],
        commands=["s_on", "s_off"],
        transitions={
            "s_on": [[1.0, 0.0], [0.4, 0.6]],
            "s_off": [[0.3, 0.7], [0.0, 1.0]],
        },
        service_rates=[[0.7, 0.1], [0.05, 0.0]],
        power=[[3.0, 4.0], [4.0, 0.5]],
    )
    requester = ServiceRequester(
        MarkovChain([[0.8, 0.2], [0.3, 0.7]], ["lo", "hi"]), arrivals=[1, 2]
    )
    system = PowerManagedSystem(provider, requester, ServiceQueue(3))
    return system, CostModel.standard(system)


def _randomized_policy(system, seed=0):
    rows = np.random.default_rng(seed).uniform(
        0.1, 0.9, size=(system.n_states, system.n_commands)
    )
    rows /= rows.sum(axis=1, keepdims=True)
    return MarkovPolicy(rows, ("s_on", "s_off"))


def _randomized_policies(system, n, seed=0):
    return [_randomized_policy(system, seed + i) for i in range(n)]


def _vector_run(system, costs, agent, n_slices, rng, **kwargs):
    """One lane of the vector kernel, for comparison with the loop."""
    policy = agent.stationary_policy(system)
    return VectorBackend().simulate_batch(
        system, costs, [policy], n_slices, rng, **kwargs
    )[0][0]


def _assert_identical(a, b):
    """Field-by-field byte identity of two SimulationResults."""
    assert a.totals == b.totals
    assert a.averages == b.averages
    assert (
        a.arrivals,
        a.serviced,
        a.lost,
        a.loss_event_slices,
        a.final_state,
        a.n_slices,
    ) == (
        b.arrivals,
        b.serviced,
        b.lost,
        b.loss_event_slices,
        b.final_state,
        b.n_slices,
    )
    assert a.command_counts.tolist() == b.command_counts.tolist()
    assert a.provider_occupancy.tolist() == b.provider_occupancy.tolist()


def _assert_batches_identical(batch_a, batch_b):
    assert len(batch_a) == len(batch_b)
    for reps_a, reps_b in zip(batch_a, batch_b):
        assert len(reps_a) == len(reps_b)
        for a, b in zip(reps_a, reps_b):
            _assert_identical(a, b)


class TestCommonRandomNumbers:
    """Exact-distribution check: identical uniforms, identical paths."""

    @pytest.mark.parametrize("seed", [21, 99, 1234])
    def test_single_lane_trajectories_coincide(self, seed):
        system, costs = _crn_system()
        agent = StationaryPolicyAgent(system, _randomized_policy(system))
        kwargs = dict(initial_state=("on", "lo", 0))
        a = LoopBackend().simulate(
            system, costs, agent, 4_000, make_rng(seed), **kwargs
        )
        b = _vector_run(system, costs, agent, 4_000, make_rng(seed), **kwargs)
        assert a.final_state == b.final_state
        assert (a.arrivals, a.serviced, a.lost, a.loss_event_slices) == (
            b.arrivals,
            b.serviced,
            b.lost,
            b.loss_event_slices,
        )
        assert a.command_counts.tolist() == b.command_counts.tolist()
        assert a.provider_occupancy.tolist() == b.provider_occupancy.tolist()
        for metric in a.averages:
            # Totals accumulate in different float orders (per-slice vs
            # per-chunk); the trajectories themselves are identical.
            assert a.averages[metric] == pytest.approx(
                b.averages[metric], rel=1e-12, abs=1e-12
            )

    def test_deterministic_policy_trajectories_coincide(self):
        # With a fully deterministic policy neither path consumes a
        # policy uniform, so alignment holds there too.
        system, costs = _crn_system()
        policy = MarkovPolicy.constant(0, system.n_states, 2, ("s_on", "s_off"))
        agent = StationaryPolicyAgent(system, policy)
        kwargs = dict(initial_state=("on", "lo", 0))
        a = LoopBackend().simulate(
            system, costs, agent, 3_000, make_rng(8), **kwargs
        )
        b = _vector_run(system, costs, agent, 3_000, make_rng(8), **kwargs)
        assert a.final_state == b.final_state
        assert a.command_counts.tolist() == b.command_counts.tolist()
        assert (a.arrivals, a.serviced, a.lost) == (
            b.arrivals,
            b.serviced,
            b.lost,
        )


def _timeout_batch(system, timeout, active=0, sleep=1):
    """A batch compiled for timeout lanes: the always-``active`` and
    always-``sleep`` constant policies, and the lanes' rule."""
    compiled = CompiledPolicyBatch.compile(
        system,
        [
            MarkovPolicy.constant(command, system.n_states, system.n_commands)
            for command in (active, sleep)
        ],
    )

    def lanes(n_lanes):
        zeros = np.zeros(n_lanes, dtype=np.int64)
        return TimeoutLanes(
            np.arange(n_lanes), zeros + timeout, zeros, zeros + 1, zeros
        )

    return compiled, lanes


def _assert_lane_matches(result, acc, tables):
    """Lane 0 of ``acc`` follows ``result``'s trajectory exactly."""
    assert result.final_state == tuple(int(v) for v in acc.final_state[0])
    assert [
        result.arrivals, result.serviced, result.lost, result.loss_event_slices
    ] == acc.counters[0].tolist()
    assert result.command_counts.tolist() == acc.command_counts[0].tolist()
    assert (
        result.provider_occupancy.tolist()
        == acc.provider_occupancy[0].tolist()
    )
    for i, name in enumerate(tables.metric_names):
        # The loop adds each slice's cost, the kernel a chunk's sum:
        # equal terms, different association.
        assert acc.lane_totals[0, i] == pytest.approx(
            result.totals[name], rel=1e-12, abs=1e-12
        )


class TestKernelLaneKinds:
    """Timeout lanes and counts-driven lanes follow the reference loop."""

    N_SLICES = 3_000

    @pytest.mark.parametrize("timeout, seed", [(0, 8), (2, 21), (5, 99)])
    def test_timeout_lane_follows_the_loop_draw_for_draw(self, timeout, seed):
        system, costs = _crn_system()
        tables = SimulationTables.compile(system, costs)
        agent = TimeoutAgent(timeout, 0, 1)
        loop_rng, kernel_rng = make_rng(seed), make_rng(seed)
        result = LoopBackend().simulate(
            system, costs, agent, self.N_SLICES, loop_rng,
            initial_state=("on", "lo", 0),
        )
        compiled, lanes = _timeout_batch(system, timeout)
        acc = VectorBackend().step_lanes(
            tables, compiled, np.zeros(1, dtype=np.int64),
            np.full(1, self.N_SLICES), (0, 0, 0), kernel_rng,
            timeouts=lanes(1),
        )
        _assert_lane_matches(result, acc, tables)
        assert acc.idle.tolist() == [agent.idle_slices]
        assert acc.prev_arrivals.tolist() == [
            int(system.requester.arrival_counts[result.final_state[1]])
        ]
        assert (
            loop_rng.bit_generator.state == kernel_rng.bit_generator.state
        )

    @pytest.mark.parametrize("seed", [4, 17])
    def test_stream_lane_follows_simulate_trace_draw_for_draw(self, seed):
        from repro.sim.trace_sim import NearestArrivalTracker, simulate_trace

        system, costs = _crn_system()
        tables = SimulationTables.compile(system, costs)
        commands = np.random.default_rng(seed).integers(0, 2, system.n_states)
        policy = MarkovPolicy.deterministic(commands, system.n_commands)
        # At least one arrival every slice, so the loop draws its service
        # uniform every slice; 3 is above every SR state's count.
        trace = np.random.default_rng(seed + 1).integers(
            1, 4, size=self.N_SLICES
        )
        tracker = NearestArrivalTracker(system.requester)
        loop_rng, kernel_rng = make_rng(seed), make_rng(seed)
        result = simulate_trace(
            system, costs, StationaryPolicyAgent(system, policy), trace,
            loop_rng, tracker=tracker,
        )
        acc = VectorBackend().step_lanes(
            tables,
            CompiledPolicyBatch.compile(system, [policy]),
            np.zeros(1, dtype=np.int64),
            np.full(1, self.N_SLICES),
            (0, tracker.reset(), 0),
            kernel_rng,
            counts=trace[:, None],
            count_states=tracker.state_table(),
            prev_arrivals=np.zeros(1, dtype=np.int64),
        )
        assert len(set(result.command_counts.tolist())) > 1
        _assert_lane_matches(result, acc, tables)
        assert acc.prev_arrivals.tolist() == [int(trace[-1])]
        assert (
            loop_rng.bit_generator.state == kernel_rng.bit_generator.state
        )

    def test_stream_lane_loss_events_follow_the_loop(self):
        """Idle slices in the trace: the loop then skips service draws,
        so the draws drift apart, but on a system whose transitions and
        service are certain the uniforms decide nothing and the paths
        must agree exactly.  A loss event is a slice that starts full
        after a slice with arrivals."""
        from repro.sim.trace_sim import NearestArrivalTracker, simulate_trace

        provider = ServiceProvider.from_tables(
            states=["on", "off"],
            commands=["s_on", "s_off"],
            transitions={
                "s_on": [[1.0, 0.0], [1.0, 0.0]],
                "s_off": [[0.0, 1.0], [0.0, 1.0]],
            },
            service_rates=[[1.0, 0.0], [0.0, 0.0]],
            power=[[3.0, 4.0], [4.0, 0.5]],
        )
        requester = ServiceRequester(
            MarkovChain([[0.8, 0.2], [0.3, 0.7]], ["lo", "hi"]), arrivals=[0, 1]
        )
        system = PowerManagedSystem(provider, requester, ServiceQueue(2))
        costs = CostModel.standard(system)
        tables = SimulationTables.compile(system, costs)
        # Always on: one service a slice against a mean of one arrival,
        # so the queue fills and drains.
        policy = MarkovPolicy.constant(0, system.n_states, system.n_commands)
        trace = np.random.default_rng(4).integers(0, 3, size=self.N_SLICES)
        tracker = NearestArrivalTracker(system.requester)
        result = simulate_trace(
            system, costs, StationaryPolicyAgent(system, policy), trace,
            make_rng(0), tracker=tracker,
        )
        acc = VectorBackend().step_lanes(
            tables,
            CompiledPolicyBatch.compile(system, [policy]),
            np.zeros(1, dtype=np.int64),
            np.full(1, self.N_SLICES),
            (0, tracker.reset(), 0),
            make_rng(1),
            counts=trace[:, None],
            count_states=tracker.state_table(),
        )
        assert 0 < result.loss_event_slices < self.N_SLICES // 2
        _assert_lane_matches(result, acc, tables)

    def test_timeout_lanes_match_the_loop_in_distribution(self):
        """Idle-heavy work, so the timeout fires and the loop skips the
        service draw on idle slices: the paths then consume different
        uniforms, and agree only in distribution."""
        provider = _crn_system()[0].provider
        requester = ServiceRequester(
            MarkovChain([[0.95, 0.05], [0.6, 0.4]], ["idle", "busy"]),
            arrivals=[0, 1],
        )
        system = PowerManagedSystem(provider, requester, ServiceQueue(3))
        costs = CostModel.standard(system)
        tables = SimulationTables.compile(system, costs)
        n_runs, n_slices, timeout = 48, 1_500, 3
        loop = [
            LoopBackend().simulate(
                system, costs, TimeoutAgent(timeout, 0, 1), n_slices, rng
            )
            for rng in child_rngs(5, n_runs)
        ]
        compiled, lanes = _timeout_batch(system, timeout)
        acc = VectorBackend().step_lanes(
            tables, compiled, np.zeros(n_runs, dtype=np.int64),
            np.full(n_runs, n_slices), (0, 0, 0), make_rng(6),
            timeouts=lanes(n_runs),
        )
        series = {
            name: (
                [result.averages[name] for result in loop],
                acc.lane_totals[:, i] / n_slices,
            )
            for i, name in enumerate(tables.metric_names)
        }
        series["sleep_occupancy"] = (
            [result.provider_occupancy[1] / n_slices for result in loop],
            acc.provider_occupancy[:, 1] / n_slices,
        )
        sleeping = acc.command_counts[:, 1].sum() / (n_runs * n_slices)
        assert sleeping > 0.3  # the timeout fires
        for name, (a, b) in series.items():
            a, b = np.asarray(a), np.asarray(b)
            se = np.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
            assert abs(a.mean() - b.mean()) <= 4 * se + 1e-12, name

    def test_resumable_runs_need_equal_lengths(self):
        system, costs = _crn_system()
        compiled, lanes = _timeout_batch(system, 2)
        with pytest.raises(ValidationError, match="equal lane lengths"):
            VectorBackend().step_lanes(
                SimulationTables.compile(system, costs), compiled,
                np.zeros(2, dtype=np.int64), np.array([5, 6]), (0, 0, 0),
                make_rng(0), timeouts=lanes(2),
            )


class TestStatisticalEquivalence:
    """Batched vector runs agree with the closed-form evaluation."""

    def test_vector_matches_analytic_disk(self):
        bundle = disk_drive.build()
        policy = eager_markov_policy(bundle.system, "go_active", "go_idle")
        (results,) = VectorBackend().simulate_batch(
            bundle.system,
            bundle.costs,
            [policy],
            40_000,
            child_rngs(3, 1)[0],
            initial_state=("active", "0", 0),
            n_replications=16,
        )
        analytic = evaluate_policy(
            bundle.system,
            bundle.costs,
            policy,
            bundle.gamma,
            bundle.initial_distribution,
        )
        assert len(results) == 16
        mean_power = np.mean([r.averages[POWER] for r in results])
        assert mean_power == pytest.approx(
            analytic.averages[POWER], rel=0.02, abs=0.01
        )

    def test_loop_and_vector_replication_means_agree(self):
        bundle = example_system.build()
        policy = _randomized_policy(bundle.system, seed=5)
        agent = StationaryPolicyAgent(bundle.system, policy)
        common = dict(initial_state=("on", "0", 0), n_replications=8)
        (loop_runs,) = LoopBackend().simulate_many(
            bundle.system, bundle.costs, [agent], 15_000,
            child_rngs(1, 9)[1:], **common,
        )
        (vector_runs,) = VectorBackend().simulate_batch(
            bundle.system, bundle.costs, [policy], 15_000,
            child_rngs(2, 1)[0], **common,
        )
        for metric in (POWER, PENALTY):
            loop_mean = np.mean([r.averages[metric] for r in loop_runs])
            vec_mean = np.mean([r.averages[metric] for r in vector_runs])
            assert loop_mean == pytest.approx(vec_mean, rel=0.08, abs=0.05)

    def test_vector_loss_occupancy_consistency(self):
        # Physical counters stay internally consistent lane by lane.
        bundle = example_system.build()
        policy = MarkovPolicy.constant(1, 8, 2, ("s_on", "s_off"))
        (results,) = VectorBackend().simulate_batch(
            bundle.system, bundle.costs, [policy], 10_000, child_rngs(7, 1)[0],
            initial_state=("on", "0", 0), n_replications=12,
        )
        capacity = bundle.system.queue.capacity
        for r in results:
            assert r.command_counts.sum() == r.n_slices
            assert r.provider_occupancy.sum() == r.n_slices
            assert r.serviced + r.lost <= r.arrivals
            assert r.arrivals - r.serviced - r.lost <= capacity
            assert r.averages["loss"] == pytest.approx(
                r.loss_event_slices / r.n_slices, abs=1e-9
            )

    def test_vector_sessions_estimate_discounted_totals(self):
        bundle = example_system.build()
        gamma = 0.99
        policy = MarkovPolicy.constant(0, 8, 2, ("s_on", "s_off"))
        analytic = evaluate_policy(
            bundle.system,
            bundle.costs,
            policy,
            gamma,
            bundle.initial_distribution,
        )
        agent = StationaryPolicyAgent(bundle.system, policy)
        stats = VectorBackend().simulate_sessions(
            bundle.system,
            bundle.costs,
            agent,
            gamma,
            600,
            make_rng(11),
            initial_state=("on", "0", 0),
        )
        assert stats[POWER].count == 600
        assert stats[POWER].agrees_with(analytic.totals[POWER], confidence=0.999)


class TestDispatch:
    """The one rule: each branch equals a direct call of its path."""

    def test_auto_single_run_is_loop(self):
        system, costs = _crn_system()
        agent = StationaryPolicyAgent(system, _randomized_policy(system))
        kwargs = dict(initial_state=("on", "lo", 0))
        got = simulate(system, costs, agent, 2_000, make_rng(4), **kwargs)
        ref = LoopBackend().simulate(
            system, costs, agent, 2_000, make_rng(4), **kwargs
        )
        _assert_identical(got, ref)

    def test_auto_batched_stationary_is_batch_tier(self):
        system, costs = _crn_system()
        agents = [ConstantAgent(0), *_randomized_policies(system, 2)]
        kwargs = dict(initial_state=("on", "lo", 0), n_replications=3)
        got = simulate_many(system, costs, agents, 1_000, 5, **kwargs)
        policies = [ConstantAgent(0).stationary_policy(system), *agents[1:]]
        ref = VectorBackend().simulate_batch(
            system, costs, policies, 1_000, child_rngs(5, 1)[0], **kwargs
        )
        _assert_batches_identical(got, ref)
        replications = simulate_replications(
            system, costs, agents[1], 1_000, 3, 5, initial_state=("on", "lo", 0)
        )
        (ref,) = VectorBackend().simulate_batch(
            system, costs, [agents[1]], 1_000, child_rngs(5, 1)[0], **kwargs
        )
        _assert_batches_identical([replications], [ref])

    def test_auto_batched_heuristic_is_loop(self):
        system, costs = _crn_system()
        agents = [TimeoutAgent(5, 0, 1), TimeoutAgent(9, 0, 1)]
        assert not any(isinstance(a, StationaryAgent) for a in agents)
        kwargs = dict(initial_state=("on", "lo", 0), n_replications=2)
        got = simulate_many(system, costs, agents, 1_000, 6, **kwargs)
        ref = LoopBackend().simulate_many(
            system, costs, agents, 1_000, child_rngs(6, 5)[1:], **kwargs
        )
        _assert_batches_identical(got, ref)

    def test_vector_rejects_heuristic(self):
        bundle = example_system.build()
        with pytest.raises(ValidationError, match="vector"):
            VectorBackend().simulate_sessions(
                bundle.system,
                bundle.costs,
                TimeoutAgent(5, 0, 1),
                0.9,
                10,
                make_rng(0),
            )

    def test_vector_backend_requires_matching_policy_shape(self):
        bundle = example_system.build()
        other = disk_drive.build()
        policy = MarkovPolicy.constant(
            0, other.system.n_states, other.system.n_commands
        )
        with pytest.raises(ValidationError, match="does not match system"):
            VectorBackend().simulate_batch(
                bundle.system, bundle.costs, [policy], 100, make_rng(0)
            )


class TestSimulateMany:
    def test_shapes_and_order(self):
        bundle = example_system.build()
        policies = [
            MarkovPolicy.constant(0, 8, 2, ("s_on", "s_off")),
            MarkovPolicy.constant(1, 8, 2, ("s_on", "s_off")),
        ]
        results = simulate_many(
            bundle.system,
            bundle.costs,
            policies,
            2_000,
            0,
            n_replications=3,
            initial_state=("on", "0", 0),
        )
        assert len(results) == 2
        assert all(len(reps) == 3 for reps in results)
        # Policy order is preserved: constant-on burns 3 W every slice.
        assert results[0][0].averages[POWER] == pytest.approx(3.0)
        assert results[1][0].averages[POWER] < 3.0

    def test_mixed_agents_grouped_by_backend(self):
        bundle = example_system.build()
        agents = [
            TimeoutAgent(3, 0, 1),
            ConstantAgent(0),
            MarkovPolicy.constant(1, 8, 2, ("s_on", "s_off")),
        ]
        results = simulate_many(
            bundle.system, bundle.costs, agents, 1_500, 4,
            initial_state=("on", "0", 0),
        )
        assert len(results) == 3
        for reps in results:
            assert len(reps) == 1
            assert reps[0].n_slices == 1_500

    def test_reproducible_from_seed(self):
        bundle = example_system.build()
        agents = [TimeoutAgent(3, 0, 1), ConstantAgent(0)]

        def run():
            return simulate_many(
                bundle.system, bundle.costs, agents, 1_000, 42,
                n_replications=2, initial_state=("on", "0", 0),
            )

        a, b = run(), run()
        for reps_a, reps_b in zip(a, b):
            for ra, rb in zip(reps_a, reps_b):
                assert ra.averages == rb.averages
                assert ra.final_state == rb.final_state

    def test_empty_agent_list(self):
        bundle = example_system.build()
        assert simulate_many(bundle.system, bundle.costs, [], 100, 0) == []

    def test_auto_single_lane_uses_loop(self):
        # One stationary agent x one replication is not a batch: it
        # runs on the loop, consistent with simulate().
        bundle = example_system.build()
        policy = MarkovPolicy.constant(0, 8, 2, ("s_on", "s_off"))
        kwargs = dict(initial_state=("on", "0", 0))
        auto = simulate_many(
            bundle.system, bundle.costs, [policy], 2_000, 42, **kwargs
        )
        loop = LoopBackend().simulate_many(
            bundle.system,
            bundle.costs,
            [StationaryPolicyAgent(bundle.system, policy)],
            2_000,
            child_rngs(42, 2)[1:],
            **kwargs,
        )
        _assert_batches_identical(auto, loop)

    def test_rejects_bad_replications(self):
        bundle = example_system.build()
        with pytest.raises(ValidationError, match="n_replications"):
            simulate_many(
                bundle.system, bundle.costs, [ConstantAgent(0)], 100, 0,
                n_replications=0,
            )

    def test_rejects_non_agent(self):
        bundle = example_system.build()
        with pytest.raises(ValidationError, match="PolicyAgent or MarkovPolicy"):
            simulate_many(bundle.system, bundle.costs, ["nope"], 100, 0)


class TestSimulateCurve:
    def test_alignment_and_agreement(self, example_optimizer, example_bundle):
        curve = trade_off_curve(
            example_optimizer, [0.05, 0.3, 0.8], objective=POWER,
            constraint=PENALTY,
        )
        sims = simulate_curve(
            curve,
            example_bundle.system,
            example_bundle.costs,
            60_000,
            0,
            initial_state=("on", "0", 0),
        )
        assert len(sims) == len(curve.points)
        for point, reps in zip(curve.points, sims):
            if not point.feasible:
                assert reps is None
                continue
            assert len(reps) == 1
            assert reps[0].averages[POWER] == pytest.approx(
                point.objective, rel=0.08, abs=0.04
            )


class TestSessionDispatch:
    def test_session_length_cap_vector(self, example_bundle):
        stats = simulate_sessions(
            example_bundle.system,
            example_bundle.costs,
            ConstantAgent(0),
            0.999,
            20,
            make_rng(3),
            max_session_slices=50,
        )
        # Power per slice is at most 4 W; capped sessions bound totals.
        assert stats[POWER].mean <= 4.0 * 50

    def test_loop_and_vector_sessions_agree_statistically(self, example_bundle):
        gamma = 0.97
        agent = ConstantAgent(0)
        kwargs = dict(initial_state=("on", "0", 0))
        loop_stats = LoopBackend().simulate_sessions(
            example_bundle.system, example_bundle.costs, agent, gamma, 400,
            make_rng(1), **kwargs,
        )
        vec_stats = VectorBackend().simulate_sessions(
            example_bundle.system, example_bundle.costs, agent, gamma, 400,
            make_rng(2), **kwargs,
        )
        assert loop_stats[POWER].mean == pytest.approx(
            vec_stats[POWER].mean, rel=0.15
        )

    def test_many_stationary_sessions_use_the_vector_kernel(self):
        system, costs = _crn_system()
        agent = StationaryPolicyAgent(system, _randomized_policy(system))
        args = (system, costs, agent, 0.95, 48)
        got = simulate_sessions(*args, make_rng(77))
        assert got == VectorBackend().simulate_sessions(*args, make_rng(77))

    @pytest.mark.parametrize("case", ["one-session", "heuristic"])
    def test_single_session_and_heuristics_use_the_loop(self, case):
        system, costs = _crn_system()
        if case == "one-session":
            agent = StationaryPolicyAgent(system, _randomized_policy(system))
            n_sessions = 1
        else:
            agent = TimeoutAgent(5, 0, 1)
            n_sessions = 30
        args = (system, costs, agent, 0.95, n_sessions)
        got = simulate_sessions(*args, make_rng(78))
        assert got == LoopBackend().simulate_sessions(*args, make_rng(78))


class TestGoldenHex:
    """Seeded CRN values pinned from the vector backend."""

    GOLDEN: ClassVar[list[dict]] = [
        {
            "totals": {
                "power": "0x1.67a8000000000p+13",
                "penalty": "0x1.76d8000000000p+13",
                "loss": "0x1.f3c0000000000p+11",
                "overflow": "0x1.282733333334cp+12",
            },
            "counters": (5582, 885, 4694, 3998),
            "commands": [2267, 1733],
            "occupancy": [1760, 2240],
            "final": (1, 1, 3),
        },
        {
            "totals": {
                "power": "0x1.61d0000000000p+13",
                "penalty": "0x1.76e0000000000p+13",
                "loss": "0x1.f3c0000000000p+11",
                "overflow": "0x1.29ce66666667cp+12",
            },
            "counters": (5601, 858, 4740, 3998),
            "commands": [2269, 1731],
            "occupancy": [1684, 2316],
            "final": (1, 0, 3),
        },
        {
            "totals": {
                "power": "0x1.4e84000000000p+13",
                "penalty": "0x1.76e0000000000p+13",
                "loss": "0x1.f3c0000000000p+11",
                "overflow": "0x1.3104cccccccedp+12",
            },
            "counters": (5591, 687, 4901, 3998),
            "commands": [2017, 1983],
            "occupancy": [1541, 2459],
            "final": (1, 0, 3),
        },
        {
            "totals": {
                "power": "0x1.4d38000000000p+13",
                "penalty": "0x1.76d0000000000p+13",
                "loss": "0x1.f3a0000000000p+11",
                "overflow": "0x1.336a66666668fp+12",
            },
            "counters": (5557, 662, 4892, 3997),
            "commands": [2033, 1967],
            "occupancy": [1409, 2591],
            "final": (1, 1, 3),
        },
    ]

    def test_seeded_batch_matches_golden(self):
        system, costs = _crn_system()
        results = VectorBackend().simulate_batch(
            system,
            costs,
            _randomized_policies(system, 2),
            4_000,
            make_rng(321),
            n_replications=2,
        )
        flat = [r for reps in results for r in reps]
        assert len(flat) == len(self.GOLDEN)
        for result, golden in zip(flat, self.GOLDEN):
            assert result.totals == _hex(golden["totals"])
            assert (
                result.arrivals,
                result.serviced,
                result.lost,
                result.loss_event_slices,
            ) == golden["counters"]
            assert result.command_counts.tolist() == golden["commands"]
            assert result.provider_occupancy.tolist() == golden["occupancy"]
            assert result.final_state == golden["final"]

    def test_seeded_sessions_match_golden(self):
        system, costs = _crn_system()
        agent = StationaryPolicyAgent(system, _randomized_policy(system))
        stats = VectorBackend().simulate_sessions(
            system, costs, agent, 0.95, 48, make_rng(77)
        )
        golden = {
            "loss": ("0x1.1aaaaaaaaaaabp+4", "0x1.6621f830066aap+1"),
            "overflow": ("0x1.51ad3a06d3a08p+4", "0x1.acf209521e31bp+1"),
            "penalty": ("0x1.bd80000000000p+5", "0x1.0d32849b953a8p+3"),
            "power": ("0x1.d3eaaaaaaaaabp+5", "0x1.ec8ec6084c7e3p+2"),
        }
        assert set(stats) == set(golden)
        for name, (mean_hex, stderr_hex) in golden.items():
            assert stats[name].mean == float.fromhex(mean_hex)
            assert stats[name].stderr == float.fromhex(stderr_hex)

    # The resumable kernel paths, pinned bit for bit: each run below is
    # two step_lanes calls of 40 slices at a 16-slice chunk pin (three
    # chunks a call), the second resuming from the first's state.
    RESUMABLE_GOLDEN: ClassVar[dict] = {
        "timeout": [
            {
                "totals": [
                    [
                        "0x1.1c00000000000p+5",
                        "0x1.5800000000000p+5",
                        "0x1.0000000000000p+2",
                        "0x1.0c28f5c28f5c3p+1",
                    ],
                    [
                        "0x1.9e00000000000p+6",
                        "0x1.c000000000000p+4",
                        "0x1.c000000000000p+2",
                        "0x1.0cccccccccccep+0",
                    ],
                    [
                        "0x1.a000000000000p+5",
                        "0x1.0000000000000p+3",
                        "0x0.0p+0",
                        "0x1.eb851eb851ebap-6",
                    ],
                    ["0x1.4000000000000p+4", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"],
                ],
                "counters": [[6, 1, 3, 4], [16, 17, 0, 7], [1, 3, 0, 0], [0, 0, 0, 0]],
                "commands": [[3, 37], [27, 13], [7, 33], [0, 40]],
                "occupancy": [[4, 36], [29, 11], [6, 34], [0, 40]],
                "final": [[1, 0, 2], [1, 0, 0], [1, 0, 0], [1, 0, 0]],
                "prev_arrivals": [0, 0, 0, 0],
                "idle": [8, 44],
            },
            {
                "totals": [
                    [
                        "0x1.2800000000000p+6",
                        "0x1.e000000000000p+5",
                        "0x1.2000000000000p+3",
                        "0x1.4dc28f5c28f5cp+2",
                    ],
                    [
                        "0x1.2400000000000p+6",
                        "0x1.0000000000000p+3",
                        "0x0.0p+0",
                        "0x0.0p+0",
                    ],
                    [
                        "0x1.1e00000000000p+6",
                        "0x1.5000000000000p+4",
                        "0x1.4000000000000p+2",
                        "0x1.c8f5c28f5c290p+0",
                    ],
                    [
                        "0x1.2600000000000p+6",
                        "0x1.4000000000000p+3",
                        "0x1.0000000000000p+0",
                        "0x1.70a3d70a3d70bp-3",
                    ],
                ],
                "counters": [[9, 2, 7, 9], [10, 8, 0, 0], [8, 6, 2, 5], [5, 5, 0, 1]],
                "commands": [[11, 29], [19, 21], [14, 26], [15, 25]],
                "occupancy": [[7, 33], [18, 22], [11, 29], [17, 23]],
                "final": [[1, 0, 2], [0, 1, 2], [1, 0, 0], [1, 0, 0]],
                "prev_arrivals": [0, 1, 0, 0],
                "idle": [0, 11],
            },
        ],
        "counts": [
            {
                "totals": [
                    [
                        "0x1.0100000000000p+7",
                        "0x1.b000000000000p+6",
                        "0x1.e000000000000p+4",
                        "0x1.1899999999999p+5",
                    ],
                    [
                        "0x1.fe00000000000p+6",
                        "0x1.b400000000000p+6",
                        "0x1.0800000000000p+5",
                        "0x1.49c28f5c28f5cp+5",
                    ],
                    [
                        "0x1.b400000000000p+6",
                        "0x1.d000000000000p+6",
                        "0x1.2800000000000p+5",
                        "0x1.6ab851eb851ebp+5",
                    ],
                ],
                "counters": [[38, 11, 25, 17], [51, 7, 42, 22], [44, 7, 36, 24]],
                "commands": [[26, 14], [22, 18], [19, 21]],
                "occupancy": [[23, 17], [19, 21], [18, 22]],
                "final": [[1, 0, 2], [0, 1, 3], [0, 0, 3]],
                "prev_arrivals": [0, 3, 0],
                "idle": None,
            },
            {
                "totals": [
                    [
                        "0x1.b400000000000p+6",
                        "0x1.d400000000000p+6",
                        "0x1.2800000000000p+5",
                        "0x1.68b851eb851ebp+5",
                    ],
                    [
                        "0x1.c400000000000p+6",
                        "0x1.c000000000000p+6",
                        "0x1.0000000000000p+5",
                        "0x1.3451eb851eb85p+5",
                    ],
                    [
                        "0x1.7400000000000p+6",
                        "0x1.d800000000000p+6",
                        "0x1.3000000000000p+5",
                        "0x1.8933333333332p+5",
                    ],
                ],
                "counters": [[43, 5, 37, 24], [47, 9, 38, 24], [41, 5, 36, 18]],
                "commands": [[22, 18], [20, 20], [17, 23]],
                "occupancy": [[15, 25], [22, 18], [9, 31]],
                "final": [[1, 1, 3], [1, 1, 3], [1, 1, 3]],
                "prev_arrivals": [2, 2, 2],
                "idle": None,
            },
        ],
    }
    ONE_LANE_GOLDEN: ClassVar[dict] = {
        "totals": [
            [
                "0x1.0140000000000p+11",
                "0x1.c1c0000000000p+10",
                "0x1.2b80000000000p+9",
                "0x1.5d53333333333p+9",
            ],
        ],
        "counters": [[881, 159, 721, 599]],
        "commands": [[434, 166]],
        "occupancy": [[319, 281]],
        "final": [[0, 1, 3]],
        "prev_arrivals": [2],
        "idle": None,
    }
    RAGGED_GOLDEN: ClassVar[dict] = {
        "totals": [
            [
                "0x1.f000000000000p+3",
                "0x1.4000000000000p+3",
                "0x1.0000000000000p+1",
                "0x1.3eb851eb851ecp+1",
            ],
            [
                "0x1.4800000000000p+6",
                "0x1.0800000000000p+6",
                "0x1.5000000000000p+4",
                "0x1.ba8f5c28f5c28p+4",
            ],
            [
                "0x1.0000000000000p+7",
                "0x1.d800000000000p+6",
                "0x1.3800000000000p+5",
                "0x1.8d33333333332p+5",
            ],
            [
                "0x1.be00000000000p+7",
                "0x1.a600000000000p+7",
                "0x1.1800000000000p+6",
                "0x1.4066666666666p+6",
            ],
        ],
        "counters": [[5, 1, 2, 2], [33, 3, 28, 21], [55, 3, 50, 39], [96, 14, 80, 70]],
        "commands": [[2, 3], [13, 10], [21, 19], [45, 26]],
        "occupancy": [[3, 2], [11, 12], [15, 25], [33, 38]],
        "final": [[1, 0, 3], [1, 0, 3], [1, 0, 3], [0, 1, 3]],
        "prev_arrivals": None,
        "idle": None,
    }

    @pytest.mark.parametrize("case", ["timeout", "counts"])
    def test_resumable_runs_match_golden(self, case):
        runs = _golden_resumable_runs(case)
        assert [_acc_record(acc) for acc in runs] == self.RESUMABLE_GOLDEN[case]

    def test_one_lane_block_matches_golden(self):
        assert _acc_record(_golden_one_lane_run()) == self.ONE_LANE_GOLDEN

    def test_ragged_lanes_match_golden(self):
        # The last lane runs its final slices alone and ends mid-chunk.
        assert _acc_record(_golden_ragged_run()) == self.RAGGED_GOLDEN


def _acc_record(acc) -> dict:
    """Every per-lane accumulator of one kernel call, floats in hex."""
    return {
        "totals": [
            [value.hex() for value in lane] for lane in acc.lane_totals.tolist()
        ],
        "counters": acc.counters.tolist(),
        "commands": acc.command_counts.tolist(),
        "occupancy": acc.provider_occupancy.tolist(),
        "final": acc.final_state.tolist(),
        "prev_arrivals": (
            None if acc.prev_arrivals is None else acc.prev_arrivals.tolist()
        ),
        "idle": None if acc.idle is None else acc.idle.tolist(),
    }


def _idle_heavy_system():
    """The CRN provider under a workload that idles, so timeouts fire."""
    requester = ServiceRequester(
        MarkovChain([[0.9, 0.1], [0.5, 0.5]], ["idle", "busy"]),
        arrivals=[0, 1],
    )
    provider = _crn_system()[0].provider
    system = PowerManagedSystem(provider, requester, ServiceQueue(2))
    return system, CostModel.standard(system)


def _resume_twice(system, costs, policies, policy_of_lane, lane_kwargs):
    """Two 40-slice step_lanes calls at a 16-slice pin (three chunks a
    call), the second resuming from the first's state;
    ``lane_kwargs(call, acc)`` gives a call's lane-kind arguments from
    the previous call's accumulators (``None`` before the first)."""
    tables = SimulationTables.compile(system, costs)
    compiled = CompiledPolicyBatch.compile(system, policies)
    n_lanes = len(policy_of_lane)
    lanes = np.arange(n_lanes)
    start = (lanes % 2, np.zeros(n_lanes, dtype=np.int64), lanes % 3)
    prev = np.zeros(n_lanes, dtype=np.int64)
    rng = make_rng(2024)
    runs = []
    for call in range(2):
        acc = VectorBackend().step_lanes(
            tables,
            compiled,
            np.asarray(policy_of_lane),
            np.full(n_lanes, 40),
            start,
            rng,
            16,
            prev_arrivals=prev,
            **lane_kwargs(call, runs[-1] if runs else None),
        )
        runs.append(acc)
        start = tuple(acc.final_state.T)
        prev = acc.prev_arrivals
    return runs


def _golden_resumable_runs(case):
    """A timeout or a counts-driven batch, resumed once."""
    if case == "timeout":
        system, costs = _idle_heavy_system()
        # Two deterministic policy lanes, and two timeout lanes on the
        # always-on (2) and always-off (3) constant policies.
        policies = [
            MarkovPolicy.deterministic(commands, system.n_commands)
            for commands in ([0, 1] * 6, [1, 0, 0] * 4)
        ] + [
            MarkovPolicy.constant(command, system.n_states, system.n_commands)
            for command in (0, 1)
        ]

        def timeout_lanes(call, acc):
            idle = np.array([0, 4]) if acc is None else acc.idle
            rule = (np.array([2, 3]), np.array([2, 2]), np.array([3, 3]))
            return {"timeouts": TimeoutLanes(np.array([1, 3]), *rule, idle)}

        return _resume_twice(system, costs, policies, [0, 2, 1, 2], timeout_lanes)
    system, costs = _crn_system()
    counts = np.random.default_rng(3).integers(0, 4, (2, 40, 3))
    counts[np.random.default_rng(4).random(counts.shape) < 0.3] = 0

    def counts_lanes(call, acc):
        return {"counts": counts[call], "count_states": np.array([0, 0, 1])}

    policies = _randomized_policies(system, 2)
    return _resume_twice(system, costs, policies, [0, 1, 1], counts_lanes)


def _golden_one_lane_run():
    """A lone randomized lane, 600 slices in chunks of 256, 256 and 88."""
    system, costs = _crn_system()
    return VectorBackend().step_lanes(
        SimulationTables.compile(system, costs),
        CompiledPolicyBatch.compile(system, [_randomized_policy(system, 5)]),
        np.zeros(1, dtype=np.int64),
        np.full(1, 600),
        (1, 1, 2),
        make_rng(31),
        256,
        prev_arrivals=np.array([2]),
    )


def _golden_ragged_run():
    """Session-style lanes of 5, 23, 40 and 71 slices at a 16-slice pin:
    after slice 40 the last lane steps alone, and it ends mid-chunk."""
    system, costs = _crn_system()
    return VectorBackend().step_lanes(
        SimulationTables.compile(system, costs),
        CompiledPolicyBatch.compile(system, _randomized_policies(system, 2, 7)),
        np.array([0, 1, 0, 1]),
        np.array([5, 23, 40, 71]),
        (0, 1, 1),
        make_rng(88),
        16,
    )


class TestChunkKnob:
    """The kernel's chunk pin: what the fleet's fixed pin relies on."""

    @staticmethod
    def _step(system, costs, policies, pin, n_slices=1_500, seed=13):
        tables = SimulationTables.compile(system, costs)
        compiled = CompiledPolicyBatch.compile(system, policies)
        policy_of_lane = np.repeat(np.arange(len(policies)), 2)
        lengths = np.full(len(policy_of_lane), n_slices, dtype=np.int64)
        return VectorBackend().step_lanes(
            tables, compiled, policy_of_lane, lengths, (0, 0, 0),
            make_rng(seed), pin,
        )

    def test_integer_trajectories_chunk_invariant(self):
        system, costs = _crn_system()
        policies = _randomized_policies(system, 2)
        runs = [
            self._step(system, costs, policies, pin)
            for pin in (16, 250, None)
        ]
        reference = runs[0]
        for other in runs[1:]:
            # Uniform consumption is (slice, kind, lane)-ordered
            # regardless of chunking: every integer observable is
            # identical...
            for field in (
                "counters",
                "final_state",
                "command_counts",
                "provider_occupancy",
            ):
                np.testing.assert_array_equal(
                    getattr(reference, field), getattr(other, field)
                )
            # ...while float totals only agree to summation-order
            # precision across *different* pins.
            np.testing.assert_allclose(
                reference.lane_totals, other.lane_totals, rtol=1e-9, atol=1e-12
            )

    def test_chunk_slices_must_be_positive(self):
        system, costs = _crn_system()
        with pytest.raises(ValidationError, match="chunk_slices"):
            self._step(system, costs, [_randomized_policy(system)], 0, 100)
