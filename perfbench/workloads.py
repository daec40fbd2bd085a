"""The benchmark's three workloads: inputs from a seed, loops, checks.

Every workload is a closed loop driven from one process: the next
request is sent only after the previous one returned.  Each runs a
fixed schedule whose length is derived from ``--seconds`` and the
nominal per-operation cost measured on the reference machine (2 cores),
so a run measures about ``--seconds`` there and every count the traced
run records depends only on the seed, ``--seconds`` and the code.

* ``fleet-steady`` — ``repro-dpm fleet`` in-process: ``build_fleet`` on
  a generated spec, ``FleetController.step_tick`` with a JSON-lines
  sink, a checkpoint every :data:`CHECKPOINT_EVERY` ticks.
* ``service-churn`` — ``repro-dpm serve`` with 2 shards driven by one
  :class:`~repro.service.ServiceClient` mixing steps with live ops,
  per-device snapshots and checkpoints.
* ``policy-design`` — the designer's loop: one cold ``optimize`` and one
  16-point ``pareto`` sweep per paper case study, on both LP backends.

A workload returns a :class:`Outcome`; ``run.py`` turns its samples
into metrics.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent

#: Fleet size of fleet-steady: several thousand devices, so per-device
#: bookkeeping dominates a tick, small enough to set up three times.
FLEET_DEVICES = 4000
#: Fleet size of service-churn (the daemon steps it across 2 shards).
CHURN_DEVICES = 2000
#: Shard processes of service-churn (= cores of the reference machine).
CHURN_SHARDS = 2
#: Slices every device advances per tick, both fleet workloads.
SLICES_PER_TICK = 8
#: Set-ups per run; ``setup_s`` is their median.  policy-design's
#: set-up takes ~0.1 s, so it repeats once before the warm-up pass and
#: once after every measured pass: spread over the whole run, the
#: set-ups see the host's contended speed and its quiet spells in the
#: same mix as the passes, not whichever the run's first second fell in.
SETUPS = 3

#: fleet-steady: ticks between checkpoints, and ticks stepped after
#: the last checkpoint (the resume check compares them).
CHECKPOINT_EVERY = 15
RESUME_CHECK_TICKS = 5
#: service-churn: steps between live ops, per-device snapshots and
#: checkpoints, and steps after the last checkpoint (the replay check).
#: Checkpoints come every 10 steps, three times as often as a campaign
#: would, so that the 100-step floor holds 9 of them for their median.
LIVE_OP_EVERY = 6
SNAPSHOT_EVERY = 10
CHURN_CHECKPOINT_EVERY = 10
REPLAY_CHECK_STEPS = 10

#: Nominal seconds per scheduled operation on the reference machine.
#: They convert ``--seconds`` into a fixed schedule length.
NOMINAL_TICK_S = 0.1
NOMINAL_STEP_S = 0.27
NOMINAL_PASS_S = 1.34

#: Lower bounds on schedule length, so percentiles keep their meaning
#: on short runs.
MIN_TICKS = 2 * CHECKPOINT_EVERY + RESUME_CHECK_TICKS
MIN_STEPS = 100
MIN_PASSES = 2

#: Relative tolerance of the scipy/simplex agreement check.
OBJECTIVE_RTOL = 1e-6


@dataclass
class Outcome:
    """What one pass of a workload measured and checked."""

    setup: list = field(default_factory=list)
    op: list = field(default_factory=list)
    bulk: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    digest: str = ""
    notes: list = field(default_factory=list)
    #: When set, ``op`` holds consecutive windows of this many samples
    #: (one design pass each) and the p90 is the upper quartile of the
    #: window p90s.
    p90_window: int | None = None
    #: When set, ``bulk_s`` is the p90 of the bulk samples, not their median.
    bulk_p90: bool = False

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())


class _Clock:
    """Times operations; under tracing each one is also a root span."""

    def __init__(self, tracer):
        self.tracer = tracer

    def time(self, samples, name, fn, *args, **kwargs):
        start = time.perf_counter()
        if self.tracer is None:
            result = fn(*args, **kwargs)
        else:
            result = self.tracer.span(name, fn, *args, **kwargs)
        samples.append(time.perf_counter() - start)
        return result


def _peak_rss_kb(pid: int | None = None) -> int:
    """Peak resident set (VmHWM) of ``pid``, or of this process."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def schedule_length(seconds: int, nominal: float, minimum: int) -> int:
    """Operations that take about ``seconds`` on the reference machine."""
    return max(minimum, round(seconds / nominal))


# ----------------------------------------------------------------------
# seeded inputs
# ----------------------------------------------------------------------
def fleet_spec(seed: int, n_devices: int) -> dict:
    """A fleet spec shaped like ``examples/fleet_spec.json``.

    Three vector-batched groups (optimal disks on the average-cost LP,
    eager disks, eager running-example devices) and about 1% of devices
    on the per-device loop (timeout-managed disks, MMPP2-stream-driven
    examples).  The seed picks every group's device streams and jitters
    parameters within ranges that keep the batching structure fixed.
    """
    rng = random.Random(seed)
    n_loop = max(2, n_devices // 100)
    n_timeout = n_loop // 2
    n_opt = n_devices // 2
    n_eager_disk = n_devices // 4
    n_edge = n_devices - n_opt - n_eager_disk - n_loop
    seeds = [rng.randrange(1, 2**31) for _ in range(5)]
    disk_eager = {"type": "eager", "active": "go_active", "sleep": "go_standby"}
    edge_eager = {"type": "eager", "active": "s_on", "sleep": "s_off"}
    return {
        "name": f"bench-{seed}",
        "slices_per_tick": SLICES_PER_TICK,
        "groups": [
            {
                "id": "disk-opt",
                "count": n_opt,
                "system": "disk_drive",
                "agent": {
                    "type": "optimal",
                    "penalty_bound": round(rng.uniform(0.45, 0.55), 4),
                    "formulation": "average",
                },
                "seed": seeds[0],
                "initial_state": ["active", "0", 0],
            },
            {
                "id": "disk-eager",
                "count": n_eager_disk,
                "system": "disk_drive",
                "agent": disk_eager,
                "seed": seeds[1],
            },
            {
                "id": "edge",
                "count": n_edge,
                "system": "example",
                "agent": edge_eager,
                "seed": seeds[2],
            },
            {
                "id": "disk-timeout",
                "count": n_timeout,
                "system": "disk_drive",
                "agent": {
                    "type": "timeout",
                    "timeout": rng.randrange(150, 250),
                    "active": "go_active",
                    "sleep": "go_standby",
                },
                "seed": seeds[3],
                "initial_state": ["active", "0", 0],
            },
            {
                "id": "edge-mmpp",
                "count": n_loop - n_timeout,
                "system": "example",
                "agent": edge_eager,
                "workload": {
                    "type": "mmpp2",
                    "p_stay_idle": round(rng.uniform(0.93, 0.97), 4),
                    "p_stay_busy": round(rng.uniform(0.80, 0.90), 4),
                },
                "seed": seeds[4],
            },
        ],
    }


def churn_schedule(seed: int, spec: dict, n_steps: int) -> list[tuple]:
    """service-churn's client requests, after the set-up's first step.

    Mostly ``step``; every :data:`LIVE_OP_EVERY` steps a live op cycling
    ``update_policy``, ``remove_device`` and ``register_group`` (4
    devices); every :data:`SNAPSHOT_EVERY` steps a per-device snapshot;
    every :data:`CHURN_CHECKPOINT_EVERY` steps a checkpoint, the last
    one :data:`REPLAY_CHECK_STEPS` or more steps before the end.  Live
    ops cycle through two agent specs each, so after the first of each
    the daemon's policy cache hits.
    """
    rng = random.Random(seed * 7919 + 17)
    disks = [
        f"{group['id']}-{i:04d}"
        for group in spec["groups"][:2]
        for i in range(group["count"])
    ]
    rng.shuffle(disks)
    targets = iter(disks)
    agents = (
        {"type": "optimal", "penalty_bound": 0.3, "formulation": "average"},
        {"type": "eager", "active": "go_active", "sleep": "go_sleep"},
    )
    live_groups = (
        ("disk_drive", {"type": "eager", "active": "go_active", "sleep": "go_standby"}),
        ("example", {"type": "eager", "active": "s_on", "sleep": "s_off"}),
    )
    ops: list[tuple] = []
    n_live = 0
    for step in range(1, n_steps + 1):
        ops.append(("step",))
        if step % LIVE_OP_EVERY == 0:
            kind = n_live % 3
            if kind == 0:
                ops.append(("update_policy", next(targets), agents[(n_live // 3) % 2]))
            elif kind == 1:
                ops.append(("remove_device", next(targets)))
            else:
                system, agent = live_groups[(n_live // 3) % 2]
                group = {
                    "id": f"live{n_live}",
                    "count": 4,
                    "system": system,
                    "agent": agent,
                    "seed": rng.randrange(1, 2**31),
                }
                ops.append(("register_group", group, len(spec["groups"]) + n_live))
            n_live += 1
        if step % SNAPSHOT_EVERY == 0:
            ops.append(("snapshot",))
        if step % CHURN_CHECKPOINT_EVERY == 0 and step <= n_steps - REPLAY_CHECK_STEPS:
            ops.append(("checkpoint",))
    return ops


# ----------------------------------------------------------------------
# fleet-steady
# ----------------------------------------------------------------------
def fleet_steady(seed: int, seconds: int, run_dir: Path, tracer=None,
                 n_devices: int = FLEET_DEVICES) -> Outcome:
    """``repro-dpm fleet`` at several thousand devices, in-process."""
    from repro.runtime import FleetController, JsonLinesTelemetry, build_fleet

    clock = _Clock(tracer)
    out = Outcome()
    spec = fleet_spec(seed, n_devices)
    telemetry_path = run_dir / "fleet.jsonl"
    checkpoint_path = run_dir / "fleet.ckpt"

    def set_up():
        fleet, cache = build_fleet(spec, base_seed=seed)
        sink = JsonLinesTelemetry(telemetry_path)
        controller = FleetController(
            fleet,
            slices_per_tick=spec["slices_per_tick"],
            telemetry=sink,
            policy_cache=cache,
        )
        controller.step_tick()
        return controller, sink

    controller = sink = None
    for _ in range(SETUPS):
        if sink is not None:
            sink.close()
        controller = sink = None
        gc.collect()
        controller, sink = clock.time(out.setup, "setup.fleet", set_up)
    out.notes.append(f"uniform sources per lane block: {_block_sources(controller)}")

    n_ticks = schedule_length(seconds, NOMINAL_TICK_S, MIN_TICKS)
    checkpoint_tick = None
    for t in range(1, n_ticks + 1):
        out.attempted += 1
        clock.time(out.op, "op.tick", controller.step_tick)
        if t % CHECKPOINT_EVERY == 0 and t <= n_ticks - RESUME_CHECK_TICKS:
            out.attempted += 1
            clock.time(out.bulk, "op.checkpoint", controller.save_checkpoint,
                       checkpoint_path)
            checkpoint_tick = controller.tick
    out.peak_rss_mb = _peak_rss_kb() / 1024.0
    sink.close()

    # Resume contract: the last checkpoint, stepped k ticks, emits the
    # uninterrupted controller's next k telemetry lines byte for byte.
    lines = telemetry_path.read_bytes().splitlines(keepends=True)
    out.checks["telemetry_lines"] = len(lines) == controller.tick
    resumed_path = run_dir / "resumed.jsonl"
    with JsonLinesTelemetry(resumed_path) as resumed_sink:
        resumed = FleetController.resume(checkpoint_path, telemetry=resumed_sink)
        for _ in range(RESUME_CHECK_TICKS):
            resumed.step_tick()
    expected = lines[checkpoint_tick : checkpoint_tick + RESUME_CHECK_TICKS]
    out.checks["resume_identical"] = (
        resumed_path.read_bytes().splitlines(keepends=True) == expected
    )
    out.digest = _sha256(telemetry_path.read_bytes())
    out.extra["devices"] = [len(controller.fleet)]
    return out


def _block_sources(controller) -> str:
    """Which uniform producer ``auto`` resolved to, per lane block."""
    names = [
        type(source).__name__
        for group in controller._vector_groups
        for source in group._sources.values()
    ]
    return ", ".join(f"{name} x{names.count(name)}" for name in sorted(set(names)))


# ----------------------------------------------------------------------
# service-churn
# ----------------------------------------------------------------------
class _Daemon:
    """One ``repro-dpm serve`` process and its client connection."""

    def __init__(self, run_dir: Path, index: int, spec_path: Path, seed: int,
                 trace_dir: Path | None):
        self.dir = run_dir / f"daemon{index}"
        self.dir.mkdir()
        # AF_UNIX paths are capped near 100 bytes: address the socket
        # relative to the working directory the daemon shares with us.
        self.socket = os.path.relpath(self.dir / "d.sock")
        self.telemetry = self.dir / "telemetry.jsonl"
        serve = [
            str(spec_path),
            "--socket", self.socket,
            "--shards", str(CHURN_SHARDS),
            "--telemetry", str(self.telemetry),
            "--spool-dir", str(self.dir / "spool"),
            "--seed", str(seed),
        ]
        if trace_dir is None:
            command = [sys.executable, "-m", "repro.tool.cli", "serve", *serve]
        else:
            command = [sys.executable, str(HERE / "daemon_entry.py"), str(trace_dir), *serve]
        self.log = open(self.dir / "daemon.log", "wb")
        self.process = subprocess.Popen(
            command, stdout=self.log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        self.client = None

    def connect(self, timeout: float = 120.0):
        """Connect as soon as the daemon listens (polled every 2 ms)."""
        from repro.service import ServiceClient, ServiceError

        deadline = time.perf_counter() + timeout
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.process.returncode}; see {self.log.name}"
                )
            if os.path.exists(self.socket):
                try:
                    self.client = ServiceClient(self.socket).connect()
                    return self.client
                except ServiceError:
                    pass  # bound but not listening yet
            if time.perf_counter() > deadline:
                raise RuntimeError("daemon did not start serving in time")
            time.sleep(0.002)

    def stop(self) -> None:
        """Shut the daemon down; kill its process group if it lingers."""
        from repro.service import ServiceError

        try:
            if self.client is not None:
                try:
                    self.client.shutdown()
                except ServiceError:
                    pass  # already gone, or wedged: killed below
            try:
                self.process.wait(timeout=60 if self.client is not None else 0.1)
            except subprocess.TimeoutExpired:
                os.killpg(self.process.pid, signal.SIGKILL)
                self.process.wait()
        finally:
            self.log.close()


def service_churn(seed: int, seconds: int, run_dir: Path, tracer=None,
                  n_devices: int = CHURN_DEVICES, trace_dir: Path | None = None
                  ) -> Outcome:
    """``repro-dpm serve`` with 2 shards under a mixed client schedule."""
    from repro.service import ServiceError

    clock = _Clock(tracer)
    out = Outcome()
    spec = fleet_spec(seed, n_devices)
    spec_path = run_dir / "churn-spec.json"
    spec_path.write_text(json.dumps(spec))
    schedule = churn_schedule(
        seed, spec, schedule_length(seconds, NOMINAL_STEP_S, MIN_STEPS)
    )
    daemon = None
    try:
        for index in range(SETUPS):
            if daemon is not None:
                daemon.stop()
            start = time.perf_counter()
            daemon = _Daemon(run_dir, index, spec_path, seed, trace_dir)
            client = daemon.connect()
            if tracer is not None:
                tracer.span("setup.daemon", client.step, 1)
            else:
                client.step(1)
            out.setup.append(time.perf_counter() - start)

        tick, n_current = 1, n_devices
        liveop = out.extra.setdefault("liveop", [])
        snapshots = out.extra.setdefault("snapshot", [])
        checkpoint_path = daemon.dir / "churn.ckpt"
        last_checkpoint = None
        for position, op in enumerate(schedule):
            out.attempted += 1
            kind = op[0]
            if tracer is not None:
                tracer.ctx = position
            try:
                if kind == "step":
                    result = clock.time(out.op, "op.step", client.step, 1)
                    tick += 1
                    ok = result["tick"] == tick
                elif kind == "update_policy":
                    result = clock.time(liveop, "op.liveop", client.update_policy, op[1], op[2])
                    ok = result["device_id"] == op[1]
                elif kind == "remove_device":
                    result = clock.time(liveop, "op.liveop", client.remove_device, op[1])
                    n_current -= 1
                    ok = result["n_devices"] == n_current
                elif kind == "register_group":
                    result = clock.time(liveop, "op.liveop", client.register_group,
                                        op[1], base_seed=seed, group_index=op[2])
                    n_current += op[1]["count"]
                    ok = result["n_devices"] == n_current
                elif kind == "snapshot":
                    result = clock.time(snapshots, "op.snapshot", client.snapshot, per_device=True)
                    ok = result["tick"] == tick and len(result["devices"]) == n_current
                else:
                    result = clock.time(out.bulk, "op.checkpoint", client.checkpoint,
                                        str(checkpoint_path))
                    ok = result["tick"] == tick
                    last_checkpoint = position
            except (ServiceError, KeyError) as exc:
                out.notes.append(f"{kind} failed: {exc!r}")
                ok = False
            out.failed += not ok

        out.attempted += 2
        info = client.info()
        final = client.snapshot()
        # Fault-free guard: a recovered worker replays ticks from spool
        # and would silently add seconds to the step percentiles.
        out.checks["fault_free"] = (
            info["restarts"] == 0
            and not info["quarantined"]
            and not any(info["failures"])
        )
        out.extra["restarts"] = [info["restarts"]]
        rss = [_peak_rss_kb(daemon.process.pid)]
        rss += [_peak_rss_kb(pid) for pid in info["worker_pids"]]
        out.peak_rss_mb = sum(rss) / 1024.0
    finally:
        if daemon is not None:
            daemon.stop()
    out.digest = _sha256(daemon.telemetry.read_bytes())
    if not out.checks["fault_free"]:
        out.failed = out.attempted
    out.checks["replay_identical"] = _replay_matches(
        checkpoint_path, schedule[last_checkpoint + 1 :], final, seed
    )
    out.extra["devices"] = [n_current]
    return out


def _replay_matches(checkpoint_path, tail, final: dict, seed: int) -> bool:
    """Sharded == single-process over the schedule's tail.

    Resumes the daemon's last checkpoint in a single-process
    :class:`FleetController`, replays the requests after it untimed and
    requires the daemon's final snapshot byte for byte (its integer
    counters — arrivals, serviced, lost, loss_event_slices,
    fleet_slices, n_devices — and every fleet aggregate).
    """
    from repro.runtime import (
        FleetController,
        PolicyCache,
        build_agent_from_spec,
        build_group_devices,
    )

    controller = FleetController.resume(checkpoint_path)
    fleet, cache = controller.fleet, PolicyCache()
    for op in tail:
        if op[0] == "step":
            controller.step_tick()
        elif op[0] == "update_policy":
            device = fleet.device(op[1])
            agent = build_agent_from_spec(op[2], device.system, device.costs, cache=cache)
            fleet.replace_agent(op[1], agent)
        elif op[0] == "remove_device":
            fleet.remove_device(op[1])
        elif op[0] == "register_group":
            for device in build_group_devices(
                op[1], group_index=op[2], base_seed=seed, cache=cache
            ):
                fleet.adopt_device(device)
    replayed = controller.snapshot(per_device=False)
    return json.dumps(replayed, sort_keys=True) == json.dumps(final, sort_keys=True)


# ----------------------------------------------------------------------
# policy-design
# ----------------------------------------------------------------------
def _case_builders():
    from repro.systems import cpu, disk_drive, example_system, web_server

    return (
        ("example", example_system.build, "penalty"),
        ("disk", disk_drive.build, "penalty"),
        ("web", web_server.build, "throughput"),
        ("cpu", cpu.build, "penalty"),
        ("disk-q8", lambda: disk_drive.build(queue_capacity=8), "penalty"),
    )


def _optimizer(bundle, backend: str):
    from repro.core.optimizer import PolicyOptimizer

    return PolicyOptimizer(
        bundle.system,
        bundle.costs,
        gamma=bundle.gamma,
        initial_distribution=bundle.initial_distribution,
        backend=backend,
        action_mask=bundle.action_mask,
    )


def design_inputs(seed: int) -> list[dict]:
    """Compose the case studies and derive their requests.

    Each case gets a cold ``optimize`` bound and a 16-point sweep grid
    over the constraint its figure sweeps, shaped like
    ``bench_pareto_sweep.sweep_bounds``: an infeasible end, duplicate
    bounds and a geometric feasible span.  The CPU's penalty floor is
    0, so its grid has no infeasible end.  The seed orders the cases
    and each grid's bounds; it leaves the bound values alone, because
    a simplex path's length swings with them (hundreds of pivots for
    nearby bounds at queue depth 8), which would make the seed, not
    the code, the largest source of spread.
    """
    from repro.core.pareto import min_achievable

    rng = random.Random(seed * 104729 + 3)
    cases = []
    for name, build, constraint in _case_builders():
        bundle = build()
        probe = _optimizer(bundle, "scipy")
        if constraint == "throughput":
            top = probe.optimize("throughput", "max").require_feasible().objective_average
            feasible = np.linspace(0.05 * top, 0.98 * top, 10)
            impossible = np.linspace(1.02 * top, 1.2 * top, 4)
            request = {"lower_bounds": {"throughput": 0.7 * top}}
            sense = ">="
        else:
            floor = min_achievable(probe, "penalty")
            cap = probe.minimize_unconstrained("power").require_feasible().average("penalty")
            low = floor * 1.3 if floor > 0 else 0.005
            n_feasible = 10 if floor > 0 else 14
            feasible = np.geomspace(low, 0.98 * cap, n_feasible)
            impossible = np.linspace(0.2 * floor, 0.9 * floor, 4) if floor > 0 else []
            request = {"upper_bounds": {"penalty": low}}
            sense = "<="
        grid = [float(b) for b in (*impossible, *feasible, *feasible[1:3])]
        rng.shuffle(grid)
        cases.append(
            {
                "name": name,
                "bundle": bundle,
                "constraint": constraint,
                "sense": sense,
                "optimize": request,
                "grid": grid,
                # The 198-state disk sweep on simplex is a pathological
                # path (minutes, no warm start landing): scipy only.
                "pareto_backends": ("scipy",) if name == "disk-q8" else ("scipy", "simplex"),
            }
        )
    rng.shuffle(cases)
    return cases


def _optimize(case, backend: str):
    """One cold constrained solve, as ``repro-dpm optimize --no-verify``."""
    return _optimizer(case["bundle"], backend).optimize(
        "power", "min", **case["optimize"]
    )


def _sweep(case, backend: str):
    """One sweep, as ``repro-dpm pareto --jobs 1``."""
    from repro.core.pareto_sweep import ParetoSweepSolver

    solver = ParetoSweepSolver(
        _optimizer(case["bundle"], backend),
        objective="power",
        constraint=case["constraint"],
        constraint_sense=case["sense"],
        n_jobs=1,
    )
    return solver.solve(case["grid"])


def _design_pass(cases, clock: _Clock, out: Outcome, tracer) -> tuple[dict, dict]:
    """One pass of every request.

    Returns ``(results, seconds)``, both keyed by ``(case, kind,
    backend)``: each request's output points and its wall time.
    """
    results: dict = {}
    seconds: dict = {}
    for case in cases:
        requests = [("optimize", backend, _optimize) for backend in ("scipy", "simplex")]
        requests += [("pareto", backend, _sweep) for backend in case["pareto_backends"]]
        for kind, backend, request in requests:
            if tracer is not None:
                tracer.ctx = len(out.op)
            answer = clock.time(out.op, f"op.{kind}", request, case, backend)
            key = (case["name"], kind, backend)
            seconds[key] = out.op[-1]
            if kind == "optimize":
                results[key] = [(None, answer.feasible, answer.objective_average)]
            else:
                results[key] = [(p.bound, p.feasible, p.objective) for p in answer.points]
    return results, seconds


def _backends_agree(results: dict) -> tuple[int, int]:
    """(requests checked, requests whose scipy and simplex runs differ)."""
    checked = failed = 0
    for (case, kind, backend), points in results.items():
        if backend != "simplex":
            continue
        reference = results[(case, kind, "scipy")]
        checked += 1
        same = len(points) == len(reference)
        for (_, feasible, value), (_, ref_feasible, ref_value) in zip(points, reference):
            same = same and feasible == ref_feasible
            if same and feasible:
                same = abs(value - ref_value) <= OBJECTIVE_RTOL * max(1.0, abs(ref_value))
        failed += not same
    return checked, failed


def policy_design(seed: int, seconds: int, run_dir: Path, tracer=None) -> Outcome:
    """The designer's loop: optimize + pareto per case study, both backends."""
    clock = _Clock(tracer)
    out = Outcome(bulk_p90=True)
    cases = clock.time(out.setup, "setup.design", design_inputs, seed)

    warm = Outcome()
    start = time.perf_counter()
    first, _ = _design_pass(cases, clock, warm, tracer)
    out.notes.append(f"warm-up pass: {time.perf_counter() - start:.3f} s (excluded)")

    optimize_pass = out.extra.setdefault("optimize_pass", [])
    pareto_pass = out.extra.setdefault("pareto_pass", [])
    q8_share = out.extra.setdefault("q8_simplex_share", [])
    for _ in range(schedule_length(seconds, NOMINAL_PASS_S, MIN_PASSES)):
        results, timings = _design_pass(cases, clock, out, tracer)
        optimize_s = sum(t for key, t in timings.items() if key[1] == "optimize")
        out.bulk.append(sum(timings.values()))
        optimize_pass.append(optimize_s)
        pareto_pass.append(out.bulk[-1] - optimize_s)
        q8_share.append(timings.get(("disk-q8", "optimize", "simplex"), 0.0) / optimize_s)
        out.attempted += len(results)
        out.p90_window = len(results)
        # Every request must reproduce the warm-up pass exactly.
        out.failed += sum(results[key] != first[key] for key in results)
        clock.time(out.setup, "setup.design", design_inputs, seed)
    checked, disagreeing = _backends_agree(first)
    out.checks["backends_agree"] = disagreeing == 0
    out.failed += disagreeing
    out.extra["requests_checked"] = [checked]
    out.peak_rss_mb = _peak_rss_kb() / 1024.0
    out.digest = _sha256(repr(sorted(first.items())).encode())
    return out


WORKLOADS = {
    "fleet-steady": fleet_steady,
    "service-churn": service_churn,
    "policy-design": policy_design,
}
