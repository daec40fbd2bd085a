"""Span tracing for the benchmark's traced runs, kept outside ``src/``.

A traced run installs wrappers around the public calls of each layer
(:data:`LAYER_CALLS`).  Each wrapper is patched where the caller looks
the name up: ``repro.service.daemon`` and ``repro.runtime.fleet``
import several of these names directly, so those module attributes are
patched beside the defining module's.  A wrapper records one span
(name, start, end, parent span, tick or request id) and the exact
counts its layer exposes, all in memory; :meth:`Tracer.dump` writes
them out when the process's entry returns.  Shard workers are forked
from the daemon, so they inherit the wrappers; the worker entry is
wrapped to start a fresh span list and to dump it on return.

Every process reads ``time.perf_counter``, which is CLOCK_MONOTONIC on
Linux, so spans of the client, the daemon and its workers share one
clock and can be joined on tick number.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter
from pathlib import Path

#: (module, attribute path, span name).  The attribute path names a
#: module function, a class method, or a ``_BACKENDS`` entry.
LAYER_CALLS = (
    # runtime.fleet
    ("repro.runtime.fleet", "build_fleet", "fleet.build"),
    ("repro.runtime", "build_fleet", "fleet.build"),
    ("repro.runtime.fleet", "build_group_devices", "fleet.build"),
    ("repro.runtime", "build_group_devices", "fleet.build"),
    ("repro.service.daemon", "build_group_devices", "fleet.build"),
    # runtime.policy_cache
    ("repro.runtime.policy_cache", "PolicyCache.optimize", "policy_cache.optimize"),
    ("repro.runtime.policy_cache", "system_signature", "policy_cache.signature"),
    ("repro.runtime.policy_cache", "costs_signature", "policy_cache.signature"),
    ("repro.runtime.policy_cache", "policy_signature", "policy_cache.signature"),
    ("repro.runtime.fleet", "system_signature", "policy_cache.signature"),
    ("repro.runtime.fleet", "costs_signature", "policy_cache.signature"),
    ("repro.service.shard", "system_signature", "policy_cache.signature"),
    ("repro.service.shard", "costs_signature", "policy_cache.signature"),
    # runtime.controller (inside shard workers the same call is shard.step)
    ("repro.runtime.controller", "FleetController.step_tick", "controller.step"),
    # sim.backends.vector
    ("repro.sim.backends.vector", "VectorBackend.step_lanes", "kernel.step"),
    ("repro.sim.backends.vector", "CompiledPolicyBatch.compile", "kernel.compile"),
    ("repro.sim.backends.base", "SimulationTables.compile", "kernel.compile"),
    # sim.rng, sim.rng_batched
    ("repro.sim.rng", "FanInSource.random", "uniforms.draw"),
    ("repro.sim.rng_batched", "BatchedPCG64Source.random", "uniforms.draw"),
    ("repro.sim.rng_batched", "BatchedPCG64Source.sync", "uniforms.sync"),
    # runtime.telemetry
    ("repro.runtime.controller", "FleetController.snapshot", "telemetry.fold"),
    ("repro.runtime.telemetry", "snapshot_from_records", "telemetry.fold"),
    ("repro.service.daemon", "snapshot_from_records", "telemetry.fold"),
    ("repro.runtime.telemetry", "device_record", "telemetry.records"),
    ("repro.service.shard", "device_record", "telemetry.records"),
    ("repro.service.daemon", "device_record", "telemetry.records"),
    ("repro.runtime.telemetry", "JsonLinesTelemetry.record", "telemetry.sink"),
    # runtime.checkpoint
    ("repro.runtime.checkpoint", "write_checkpoint", "checkpoint.write"),
    ("repro.service.daemon", "write_checkpoint", "checkpoint.write"),
    ("repro.runtime.checkpoint", "load_checkpoint", "checkpoint.load"),
    ("repro.runtime", "load_checkpoint", "checkpoint.load"),
    # service.spool and service.shard (workers)
    ("repro.service.spool", "SpoolSlot.write", "spool.write"),
    ("repro.service.shard", "_ShardWorker.dispatch", "shard.command"),
    # service.daemon
    ("repro.service.daemon", "FleetDaemon._dispatch", "daemon.request"),
    ("repro.service.daemon", "ShardSupervisor.step_tick", "supervisor.step"),
    ("repro.service.daemon", "ShardSupervisor.collect_records", "supervisor.records"),
    ("repro.service.daemon", "ShardSupervisor.gather_fleet", "supervisor.gather"),
    ("repro.service.daemon", "ShardSupervisor.register_devices", "supervisor.mutate"),
    ("repro.service.daemon", "ShardSupervisor.replace_agents", "supervisor.mutate"),
    ("repro.service.daemon", "ShardSupervisor.remove_device", "supervisor.mutate"),
    # service.protocol, service.client
    ("repro.service.protocol", "encode_frame", "protocol.encode"),
    ("repro.service.protocol", "decode_frame", "protocol.decode"),
    ("repro.service.client", "ServiceClient.step", "client.step"),
    ("repro.service.client", "ServiceClient.snapshot", "client.snapshot"),
    ("repro.service.client", "ServiceClient.checkpoint", "client.checkpoint"),
    ("repro.service.client", "ServiceClient.update_policy", "client.update_policy"),
    ("repro.service.client", "ServiceClient.remove_device", "client.remove_device"),
    ("repro.service.client", "ServiceClient.register_group", "client.register_group"),
    ("repro.service.client", "ServiceClient.info", "client.info"),
    # core (an optimizer assembles its balance block when constructed)
    ("repro.core.optimizer", "PolicyOptimizer.__init__", "optimizer.assemble"),
    ("repro.core.average_cost", "AverageCostOptimizer.__init__", "optimizer.assemble"),
    ("repro.core.optimizer", "PolicyOptimizer.build_lp", "optimizer.assemble"),
    ("repro.core.average_cost", "AverageCostOptimizer.build_lp", "optimizer.assemble"),
    ("repro.core.optimizer", "PolicyOptimizer.result_from_lp", "optimizer.extract"),
    ("repro.core.average_cost", "AverageCostOptimizer.result_from_lp", "optimizer.extract"),
    ("repro.core.pareto_sweep", "ParetoSweepSolver.solve", "pareto.solve"),
    # lp, per backend
    ("repro.lp.solve", "_BACKENDS.scipy", "lp.scipy"),
    ("repro.lp.solve", "_BACKENDS.simplex", "lp.simplex"),
    ("repro.lp.solve", "_BACKENDS.interior-point", "lp.interior-point"),
)


# ----------------------------------------------------------------------
# count hooks: exact counts beside every timing
# ----------------------------------------------------------------------
def _devices(counts, name, args, result, state):
    fleet = result[0] if isinstance(result, tuple) else result  # build_fleet: (fleet, cache)
    counts["fleet.build.devices"] += len(fleet)


def _cache_before(args):
    stats = args[0].stats
    return stats.hits, stats.misses


def _cache_outcome(counts, name, args, result, state):
    stats = args[0].stats
    counts["policy_cache.hits"] += stats.hits - state[0]
    counts["policy_cache.misses"] += stats.misses - state[1]


def _lane_slices(counts, name, args, result, state):
    counts["kernel.lane_slices"] += int(args[4].sum())  # step_lanes(..., lengths, ...)


def _uniforms(counts, name, args, result, state):
    counts["uniforms.values"] += int(result.size)
    batched = type(args[0]).__name__ == "BatchedPCG64Source"
    counts["uniforms.batched_blocks" if batched else "uniforms.fanin_blocks"] += 1


def _sink_before(args):
    handle = args[0]._file
    return handle.tell() if handle is not None else 0


def _sink_bytes(counts, name, args, result, state):
    counts["telemetry.sink.bytes"] += args[0]._file.tell() - state


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _checkpoint_bytes(counts, name, args, result, state):
    counts["checkpoint.write.bytes"] += _file_size(args[0])


def _spool_bytes(counts, name, args, result, state):
    counts["spool.write.bytes"] += _file_size(result)


def _records(counts, name, args, result, state):
    counts["supervisor.records.count"] += len(result)


def _frames(counts, name, args, result, state):
    counts["protocol.bytes"] += len(result)
    counts["protocol.frames"] += 1


def _sweep(counts, name, args, result, state):
    stats = result.stats
    counts["pareto.solves"] += stats.n_solves
    counts["pareto.warm"] += stats.n_warm
    counts["pareto.deduped"] += stats.n_deduped
    counts["pareto.bracket_skipped"] += stats.n_bracket_skipped


def _lp(counts, name, args, result, state):
    stats = result.stats or {}
    counts[f"{name}.solves"] += 1
    counts[f"{name}.iterations"] += int(stats.get("iterations", 0))
    counts[f"{name}.refactorizations"] += int(stats.get("refactorizations", 0))
    counts[f"{name}.recovered"] += int(bool(stats.get("recovered")))


#: Span name -> (before, after) count hooks.  ``before(args)`` runs
#: ahead of the call; ``after(counts, name, args, result, state)``
#: gets its return value as ``state``.
COUNTERS = {
    "fleet.build": (None, _devices),
    "policy_cache.optimize": (_cache_before, _cache_outcome),
    "kernel.step": (None, _lane_slices),
    "uniforms.draw": (None, _uniforms),
    "telemetry.sink": (_sink_before, _sink_bytes),
    "checkpoint.write": (None, _checkpoint_bytes),
    "spool.write": (None, _spool_bytes),
    "supervisor.records": (None, _records),
    "protocol.encode": (None, _frames),
    "pareto.solve": (None, _sweep),
    "lp.scipy": (None, _lp),
    "lp.simplex": (None, _lp),
    "lp.interior-point": (None, _lp),
}


# ----------------------------------------------------------------------
# the tracer
# ----------------------------------------------------------------------
class Tracer:
    """Spans and counts of one process, kept in memory until dumped.

    ``ctx`` is the tick or request id stamped on spans opened while it
    is set; the benchmark sets it per operation, the step wrappers of
    the daemon and its workers set it to the tick being stepped.
    ``out_dir`` is where forked shard workers dump their ledgers.
    """

    def __init__(self, role: str):
        self.role = role
        self.out_dir = None
        self.ctx = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._patches: list = []
        self.started = time.perf_counter()

    def reset(self, role: str) -> None:
        """Start an empty ledger (a forked worker drops its parent's)."""
        self.role = role
        self.ctx = -1
        self.names, self._name_ids = [], {}
        self.spans, self._stack = [], []
        self.counts, self._active = Counter(), Counter()
        self.started = time.perf_counter()

    def _name_id(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``; returns its result."""
        return self._traced(name, fn, args, kwargs)

    def _traced(self, name, fn, args, kwargs):
        if self._active[name]:
            # A layer entered again from inside itself is timed once,
            # by the outermost span.
            return fn(*args, **kwargs)
        before, after = COUNTERS.get(name, (None, None))
        state = before(args) if before is not None else None
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(index)
        self._active[name] += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._active[name] -= 1
            self._stack.pop()
            self.spans[index] = (self._name_id(name), start, end, parent, self.ctx)
        self.counts[f"{name}.calls"] += 1
        if after is not None:
            after(self.counts, name, args, result, state)
        return result

    # ------------------------------------------------------------------
    # installing wrappers
    # ------------------------------------------------------------------
    def _wrapper(self, name, fn):
        tracer = self

        if name == "controller.step":
            # Stamp spans with the tick being stepped, so daemon and
            # worker spans join the client's on tick number.  Inside a
            # shard worker this is the worker stepping its shard.
            @functools.wraps(fn)
            def step_wrapper(controller, *args, **kwargs):
                tracer.ctx = controller.tick + 1
                span = "shard.step" if tracer.role == "worker" else name
                return tracer._traced(span, fn, (controller, *args), kwargs)

            return step_wrapper
        if name == "shard.command":
            # One span name per supervisor command (step, records, ...).
            @functools.wraps(fn)
            def command_wrapper(worker, command, payload):
                return tracer._traced(
                    f"{name}.{command}", fn, (worker, command, payload), {}
                )

            return command_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._traced(name, fn, args, kwargs)

        return wrapper

    def install(self) -> "Tracer":
        """Patch every :data:`LAYER_CALLS` entry; returns the tracer."""
        wrapped: dict[int, object] = {}
        for module_name, path, name in LAYER_CALLS:
            module = importlib.import_module(module_name)
            owner_path, _, attr = path.rpartition(".")
            owner = module
            for part in owner_path.split(".") if owner_path else ():
                owner = getattr(owner, part)
            if isinstance(owner, dict):
                original = owner[attr]
                raw = original
            else:
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                original = raw.__func__ if isinstance(raw, classmethod) else raw
            # One wrapper per function object, however many names it has.
            key = id(original)
            if key not in wrapped:
                wrapped[key] = self._wrapper(name, original)
            replacement = wrapped[key]
            if isinstance(raw, classmethod):
                replacement = classmethod(replacement)
            self._patches.append((owner, attr, raw))
            if isinstance(owner, dict):
                owner[attr] = replacement
            else:
                setattr(owner, attr, replacement)
        self._install_worker_entry()
        return self

    def _install_worker_entry(self) -> None:
        """Wrap the shard worker entry: fresh ledger in, dump on return."""
        daemon = importlib.import_module("repro.service.daemon")
        original = daemon.shard_worker_main
        tracer = self

        @functools.wraps(original)
        def worker_main(conn, config, devices, tick):
            tracer.reset("worker")
            try:
                return original(conn, config, devices, tick)
            finally:
                tracer.dump(tracer.out_dir)

        self._patches.append((daemon, "shard_worker_main", original))
        daemon.shard_worker_main = worker_main

    def uninstall(self) -> None:
        """Restore every patched name."""
        for owner, attr, raw in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = raw
            else:
                setattr(owner, attr, raw)
        self._patches = []

    # ------------------------------------------------------------------
    # output
    # ------------------------------------------------------------------
    def dump(self, out_dir) -> Path | None:
        """Write this process's spans and counts as one JSON file."""
        if out_dir is None:
            return None
        path = Path(out_dir) / f"spans-{self.role}-{os.getpid()}.json"
        document = {
            "role": self.role,
            "pid": os.getpid(),
            "started": self.started,
            "ended": time.perf_counter(),
            "names": self.names,
            "spans": [span for span in self.spans if span is not None],
            "counts": dict(self.counts),
        }
        path.write_text(json.dumps(document))
        return path


# ----------------------------------------------------------------------
# aggregation: span files -> per-layer metrics
# ----------------------------------------------------------------------
def load_ledgers(out_dir) -> list[dict]:
    """Every span file a traced run left in ``out_dir``."""
    return [
        json.loads(path.read_text())
        for path in sorted(Path(out_dir).glob("spans-*.json"))
    ]


def _span_table(ledger: dict):
    """Per span: (name, duration, self time, parent index)."""
    spans = ledger["spans"]
    names = ledger["names"]
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [
        (names[n], end - start, end - start - child[i], parent)
        for i, (n, start, end, parent, _) in enumerate(spans)
    ]


def layer_times(ledgers, roots: tuple[str, ...] = ()) -> tuple[Counter, Counter]:
    """Busy and self seconds per span name, summed over processes.

    With ``roots``, only spans that are, or descend from, a span named
    in ``roots`` count (for example the measured operations, leaving
    set-up and output checks out).
    """
    busy: Counter = Counter()
    self_time: Counter = Counter()
    for ledger in ledgers:
        table = _span_table(ledger)
        # A parent's slot precedes its children's, so one pass marks
        # every descendant of a root.
        under = [False] * len(table)
        for i, (name, duration, own, parent) in enumerate(table):
            under[i] = not roots or name in roots or (parent >= 0 and under[parent])
            if under[i]:
                busy[name] += duration
                self_time[name] += own
    return busy, self_time


def coverage(ledger: dict, roots: tuple[str, ...]) -> tuple[float, float]:
    """Share of the ``roots`` spans' wall clock their child spans cover.

    Returns ``(covered seconds / root seconds, root seconds)``.
    """
    table = _span_table(ledger)
    root_ids = {i for i, row in enumerate(table) if row[0] in roots}
    total = sum(table[i][1] for i in root_ids)
    covered = sum(row[1] for row in table if row[3] in root_ids)
    return (covered / total if total else 0.0), total


def merged_counts(ledgers) -> Counter:
    """Counts summed over every process of the run."""
    total: Counter = Counter()
    for ledger in ledgers:
        total.update(ledger["counts"])
    return total


def shard_idle_seconds(ledgers) -> float:
    """Worker lifetime not spent serving a supervisor command."""
    idle = 0.0
    for ledger in ledgers:
        if ledger["role"] != "worker":
            continue
        busy = sum(
            duration
            for name, duration, _, parent in _span_table(ledger)
            if name.startswith("shard.command.") and parent < 0
        )
        idle += ledger["ended"] - ledger["started"] - busy
    return idle
