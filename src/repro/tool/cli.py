"""``repro-dpm`` — command-line interface to the policy-optimization tool.

Subcommands:

* ``optimize SPEC.json [--trace TRACE.txt]`` — run the Fig. 7 pipeline
  on a system spec (extracting the workload model from the trace when
  one is given) and print the optimal policy and verification summary;
  ``--lp-backend`` picks the LP solver;
* ``pareto SPEC.json --constraint penalty --bounds 0.1,0.2,0.5`` —
  sweep a constraint through the incremental sweep engine (bound
  dedupe, feasibility bracketing, warm-started re-solves) and print the
  trade-off curve; ``--refine N`` densifies the curve where it bends,
  ``--lp-backend`` picks the LP solver (warm starts need ``simplex``) and
  ``--simulate N`` verifies every feasible point with one batched
  simulation run;
* ``experiment ID [--full]`` — regenerate a paper table/figure
  (``repro-dpm experiment list`` shows the registry); ``--lp-backend``
  is forwarded through the registry to drivers that accept it;
* ``fleet SPEC.json --ticks 20`` — run an online fleet campaign
  (:mod:`repro.runtime`): a JSON spec describes device groups x
  workloads x agents; ``--telemetry`` streams JSON-lines snapshots,
  ``--checkpoint`` saves resumable state each run and ``--resume``
  continues a saved campaign (refusing, with exit code 2, one stepped
  at a chunk length other than the fixed fleet one or saved with
  ``backend: "loop"``); stationary, fixed-timeout and stream-driven
  devices step in grouped kernel batches and the rest (adaptive and
  other stateful agents) on the per-device loop, and the run's
  wall-clock time is printed, never written to telemetry or
  checkpoints;
* ``serve SPEC.json --socket /tmp/fleet.sock --shards 4`` — run the
  sharded fleet daemon (:mod:`repro.service`): the fleet is dealt
  across worker processes by device-group content signature and
  stepped in lockstep, with device-level telemetry and checkpoints
  byte-identical to the single-process ``fleet`` path; ``--resume``
  continues a checkpointed campaign under any shard count (its
  ``fleet-ctl register`` then needs ``--group-index``; a group index
  the daemon knows is taken is always refused),
  ``--checkpoint-every`` sets the per-shard restart-spool cadence and
  ``--flush-every``/``--fsync`` tune telemetry durability;
* ``fleet-ctl --socket /tmp/fleet.sock ACTION`` — control a running
  daemon: ``info``/``ping``, ``step N [--follow]`` (streamed
  telemetry on stdout), ``register GROUP.json``, ``remove ID``,
  ``update-policy ID AGENT.json``, ``snapshot [--per-device]``,
  ``checkpoint PATH`` and ``shutdown`` — all against the live fleet,
  no restart;
* ``fit TRACE.txt --resolution 0.001 --out FITTED.json`` — the full
  estimation pipeline (:mod:`repro.estimation`): BIC-selected arrival
  chain + MMPP(2)/Poisson generator fits + validation report; with
  ``--provider-spec`` or ``--provider-log`` it emits a complete,
  ready-to-optimize system spec (feed it back to ``optimize`` /
  ``pareto``) and ``--fleet-out`` writes a fleet campaign spec driven
  by the fitted generator;
* ``extract TRACE.txt --resolution 0.001 --memory 2`` — run just the
  SR extractor and print the fitted model;
* ``lint [PATHS...]`` — run the :mod:`repro.lint` determinism &
  backend-parity static analyzer (RNG threading, hash stability,
  float determinism, telemetry/checkpoint schema drift); ``--json``
  emits the machine-readable report, ``--select`` runs a rule subset
  and ``--list-rules`` documents the battery.  Exit code 0 means
  clean, 1 means findings, 2 means the run itself failed.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.pareto import simulate_curve
from repro.experiments import available_experiments, run_experiment
from repro.lint.cli import add_lint_arguments, run_lint
from repro.sim.rng import make_rng
from repro.tool.pipeline import run_pipeline, sweep_tradeoff
from repro.tool.spec import load_spec
from repro.traces.extractor import SRExtractor
from repro.traces.trace import Trace
from repro.util.tables import format_table
from repro.util.validation import ValidationError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dpm",
        description=(
            "Policy optimization for dynamic power management "
            "(Benini et al., DAC 1998)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="run the full pipeline on a spec")
    p_opt.add_argument("spec", help="path to a JSON system spec")
    p_opt.add_argument("--trace", help="path to a request trace file")
    p_opt.add_argument("--memory", type=int, default=1, help="SR extractor memory")
    p_opt.add_argument("--seed", type=int, default=0, help="verification RNG seed")
    p_opt.add_argument(
        "--no-verify", action="store_true", help="skip simulation verification"
    )
    p_opt.add_argument(
        "--lp-backend",
        default="scipy",
        help="LP backend (scipy/interior-point/simplex)",
    )
    p_opt.add_argument(
        "--average",
        action="store_true",
        help="use the long-run average formulation (paper Eq. 7) instead "
        "of the discounted one",
    )
    p_opt.add_argument(
        "--print-policy", action="store_true", help="print the full policy matrix"
    )
    p_opt.add_argument(
        "--profile",
        action="store_true",
        help="print LP solve statistics (iterations, refactorizations, "
        "fill-in) from the backend",
    )

    p_pareto = sub.add_parser("pareto", help="sweep a constraint bound")
    p_pareto.add_argument("spec", help="path to a JSON system spec")
    p_pareto.add_argument(
        "--constraint", default="penalty", help="metric to sweep (default: penalty)"
    )
    p_pareto.add_argument(
        "--bounds",
        required=True,
        help="comma-separated bounds, e.g. 0.1,0.2,0.5",
    )
    p_pareto.add_argument(
        "--objective", default="power", help="metric to minimize (default: power)"
    )
    p_pareto.add_argument(
        "--refine",
        type=int,
        default=0,
        metavar="N",
        help="adaptively bisect the N largest objective gaps to densify "
        "the curve where it bends (default: 0)",
    )
    p_pareto.add_argument(
        "--lp-backend",
        default="scipy",
        help="LP backend (scipy/interior-point/simplex; warm starts "
        "require simplex)",
    )
    p_pareto.add_argument(
        "--simulate",
        type=int,
        default=0,
        metavar="SLICES",
        help="verify each feasible point by simulating its policy for "
        "SLICES slices (batched; 0 disables)",
    )
    p_pareto.add_argument(
        "--profile",
        action="store_true",
        help="print aggregated LP solve statistics (iterations, "
        "refactorizations, warm starts, dedupe/bracket savings)",
    )
    p_pareto.add_argument("--seed", type=int, default=0)

    p_exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p_exp.add_argument(
        "experiment_id",
        help="experiment id, 'list' to enumerate, or 'all'",
    )
    p_exp.add_argument(
        "--full",
        action="store_true",
        help="full-length simulations (default: quick mode)",
    )
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument(
        "--lp-backend",
        default=None,
        help="LP backend (scipy/interior-point/simplex), forwarded to "
        "drivers that accept it",
    )

    p_fleet = sub.add_parser(
        "fleet", help="run an online fleet campaign (repro.runtime)"
    )
    p_fleet.add_argument(
        "spec",
        nargs="?",
        help="path to a JSON fleet spec (omit with --resume)",
    )
    p_fleet.add_argument(
        "--ticks", type=int, default=10, help="ticks to run (default: 10)"
    )
    p_fleet.add_argument(
        "--slices-per-tick",
        type=int,
        default=None,
        metavar="N",
        help="slices per tick (default: the spec's slices_per_tick, or 1000)",
    )
    p_fleet.add_argument(
        "--lp-backend",
        default="scipy",
        help="LP backend for optimal/adaptive agents",
    )
    p_fleet.add_argument(
        "--telemetry",
        metavar="PATH",
        help="write JSON-lines fleet snapshots to PATH",
    )
    p_fleet.add_argument(
        "--telemetry-every",
        type=int,
        default=None,
        metavar="K",
        help="ticks between telemetry snapshots (default: 1; on "
        "--resume, the checkpoint's value)",
    )
    p_fleet.add_argument(
        "--per-device",
        action="store_true",
        help="include per-device sub-records in telemetry snapshots",
    )
    p_fleet.add_argument(
        "--checkpoint",
        metavar="PATH",
        help="save full fleet state to PATH after the run",
    )
    p_fleet.add_argument(
        "--resume",
        metavar="PATH",
        help="resume a checkpointed campaign instead of building from a spec",
    )
    p_fleet.add_argument("--seed", type=int, default=0)

    p_serve = sub.add_parser(
        "serve", help="run the sharded fleet daemon (repro.service)"
    )
    p_serve.add_argument(
        "spec",
        nargs="?",
        help="path to a JSON fleet spec (omit with --resume, or to "
        "start an empty fleet and register groups live)",
    )
    p_serve.add_argument(
        "--socket",
        required=True,
        metavar="PATH",
        help="AF_UNIX socket path to serve on (keep it short: the "
        "kernel caps socket paths at ~100 bytes)",
    )
    p_serve.add_argument(
        "--shards",
        type=int,
        default=2,
        metavar="N",
        help="worker process count (default: 2); results are "
        "byte-identical for every value",
    )
    p_serve.add_argument(
        "--slices-per-tick",
        type=int,
        default=None,
        metavar="N",
        help="slices per tick (default: the spec's slices_per_tick, or 1000)",
    )
    p_serve.add_argument(
        "--lp-backend",
        default="scipy",
        help="LP backend for optimal/adaptive agents",
    )
    p_serve.add_argument(
        "--telemetry",
        metavar="PATH",
        help="write JSON-lines fleet snapshots to PATH",
    )
    p_serve.add_argument(
        "--telemetry-every",
        type=int,
        default=None,
        metavar="K",
        help="ticks between telemetry snapshots (default: 1; on "
        "--resume, the checkpoint's value)",
    )
    p_serve.add_argument(
        "--per-device",
        action="store_true",
        help="include per-device sub-records in telemetry snapshots",
    )
    p_serve.add_argument(
        "--flush-every",
        type=int,
        default=1,
        metavar="N",
        help="telemetry records between flushes (default: 1; raise to "
        "trade crash durability for throughput)",
    )
    p_serve.add_argument(
        "--fsync",
        action="store_true",
        help="fsync the telemetry file on every flush",
    )
    p_serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        metavar="K",
        help="per-shard restart-spool cadence in ticks (default: 1; "
        "0 disables spooling — a dead worker then kills the run)",
    )
    p_serve.add_argument(
        "--spool-dir",
        metavar="DIR",
        help="directory for per-shard restart spools (default: a "
        "private temporary directory)",
    )
    p_serve.add_argument(
        "--resume",
        metavar="PATH",
        help="resume a checkpointed campaign (any shard count) instead "
        "of building from a spec",
    )
    p_serve.add_argument(
        "--worker-deadline",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="seconds before a silent worker is declared hung and "
        "restarted from spool (default: 300; 0 disables deadlines)",
    )
    p_serve.add_argument(
        "--restart-backoff",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="base of the exponential pause between failed recoveries "
        "of one shard (default: 0.5, capped at 30)",
    )
    p_serve.add_argument(
        "--quarantine-after",
        type=int,
        default=5,
        metavar="N",
        help="consecutive failed recoveries before a shard is "
        "quarantined instead of crash-looping (default: 5)",
    )
    p_serve.add_argument(
        "--fault-plan",
        metavar="PATH",
        help="JSON fault plan (repro.faults) injected across the "
        "daemon and every worker — deterministic chaos testing",
    )
    p_serve.add_argument(
        "--fault-ledger",
        metavar="DIR",
        help="one-shot fault ledger directory (default: "
        "<spool-dir>/fired); share it with fleet-ctl --fault-plan "
        "to coordinate one plan across both ends",
    )
    p_serve.add_argument("--seed", type=int, default=0)

    p_ctl = sub.add_parser(
        "fleet-ctl", help="control a running fleet daemon"
    )
    p_ctl.add_argument(
        "--socket",
        required=True,
        metavar="PATH",
        help="the daemon's AF_UNIX socket path",
    )
    p_ctl.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="socket timeout (default: block forever)",
    )
    p_ctl.add_argument(
        "--retries",
        type=int,
        default=3,
        metavar="N",
        help="reconnect-and-retry attempts per request after a "
        "transport failure (default: 3; 0 disables; retried requests "
        "are idempotent — the daemon never re-applies one)",
    )
    p_ctl.add_argument(
        "--retry-backoff",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="base of the exponential pause between retry attempts "
        "(default: 0.05, capped at 2)",
    )
    p_ctl.add_argument(
        "--fault-plan",
        metavar="PATH",
        help="JSON fault plan installed in this client process "
        "(client.send / client.recv / channel.send sites)",
    )
    p_ctl.add_argument(
        "--fault-ledger",
        metavar="DIR",
        help="one-shot fault ledger directory (default: "
        "<fault-plan>.fired next to the plan file)",
    )
    ctl_sub = p_ctl.add_subparsers(dest="action", required=True)
    ctl_sub.add_parser("info", help="operational summary as JSON")
    ctl_sub.add_parser("ping", help="liveness probe")
    p_ctl_step = ctl_sub.add_parser("step", help="advance the fleet")
    p_ctl_step.add_argument(
        "ticks", type=int, nargs="?", default=1, help="ticks to run"
    )
    p_ctl_step.add_argument(
        "--follow",
        action="store_true",
        help="print each streamed telemetry record to stdout (one "
        "JSON line per snapshot, byte-identical to the daemon's "
        "--telemetry file)",
    )
    p_ctl_reg = ctl_sub.add_parser(
        "register", help="register a device group into the live fleet"
    )
    p_ctl_reg.add_argument(
        "group", help="path to a JSON group spec (fleet-spec group vocabulary)"
    )
    p_ctl_reg.add_argument(
        "--seed", type=int, default=0, help="base seed (as build_fleet)"
    )
    p_ctl_reg.add_argument(
        "--group-index",
        type=int,
        default=None,
        metavar="I",
        help="explicit group index for seeding/ids (default: the "
        "daemon's running counter; required by a daemon started with "
        "serve --resume, which does not know it); an index the daemon "
        "knows is used is refused",
    )
    p_ctl_rm = ctl_sub.add_parser("remove", help="deregister one device")
    p_ctl_rm.add_argument("device_id")
    p_ctl_up = ctl_sub.add_parser(
        "update-policy", help="push a new agent onto a live device"
    )
    p_ctl_up.add_argument("device_id")
    p_ctl_up.add_argument(
        "agent", help="path to a JSON agent spec (fleet-spec vocabulary)"
    )
    p_ctl_snap = ctl_sub.add_parser(
        "snapshot", help="current fleet telemetry snapshot as JSON"
    )
    p_ctl_snap.add_argument(
        "--per-device",
        action="store_true",
        help="include per-device sub-records",
    )
    p_ctl_ck = ctl_sub.add_parser(
        "checkpoint", help="write a full-fleet checkpoint"
    )
    p_ctl_ck.add_argument(
        "path", help="checkpoint path (on the daemon's filesystem)"
    )
    ctl_sub.add_parser("shutdown", help="stop the daemon")

    p_lint = sub.add_parser(
        "lint",
        help="statically check the repo's reproducibility contracts",
    )
    add_lint_arguments(p_lint)

    p_ext = sub.add_parser("extract", help="fit an SR model from a trace")
    p_ext.add_argument("trace", help="path to a request trace file")
    p_ext.add_argument("--resolution", type=float, required=True, help="tau, seconds")
    p_ext.add_argument("--memory", type=int, default=1)

    p_fit = sub.add_parser(
        "fit", help="identify workload/provider models from measured data"
    )
    p_fit.add_argument("trace", help="path to a request trace file")
    p_fit.add_argument(
        "--resolution", type=float, required=True, help="tau, seconds"
    )
    p_fit.add_argument(
        "--memory",
        type=int,
        default=None,
        help="fix the chain memory (skips the BIC structure search)",
    )
    p_fit.add_argument(
        "--memories",
        default="1,2,3",
        help="candidate memories for the structure search (default: 1,2,3)",
    )
    p_fit.add_argument(
        "--max-level",
        type=int,
        default=None,
        help="fix the arrival-level cap (default: searched up to 3)",
    )
    p_fit.add_argument(
        "--smoothing",
        type=float,
        default=0.5,
        help="Dirichlet pseudo-count for chain fitting (default: 0.5)",
    )
    p_fit.add_argument(
        "--criterion",
        choices=("bic", "aic"),
        default="bic",
        help="structure-selection criterion (default: bic)",
    )
    p_fit.add_argument(
        "--provider-spec",
        metavar="SPEC.json",
        help="take the SP model and optimization setup from a system spec",
    )
    p_fit.add_argument(
        "--provider-log",
        metavar="LOG.jsonl",
        help="fit the SP model from a JSON-lines transition log",
    )
    p_fit.add_argument(
        "--out",
        metavar="SYSTEM.json",
        help="write the fitted, ready-to-optimize system spec",
    )
    p_fit.add_argument(
        "--fleet-out",
        metavar="FLEET.json",
        help="write a one-group fleet spec driven by the fitted generator",
    )
    p_fit.add_argument(
        "--count",
        type=int,
        default=16,
        help="device count for --fleet-out (default: 16)",
    )
    p_fit.add_argument(
        "--generator",
        choices=("auto", "mmpp2", "poisson"),
        default="auto",
        help="fleet workload generator (default: lower-BIC fit)",
    )
    p_fit.add_argument(
        "--report", metavar="REPORT.json", help="write the fit report JSON"
    )
    p_fit.add_argument(
        "--name", default=None, help="name for the emitted system spec"
    )
    p_fit.add_argument(
        "--queue-capacity",
        type=int,
        default=None,
        help="queue capacity for the emitted spec (default: provider "
        "spec's, or 1)",
    )
    p_fit.add_argument(
        "--gamma",
        type=float,
        default=None,
        help="discount factor for the emitted spec",
    )
    p_fit.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero when a validation check fails",
    )

    return parser


def _print_lp_profile(lp_result, header: str = "lp solve profile") -> None:
    """Render one LP solve's ``LPResult.stats`` as a profile block."""
    stats = getattr(lp_result, "stats", None)
    if not stats:
        print(
            f"{header}: backend {lp_result.backend!r} reported no solve "
            f"statistics"
        )
        return
    shape = f"{stats.get('n_rows', '?')} rows x {stats.get('n_cols', '?')} cols"
    rep = "sparse" if stats.get("sparse") else "dense"
    print(
        f"{header}: {rep} {shape}, nnz {stats.get('nnz', '?')}, "
        f"backend {lp_result.backend}"
    )
    print(
        f"  iterations {stats.get('iterations', 0)}, "
        f"refactorizations {stats.get('refactorizations', 0)}, "
        f"eta updates {stats.get('eta_updates', 0)}, "
        f"fill-in {stats.get('fill_ratio', 0.0)}x, "
        f"pricing {stats.get('pricing', 'n/a')}, "
        f"warm start {'yes' if stats.get('warm_start_used') else 'no'}"
    )


def _cmd_optimize(args) -> int:
    spec = load_spec(args.spec)
    trace = Trace.load(args.trace) if args.trace else None
    rng = None if args.no_verify else make_rng(args.seed)
    report = run_pipeline(
        spec,
        trace=trace,
        memory=args.memory,
        rng=rng,
        backend=args.lp_backend,
        formulation="average" if args.average else "discounted",
    )
    print(report.summary())
    if args.profile:
        _print_lp_profile(report.optimization.lp_result)
    if not report.optimization.feasible:
        return 1
    if args.print_policy:
        policy = report.optimization.policy
        rows = [
            [state] + [policy.matrix[i, a] for a in range(policy.n_commands)]
            for i, state in enumerate(report.system_states)
        ]
        print(
            format_table(
                ["state"] + list(policy.command_names),
                rows,
                title="optimal policy matrix",
            )
        )
    return 0


def _cmd_pareto(args) -> int:
    spec = load_spec(args.spec)
    bounds = [float(b) for b in args.bounds.split(",") if b.strip()]
    report = sweep_tradeoff(
        spec,
        bounds,
        objective=args.objective,
        constraint=args.constraint,
        refine=args.refine,
        backend=args.lp_backend,
    )
    curve = report.curve
    simulated: list = [None] * len(curve.points)
    headers = [f"{args.constraint}_bound", f"min_{args.objective}", "feasible"]
    if args.simulate > 0:
        simulated = simulate_curve(
            curve,
            report.system,
            report.costs,
            args.simulate,
            args.seed,
        )
        headers.append(f"sim_{args.objective}")
    rows = []
    for point, sims in zip(curve.points, simulated):
        row = [
            point.bound,
            point.objective if point.feasible else float("nan"),
            "yes" if point.feasible else "no",
        ]
        if args.simulate > 0:
            row.append(
                sims[0].averages[args.objective] if sims else float("nan")
            )
        rows.append(tuple(row))
    print(
        format_table(
            headers,
            rows,
            title=f"trade-off curve for {spec.name}",
        )
    )
    stats = curve.stats
    if stats is not None:
        print(
            f"sweep: {stats.n_solves} LP solves for {stats.n_requested} "
            f"requested bounds ({stats.n_warm} warm-started, "
            f"{stats.n_deduped} deduped, {stats.n_bracket_skipped} "
            f"skipped by bracketing, {stats.n_refined} refined)"
        )
        if args.profile:
            saved = stats.n_deduped + stats.n_bracket_skipped
            print(
                f"profile: {stats.lp_iterations} simplex iterations, "
                f"{stats.lp_refactorizations} refactorizations across "
                f"{stats.n_solves} solves; {saved} solve(s) answered "
                f"without touching the backend (dedupe/bracket cache hits)"
            )
            solved = next(
                (
                    p.result.lp_result
                    for p in curve.points
                    if p.result is not None and p.result.lp_result is not None
                ),
                None,
            )
            if solved is not None:
                _print_lp_profile(solved, header="representative solve")
    return 0


def _cmd_experiment(args) -> int:
    if args.experiment_id == "list":
        for experiment_id in available_experiments():
            print(experiment_id)
        return 0
    ids = (
        list(available_experiments())
        if args.experiment_id == "all"
        else [args.experiment_id]
    )
    exit_code = 0
    for experiment_id in ids:
        result = run_experiment(
            experiment_id,
            quick=not args.full,
            seed=args.seed,
            lp_backend=args.lp_backend,
        )
        print(result.render())
        print()
        if not result.all_checks_pass:
            exit_code = 1
    return exit_code


def _cmd_fleet(args) -> int:
    import json as _json

    from repro.runtime import (
        FleetController,
        JsonLinesTelemetry,
        build_fleet,
    )

    telemetry = None
    if args.telemetry:
        telemetry = JsonLinesTelemetry(
            args.telemetry, append=args.resume is not None
        )
    try:
        if args.resume:
            controller = FleetController.resume(
                args.resume,
                telemetry=telemetry,
                telemetry_every=args.telemetry_every,
                telemetry_per_device=args.per_device or None,
            )
            cache = None
            print(
                f"resumed fleet of {len(controller.fleet)} devices at "
                f"tick {controller.tick}"
            )
        else:
            if not args.spec:
                raise ValidationError(
                    "a fleet spec is required unless --resume is given"
                )
            raw = _json.loads(Path(args.spec).read_text())
            fleet, cache = build_fleet(
                raw, base_seed=args.seed, lp_backend=args.lp_backend
            )
            slices_per_tick = args.slices_per_tick or int(
                raw.get("slices_per_tick", 1000)
            )
            controller = FleetController(
                fleet,
                slices_per_tick=slices_per_tick,
                telemetry=telemetry,
                telemetry_every=(
                    1 if args.telemetry_every is None else args.telemetry_every
                ),
                telemetry_per_device=args.per_device,
            )
            print(
                f"built fleet {raw.get('name', 'unnamed')!r}: "
                f"{len(fleet)} devices"
            )
        if args.slices_per_tick and args.resume:
            print(
                "note: --slices-per-tick is ignored on --resume (the "
                "checkpoint's tick length is kept for determinism)"
            )

        grouping = controller.grouping()
        vector_devices = sum(
            g["devices"] for g in grouping["vector_groups"]
        )
        print(
            f"grouping: {len(grouping['vector_groups'])} batch group(s) "
            f"covering {vector_devices} device(s) on the vector kernel, "
            f"{grouping['loop_devices']} on the per-device loop"
        )
        if cache is not None and (cache.stats.hits or cache.stats.misses):
            print(
                f"policy cache: {cache.stats.misses} solve(s), "
                f"{cache.stats.hits} hit(s)"
            )

        started = time.perf_counter()
        controller.run(args.ticks)
        seconds = time.perf_counter() - started
        print(
            f"ran {args.ticks} tick(s) in {seconds:.3f} s "
            f"({1000 * seconds / max(args.ticks, 1):.1f} ms/tick)"
        )

        record = controller.snapshot(per_device=False)
        rows = [
            (name, stats["mean"], stats["min"], stats["max"])
            for name, stats in sorted(record["metrics"].items())
        ]
        print(
            format_table(
                ["metric", "fleet_mean", "min", "max"],
                rows,
                title=(
                    f"fleet after tick {record['tick']} "
                    f"({record['fleet_slices']} device-slices)"
                ),
            )
        )
        counters = record["counters"]
        print(
            f"requests: {counters['arrivals']} arrived, "
            f"{counters['serviced']} serviced, {counters['lost']} lost"
        )
        if args.checkpoint:
            controller.save_checkpoint(args.checkpoint)
            print(f"checkpoint saved to {args.checkpoint}")
        return 0
    finally:
        if telemetry is not None:
            telemetry.close()


def _cmd_serve(args) -> int:
    import json as _json

    from repro.runtime import (
        JsonLinesTelemetry,
        build_fleet,
        load_checkpoint,
    )
    from repro.service import FleetDaemon, ShardSupervisor

    if args.resume and args.spec:
        raise ValidationError("pass a fleet spec or --resume, not both")
    telemetry = None
    if args.telemetry:
        telemetry = JsonLinesTelemetry(
            args.telemetry,
            append=args.resume is not None,
            flush_every=args.flush_every,
            fsync=args.fsync,
        )
    cache = None
    fleet = None
    tick = 0
    next_group_index = 0
    slices_per_tick = args.slices_per_tick or 1000
    telemetry_every = 1 if args.telemetry_every is None else args.telemetry_every
    per_device = args.per_device
    if args.resume:
        payload = load_checkpoint(args.resume)
        fleet = payload["fleet"]
        tick = payload["tick"]
        # The checkpoint does not record the live group counter; the
        # daemon refuses a register without --group-index rather than
        # reuse an existing group's index (and so its device streams).
        next_group_index = None
        slices_per_tick = payload["slices_per_tick"]
        # A flag the user gives wins over the checkpoint's saved value.
        if args.telemetry_every is None:
            telemetry_every = payload["telemetry_every"]
        # Like `fleet --resume`: the flag can force per-device snapshots
        # on, but when absent the checkpoint's setting carries over so a
        # resumed daemon keeps emitting the same telemetry shape.
        per_device = per_device or bool(payload["telemetry_per_device"])
        if args.slices_per_tick is not None:
            print(
                "note: --slices-per-tick is ignored on --resume (the "
                "checkpoint's value is kept for determinism)"
            )
        print(
            f"resumed fleet of {len(fleet)} devices at tick {tick} "
            f"across {args.shards} shard(s)"
        )
    elif args.spec:
        raw = _json.loads(Path(args.spec).read_text())
        fleet, cache = build_fleet(
            raw, base_seed=args.seed, lp_backend=args.lp_backend
        )
        slices_per_tick = args.slices_per_tick or int(
            raw.get("slices_per_tick", 1000)
        )
        next_group_index = len(raw.get("groups", []))
        print(
            f"built fleet {raw.get('name', 'unnamed')!r}: "
            f"{len(fleet)} devices across {args.shards} shard(s)"
        )
    else:
        print(
            f"starting an empty fleet across {args.shards} shard(s); "
            f"register groups with fleet-ctl"
        )
    fault_plan = None
    if args.fault_plan:
        from repro.faults import FaultPlan

        fault_plan = FaultPlan.load(args.fault_plan)
        print(
            f"chaos mode: {len(fault_plan)} fault(s) scripted from "
            f"{args.fault_plan}"
        )
    supervisor = ShardSupervisor(
        args.shards,
        slices_per_tick=slices_per_tick,
        lp_backend=args.lp_backend,
        spool_dir=args.spool_dir,
        checkpoint_every=args.checkpoint_every,
        worker_deadline=args.worker_deadline or None,
        restart_backoff=args.restart_backoff,
        quarantine_after=args.quarantine_after,
        fault_plan=fault_plan,
        fault_ledger=args.fault_ledger,
    )
    if fleet is not None:
        supervisor.start(fleet, tick=tick)
    daemon = FleetDaemon(
        args.socket,
        supervisor,
        telemetry=telemetry,
        telemetry_every=telemetry_every,
        telemetry_per_device=per_device,
        policy_cache=cache,
        next_group_index=next_group_index,
    )
    print(f"serving on {args.socket} (stop with fleet-ctl shutdown)")
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive path
        print("interrupted; workers stopped")
    return 0


def _cmd_fleet_ctl(args) -> int:
    import json as _json

    from repro.service import ServiceClient

    if args.fault_plan:
        from repro import faults
        from repro.faults import FaultPlan

        ledger = args.fault_ledger or f"{args.fault_plan}.fired"
        faults.install(FaultPlan.load(args.fault_plan), ledger)
    with ServiceClient(
        args.socket,
        timeout=args.timeout,
        retries=args.retries,
        retry_backoff=args.retry_backoff,
    ) as client:
        if args.action == "info":
            print(_json.dumps(client.info(), indent=2, sort_keys=True))
        elif args.action == "ping":
            print(_json.dumps(client.ping(), sort_keys=True))
        elif args.action == "step":
            on_telemetry = None
            if args.follow:
                def on_telemetry(record):
                    # Matches JsonLinesTelemetry's serialization, so
                    # redirected stdout diffs cleanly against a
                    # --telemetry file.
                    print(_json.dumps(record, sort_keys=True))
            result = client.step(args.ticks, on_telemetry=on_telemetry)
            summary = (
                f"stepped {result['ticks_run']} tick(s) to "
                f"tick {result['tick']}"
            )
            if args.follow:
                print(summary, file=sys.stderr)
            else:
                print(summary)
        elif args.action == "register":
            group = _json.loads(Path(args.group).read_text())
            result = client.register_group(
                group, base_seed=args.seed, group_index=args.group_index
            )
            ids = result["device_ids"]
            print(
                f"registered {len(ids)} device(s) "
                f"({ids[0]} .. {ids[-1]}) as group "
                f"{result['group_index']}; fleet is now "
                f"{result['n_devices']} device(s)"
            )
        elif args.action == "remove":
            result = client.remove_device(args.device_id)
            print(
                f"removed {result['device_id']}; fleet is now "
                f"{result['n_devices']} device(s)"
            )
        elif args.action == "update-policy":
            agent = _json.loads(Path(args.agent).read_text())
            result = client.update_policy(args.device_id, agent)
            print(f"device {result['device_id']} now runs {result['agent']}")
        elif args.action == "snapshot":
            print(
                _json.dumps(client.snapshot(args.per_device), sort_keys=True)
            )
        elif args.action == "checkpoint":
            result = client.checkpoint(args.path)
            print(
                f"checkpoint at tick {result['tick']} written to "
                f"{result['path']}"
            )
        elif args.action == "shutdown":
            client.shutdown()
            print("daemon stopped")
        else:  # pragma: no cover - argparse rejects unknown actions
            raise ValidationError(f"unknown action {args.action!r}")
    return 0


def _cmd_fit(args) -> int:
    import json as _json

    from repro.estimation import (
        ProviderLog,
        fit_provider,
        fit_workload,
        fleet_spec_from_fit,
        system_spec_from_fit,
    )
    from repro.tool.spec import parse_spec

    trace = Trace.load(args.trace)
    memories = (
        (args.memory,)
        if args.memory is not None
        else tuple(
            int(m) for m in str(args.memories).split(",") if m.strip()
        )
    )
    fit = fit_workload(
        trace,
        resolution=args.resolution,
        memories=memories,
        max_levels=None if args.max_level is None else (args.max_level,),
        smoothing=args.smoothing,
        criterion=args.criterion,
    )
    print(fit.summary())

    # Resolve the service-provider side: a hand-written spec, a fitted
    # transition log, or none (workload-only fit).
    provider = None
    queue_capacity = 1
    gamma = 0.99999
    objective = "power"
    constraints: dict = {}
    lower_constraints: dict = {}
    initial_state = None
    if args.provider_spec and args.provider_log:
        raise ValidationError(
            "pass --provider-spec or --provider-log, not both"
        )
    if args.provider_spec:
        base = load_spec(args.provider_spec)
        provider = base.provider
        queue_capacity = base.queue_capacity
        gamma = base.gamma
        objective = base.objective
        constraints = dict(base.constraints)
        lower_constraints = dict(base.lower_constraints)
        # base.initial_state is intentionally not carried over: the
        # fitted chain renames the SR states, so the emitted spec
        # starts from the uniform distribution instead.
    elif args.provider_log:
        provider_fit = fit_provider(ProviderLog.load_jsonl(args.provider_log))
        provider = provider_fit.provider
        print(provider_fit.summary())
        print(provider_fit.transition_time_table())
    if args.queue_capacity is not None:
        queue_capacity = args.queue_capacity
    if args.gamma is not None:
        gamma = args.gamma

    name = args.name or f"{Path(args.trace).stem}-fitted"
    if args.out or args.fleet_out:
        if provider is None:
            raise ValidationError(
                "--out/--fleet-out need an SP model; pass --provider-spec "
                "or --provider-log"
            )
        raw = system_spec_from_fit(
            name,
            provider,
            fit,
            queue_capacity=queue_capacity,
            gamma=gamma,
            objective=objective,
            constraints=constraints,
            lower_constraints=lower_constraints,
            initial_state=initial_state,
        )
        parse_spec(raw)  # fail before writing anything malformed
        if args.out:
            Path(args.out).write_text(_json.dumps(raw, indent=2) + "\n")
            print(f"fitted system spec written to {args.out}")
        if args.fleet_out:
            fleet_raw = fleet_spec_from_fit(
                fit,
                raw,
                name=f"{name}-fleet",
                count=args.count,
                generator=args.generator,
            )
            Path(args.fleet_out).write_text(
                _json.dumps(fleet_raw, indent=2) + "\n"
            )
            print(f"fleet spec written to {args.fleet_out}")
    if args.report:
        Path(args.report).write_text(
            _json.dumps(fit.report.to_dict(), indent=2) + "\n"
        )
        print(f"fit report written to {args.report}")
    if not fit.report.valid:
        print("validation: FAILED (see report above)")
        if args.strict:
            return 1
    return 0


def _cmd_extract(args) -> int:
    trace = Trace.load(args.trace)
    model = SRExtractor(memory=args.memory).fit_trace(trace, args.resolution)
    print(
        f"fitted {model.memory}-memory model over {model.n_states} states "
        f"from {model.n_observations} transitions"
    )
    names = ["".join(map(str, s)) for s in model.states]
    rows = [
        [names[i]] + [model.matrix[i, j] for j in range(model.n_states)]
        for i in range(model.n_states)
    ]
    print(format_table(["state"] + names, rows, title="transition matrix"))
    with np.printoptions(precision=4, suppress=True):
        print("state counts:", model.state_counts)
    return 0


def main(argv=None) -> int:
    """CLI entry point (installed as ``repro-dpm``)."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "optimize": _cmd_optimize,
        "pareto": _cmd_pareto,
        "experiment": _cmd_experiment,
        "fleet": _cmd_fleet,
        "serve": _cmd_serve,
        "fleet-ctl": _cmd_fleet_ctl,
        "fit": _cmd_fit,
        "extract": _cmd_extract,
        "lint": run_lint,
    }
    try:
        return handlers[args.command](args)
    except BrokenPipeError:  # output piped into head etc.
        return 0
    except (ValidationError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
