"""Run ``repro-dpm serve`` with the benchmark's layer wrappers installed.

    python3 perfbench/daemon_entry.py TRACE_DIR [serve arguments...]

The traced service-churn run starts its daemon through this entry
instead of ``python3 -m repro.tool.cli``: it installs the same wrappers
as the client side, runs the unmodified ``serve`` command, and writes
the daemon's spans to ``TRACE_DIR`` when the command returns.  Shard
workers are forked from this process, inherit the wrappers, and write
their own spans when their entry returns.
"""

from __future__ import annotations

import sys

from ledger import Tracer


def main(argv: list[str]) -> int:
    trace_dir, serve_args = argv[0], argv[1:]
    tracer = Tracer("daemon").install()
    tracer.out_dir = trace_dir
    from repro.tool.cli import main as cli_main

    try:
        return cli_main(["serve", *serve_args])
    finally:
        tracer.dump(trace_dir)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
