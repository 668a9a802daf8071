"""Run one tscausal CLI command with the layer wrappers installed.

    python3 bench/trace_cli.py TRACE_FILE COMMAND [ARGS...]

Used by the traced chained-CLI workload in place of ``python -m
tscausal.cli``. The command runs inside a ``cli.<COMMAND>`` span; spans,
counts and kept inputs are written to TRACE_FILE (plus a ``.npz`` beside it)
when the command returns, and the exit code is the command's.
"""

from __future__ import annotations

import sys
from pathlib import Path

from layertrace import Tracer, clock


def main() -> int:
    trace_file, cli_args = Path(sys.argv[1]), sys.argv[2:]
    from tscausal import cli

    tracer = Tracer()
    main_start = clock()
    try:
        with tracer.installed(), tracer.span(f"cli.{cli_args[0]}"):
            return cli.main(cli_args)
    finally:
        tracer.dump(trace_file, main_start)


if __name__ == "__main__":
    raise SystemExit(main())
