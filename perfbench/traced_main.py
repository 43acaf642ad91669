"""Run the program's CLI with spans recorded around its layers.

    python traced_main.py TRACE_DIR <repro arguments...>

Installs :mod:`tracer` before the program is imported, runs
``repro.cli.main`` with the given arguments, and writes this process's
spans to ``TRACE_DIR`` when the command returns; forked evidence job
workers write their own.  Evidence job functions become op root spans
named after their job.
"""

from __future__ import annotations

import sys
from pathlib import Path


def main() -> int:
    trace_dir, argv = Path(sys.argv[1]), sys.argv[2:]
    import tracer

    recorder = tracer.install(trace_dir)
    if argv[:1] == ["evidence"]:
        from repro.harness.registry import default_registry

        tracer.add_jobs(
            (*job.fn.split(":", 1), job.name) for job in default_registry()
        )
    from repro.cli import main as repro_main

    try:
        return repro_main(argv)
    finally:
        recorder.dump(trace_dir)


if __name__ == "__main__":
    sys.exit(main())
