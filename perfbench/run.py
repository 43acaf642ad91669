"""The repository's end-to-end benchmark.

    python3 perfbench/run.py --workload {evidence,eval,serve} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each workload drives the program
through the entry point its users call (see ``wl_*.py`` for what each
runs and why), checks every op against pinned verdicts or the
independent oracles in ``oracles.py``, and prints as the last line of
stdout one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``, measured with tracing off; with ``--trace 1`` a
separate traced run reports the per-layer ones.  ``--seconds`` defaults
to the run length ``BENCHMARK.json`` fixes.  Raw values of every run
are kept under ``.perfbench-out/runs``; ``compare.py`` diffs them.

``BENCHMARK.json`` lists the workloads whose runs are compared against
bounds.  ``eval`` is not among them: its spread over seeds exceeded the
bounds on a 2-vCPU VM (see ``wl_eval.py``), so it is run by hand.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    Context,
    host_info,
    host_probe,
    note,
    save_run,
    spec,
)

WORKLOADS = ("evidence", "eval", "serve")


def main(argv=None) -> int:
    declaration = spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=declaration["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        note("perfbench: no program here; run from the root of a checkout "
             "that holds src/repro")
        return 2
    sys.path.insert(0, str(root / "src"))
    declared = {m["name"]: m["unit"] for m in
                declaration["per_layer" if args.trace else "end_to_end"]}

    ctx = Context(root, args.workload, args.seed, args.seconds,
                  bool(args.trace))
    workload = importlib.import_module(f"wl_{args.workload}")
    probe_before = host_probe()
    started = time.time()
    try:
        result = workload.run(ctx)
    finally:
        ctx.cleanup()
    elapsed = time.time() - started
    probe_after = host_probe()

    measured = result["metrics"]
    if args.trace:
        # a layer that does not run in a workload reads 0
        measured = {**dict.fromkeys(declared, 0), **measured}
    metrics = {name: {"value": float(measured[name]), "unit": unit}
               for name, unit in declared.items()}
    attempted, failed = result["attempted"], result["failed"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "started": started,
        "elapsed_s": elapsed,
        "host": {**host_info(), "probe_ms_before": probe_before,
                 "probe_ms_after": probe_after},
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted if attempted else 1.0,
        "metrics": metrics,
        "extra": {k: v for k, v in measured.items() if k not in declared},
        "raw": result.get("raw", {}),
    }
    path = save_run(ctx, record)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}  {elapsed:.1f}s  "
          f"raw values: {path.relative_to(root)}")
    print(f"  host: {record['host']['cpu_count']} CPU(s), Python "
          f"{record['host']['python']}, probe {probe_before:.2f} -> "
          f"{probe_after:.2f} ms")
    print(f"  ops: {attempted} attempted, {failed} failed "
          f"(failed_share {record['failed_share']:.4f})")
    for name, value in sorted(record["extra"].items()):
        print(f"  {name:<40} {value:.6g}")
    for name, entry in metrics.items():
        print(f"  {name:<40} {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
