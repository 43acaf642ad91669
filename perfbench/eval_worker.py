"""The process that runs ``repro.cli.main`` for the ``eval`` workload.

    python eval_worker.py PLAN RESULT LAUNCHED [--setup-only]
        [--trace-dir DIR] [--attribution]

Reads the op plan written by ``wl_eval.py``, imports the program cold,
runs one untimed warm-up op per kind, and reports its set-up time as
``ready - LAUNCHED`` (wall clock).  Unless ``--setup-only``, it then runs
whole rounds of ops until the plan's seconds are used up: each op is
``main([...])`` with stdout captured, after a ``gc.collect()`` outside
the timed region.  The worker never sees the expected rows, only their
digests, so the oracle's data stays out of its memory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import sys
import time
from pathlib import Path


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_op(
    main, argv: list[str], around=contextlib.nullcontext
) -> tuple[float, int, str, str]:
    """``(seconds, exit code, output digest, error)`` of one CLI call;
    ``around()`` is entered inside the timed region only."""
    gc.collect()
    buf = io.StringIO()
    error = ""
    start = time.perf_counter()
    try:
        with around(), contextlib.redirect_stdout(buf):
            code = main(argv)
    except BaseException as exc:  # noqa: BLE001 - an op failure, recorded
        if isinstance(exc, KeyboardInterrupt):
            raise
        code, error = -1, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return elapsed, code, digest(buf.getvalue()), error


def main_(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("plan")
    parser.add_argument("result")
    parser.add_argument("launched", type=float)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-dir")
    parser.add_argument("--attribution", action="store_true")
    args = parser.parse_args(argv)
    plan = json.loads(Path(args.plan).read_text())
    inputs = plan["inputs"]

    recorder = None
    if args.trace_dir:
        import tracer

        recorder = tracer.install()
    from repro.cli import main

    def check(key: str, result) -> dict:
        elapsed, code, out, error = result
        return {
            "key": key,
            "latency_s": elapsed,
            "ok": code == 0 and out == inputs[key]["expected"],
            "code": code,
            "error": error,
        }

    warmups = [check(key, run_op(main, inputs[key]["argv"]))
               for key in plan["warmup"]]
    ready = time.time()
    record: dict = {"setup_s": ready - args.launched, "warmup": warmups}
    if not args.setup_only:
        if recorder is not None:
            recorder.reset()
        stats_totals: dict = {}
        ops = []
        timed = 0.0
        for number, round_ in enumerate(plan["rounds"]):
            if timed >= plan["seconds"]:
                break
            for index, key in enumerate(round_):
                op_id = f"{number}.{index}:{key}"
                if recorder is None:
                    result = run_op(main, inputs[key]["argv"])
                else:
                    result = _traced_op(recorder, main, inputs[key]["argv"],
                                        op_id, stats_totals)
                op = check(key, result)
                op["kind"] = inputs[key]["kind"]
                ops.append(op)
                timed += op["latency_s"]
        record["ops"] = ops
        record["timed_s"] = timed
        if recorder is not None:
            record["engine"] = stats_totals
            recorder.dump(Path(args.trace_dir))
        if args.attribution:
            record["attribution"] = _attribution(main, plan, inputs, check)
    Path(args.result).write_text(json.dumps(record))
    return 0


def _traced_op(recorder, main, argv, op_id, totals):
    """One op under a root span, with the engine's counters collected."""
    from repro.core.stats import EngineStats, collecting

    stats = EngineStats()

    @contextlib.contextmanager
    def around():
        with recorder.op(op_id), collecting(stats):
            yield

    result = run_op(main, argv, around)
    for name, value in stats.to_dict().items():
        if isinstance(value, int):
            totals[name] = totals.get(name, 0) + value
    return result


def _attribution(main, plan, inputs, check) -> list[dict]:
    """Every ``eval`` op kind once more on each engine (data for the
    choice of one engine), checked like timed ops.  ``certain`` takes no
    ``--backend`` flag, so it has no row."""
    rows = []
    for key in plan["warmup"]:
        argv = inputs[key]["argv"]
        if argv[0] != "eval":
            continue
        entry = {"kind": inputs[key]["kind"]}
        for engine in ("interpreted", "columnar"):
            entry[engine] = check(key, run_op(main, [*argv, "--backend", engine]))
        rows.append(entry)
    return rows


if __name__ == "__main__":
    sys.exit(main_())
