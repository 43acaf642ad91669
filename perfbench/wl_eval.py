"""Workload ``eval``: recursive queries through in-process ``repro.cli.main``.

Why this workload: users answer recursive queries with ``repro eval``
(over an instance) and ``repro certain`` (over a view image), the regime
of Francis-Segoufin-Sirangelo (arXiv 1511.00938) of monadic and linear
Datalog queries.  Here the parser, the fixpoint engine and homomorphism
search do almost all the work and the evidence-side layers do none.  The
seven op kinds cover deep-narrow recursion (``tc-chain``: a 121-node
chain, 122 rounds), wide-shallow recursion (``tc-grid``, ``tc-tenant``),
a goal-bound query (``bound-dag``), a large instance file whose parsing
is most of the op (``reach-flights``: 5,000 cities, 15,000 flights),
multi-atom joins (``sg-tree``: same generation on a depth-7 binary
tree, 21,845 rows) and Skolem chasing (``certain-flights``: inverse
rules over a VHub/VLeg/VTwo view image).

Each kind has two inputs: one whose structure is fixed and one drawn
from the run seed (see :func:`gen.eval_input`).  Ops run in whole
rounds, one op of every kind per round in a seeded order, so every run
weighs the kinds alike.  Every op's output must equal, byte for byte,
the rows of the independent oracle (``oracles.py``) printed the way
``repro eval`` prints them: sorted by ``repr``, one tuple a line.

This workload is run by hand and is not in ``BENCHMARK.json``'s
workloads.  On a 2-vCPU VM, the interquartile range of ``ops_per_s``
and ``op_geomean_ms`` over ten seeds was 0.07-0.33 of the median: the
host's speed drifts by up to 2x over minutes, and these long
CPU-bound ops follow it more closely than the other workloads do.
Per-input medians, lower quartiles and minima spread as much or more,
so no statistic within a run absorbs the drift.  Its layers (parser,
evaluation, homomorphism search, views) also run under ``evidence`` and
``serve``.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time

import gen
import oracles
from common import Context, geomean, median_of, note, popen, wait_rusage

VARIANTS = 2
#: set-up is measured this many times per run (fresh processes)
SETUPS = 3


def expected_digest(rows: set) -> str:
    text = "".join(repr(row) + "\n" for row in sorted(rows, key=repr))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_plan(ctx: Context, seconds: float) -> str:
    """Inputs, expected digests and the seeded op order; the plan path."""
    inputs = {}
    for kind in gen.EVAL_KINDS:
        for variant in range(VARIANTS):
            key = f"{kind}-{variant}"
            inp = gen.eval_input(kind, variant, ctx.seed)
            folder = ctx.work / key
            folder.mkdir()
            (folder / "query.txt").write_text(inp["query"])
            (folder / "instance.txt").write_text(inp["instance"])
            argv = [inp["command"], str(folder / "query.txt")]
            if "views" in inp:
                (folder / "views.txt").write_text(inp["views"])
                argv.append(str(folder / "views.txt"))
            argv.append(str(folder / "instance.txt"))
            expected = oracles.eval_answer(kind, inp["data"])
            inputs[key] = {"kind": kind, "argv": argv,
                           "expected": expected_digest(expected),
                           "rows": len(expected)}
    rng = random.Random(ctx.seed)
    rounds = []
    for number in range(400):
        # every kind alternates between its inputs round by round, so
        # the seed shuffles the op order but not the mix
        round_ = [f"{kind}-{(number + i) % VARIANTS}"
                  for i, kind in enumerate(gen.EVAL_KINDS)]
        rng.shuffle(round_)
        rounds.append(round_)
    plan = {
        "inputs": inputs,
        "warmup": [f"{kind}-0" for kind in gen.EVAL_KINDS],
        "rounds": rounds,
        "seconds": seconds,
    }
    path = ctx.work / "plan.json"
    path.write_text(json.dumps(plan))
    return str(path)


def launch_worker(ctx: Context, plan: str, tag: str, *flags: str) -> dict:
    """One worker process; its result plus peak RSS and exit code."""
    result = ctx.work / f"result-{tag}.json"
    worker = str(ctx.root / "perfbench" / "eval_worker.py")
    launched = time.time()
    proc = popen([sys.executable, worker, plan, str(result),
                  repr(launched), *flags], ctx)
    code, rss = wait_rusage(proc, ctx.time_left())
    try:
        record = json.loads(result.read_text())
    except (OSError, ValueError):
        record = {"setup_s": None, "warmup": [], "ops": []}
    record["exit_code"] = code
    record["peak_rss_mb"] = rss
    return record


def summarize(setups: list[dict], timed: dict) -> dict:
    ops = timed.get("ops", [])
    warm = [w for s in setups for w in s.get("warmup", [])]
    failed_warm = sum(not w["ok"] for w in warm)
    good = [op for op in ops if op["ok"]]
    failed = len(ops) - len(good) + failed_warm
    if timed["exit_code"] != 0 or not ops:
        failed += 1
    wall = sum(op["latency_s"] for op in good)
    return {
        "attempted": len(ops) + len(warm) + (0 if ops else 1),
        "failed": failed,
        "metrics": {
            "setup_s": median_of(s["setup_s"] for s in setups
                                 if s.get("setup_s") is not None),
            "ops_per_s": len(good) / wall if wall else 0.0,
            "op_geomean_ms": geomean(op["latency_s"] * 1000.0 for op in good),
            "peak_rss_mb": timed["peak_rss_mb"],
        },
    }


def kind_latencies(ops: list[dict]) -> dict:
    """Median latency (ms) per op kind."""
    by_kind: dict = {}
    for op in ops:
        by_kind.setdefault(op["kind"], []).append(op["latency_s"] * 1000.0)
    return {kind: median_of(values) for kind, values in sorted(by_kind.items())}


def run(ctx: Context) -> dict:
    if ctx.trace:
        from traced import eval_traced

        return eval_traced(ctx)
    plan = write_plan(ctx, ctx.seconds)
    setups = [launch_worker(ctx, plan, f"setup{i}", "--setup-only")
              for i in range(SETUPS - 1)]
    timed = launch_worker(ctx, plan, "timed")
    setups.append(timed)
    note(f"eval: {len(timed.get('ops', []))} ops in "
         f"{timed.get('timed_s', 0):.1f}s, setups "
         f"{[round(s['setup_s'] or 0, 3) for s in setups]}")
    result = summarize(setups, timed)
    result["raw"] = {
        "setups": [s.get("setup_s") for s in setups],
        "kind_median_ms": kind_latencies(timed.get("ops", [])),
        "ops": timed.get("ops", []),
    }
    return result
