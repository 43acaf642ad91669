"""Workload ``evidence``: ``python -m repro evidence run`` as users run it.

Why this workload: it is the paper-reproduction path, regenerating
Tables 1-2 and Figures 1-5 of Benedikt-Kikot-Ostropolski-Nalewaja-Romero
(PODS 2020) as 28 checked jobs.  Containment, automata, determinacy and
homomorphism search run on paper-sized inputs, and the engine work is
many tiny fixpoints, the side of the engine choice where plan-build
overhead shows.  Here the harness dominates: one fork per job, cold lazy
imports in every child, the runner's poll tick and a manifest of tens of
megabytes.  The workload runs the CLI as a subprocess, once per pass,
with a fresh output directory and no result cache; one op is one job.

Correctness: every job is pinned by name and expected verdict below.  A
job missing from the registry, an extra unpinned job, a wrong verdict,
a non-ok status or a non-zero exit counts as a failed op, never as a
faster suite.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

from common import Context, geomean, median_of, note, popen, wait_rusage

#: job name -> the verdict the paper's claim predicts
PINNED = {
    "fig1-adjacency-gadgets": "exact-adjacency",
    "fig1-verify-rules": "detects-violations",
    "fig2-tests-recover-grids": "grids-recovered",
    "fig2-view-image": "product-image",
    "fig3-chain-and-image": "image-matches",
    "fig3-unravelled-counterexample": "counterexample",
    "fig4-long-row": "no-embedding",
    "fig5-lemma3-treewidth": "within-bound",
    "ivm-chain-maintenance": "maintenance-equivalent",
    "ivm-grid-maintenance": "maintenance-equivalent",
    "ivm-insert-monotone-chain": "maintenance-equivalent",
    "ivm-retraction-grid-bounds": "maintenance-equivalent",
    "shard-grid-exchange": "shard-equivalent",
    "shard-tenant-reachability": "shard-equivalent",
    "t1-cq-rewriting": "cq-rewriting",
    "t1-datalog-fgdl": "datalog-rewriting",
    "t1-mdl-cq-fgdl-rewriting": "fgdl-rewriting",
    "t1-mdl-cq-not-mdl": "mdl-separation",
    "t1-mdl-rewriting-via-automata": "mdl-rewriting",
    "t1-thm8-no-datalog-rewriting": "no-datalog-rewriting",
    "t1-ucq-rewriting": "ucq-rewriting",
    "t2-cq-cq": "decided-exactly",
    "t2-cq-datalog": "decided-exactly",
    "t2-cross-validation": "procedures-agree",
    "t2-fgdl": "determined-and-refuted",
    "t2-lower-bounds": "reductions-faithful",
    "t2-mdl-cq-thm4": "determined-and-refuted",
    "t2-undecidable-reduction": "reduction-faithful",
}

#: the CLI as a user types it, with at most two job workers
ARGS = ["evidence", "run", "--no-cache", "--jobs", "2"]


def one_pass(ctx: Context, index: int, trace_dir=None) -> dict:
    """Run the suite once; the pass record with one entry per op."""
    out = ctx.work / f"pass-{index}"
    if trace_dir is None:
        cmd = [sys.executable, "-m", "repro", *ARGS]
    else:
        cmd = [sys.executable, str(ctx.root / "perfbench" / "traced_main.py"),
               str(trace_dir), *ARGS]
    cmd += ["--out-dir", str(out)]
    out.mkdir(parents=True)
    with open(out / "stdout.txt", "wb") as log:
        launched = time.time()
        proc = popen(cmd, ctx, stdout=log, stderr=subprocess.STDOUT)
        code, rss = wait_rusage(proc, ctx.time_left())
        exited = time.time()
    run_start = None
    try:
        for line in (out / "events.jsonl").read_text().splitlines():
            event = json.loads(line)
            if event.get("event") == "run_start":
                run_start = float(event["ts"])
                break
        manifest = json.loads((out / "manifest.json").read_text())
    except (OSError, ValueError):
        manifest = {"jobs": {}}
    jobs = manifest.get("jobs", {})
    ops = []
    for name, verdict in PINNED.items():
        job = jobs.get(name)
        ok = (
            code == 0
            and job is not None
            and job.get("status") == "ok"
            and job.get("verdict") == verdict
        )
        ops.append({
            "job": name,
            "ok": ok,
            "duration_s": job.get("duration_s") if job else None,
            "verdict": job.get("verdict") if job else None,
        })
    for name in sorted(set(jobs) - set(PINNED)):
        ops.append({"job": name, "ok": False, "duration_s": None,
                    "verdict": jobs[name].get("verdict"),
                    "error": "job is not pinned by the benchmark"})
    record = {
        "exit_code": code,
        "setup_s": (run_start - launched) if run_start else None,
        "timed_s": (exited - run_start) if run_start else exited - launched,
        "peak_rss_mb": rss,
        "ops": ops,
        # the shard jobs time sharded against single-process evaluation
        "shard": {
            name: {k: job["metrics"][k] for k in
                   ("sharded_seconds", "single_seconds", "shards")}
            for name, job in jobs.items()
            if "sharded_seconds" in (job.get("metrics") or {})
        },
    }
    if trace_dir is not None:
        # what the traced run reads later; the full manifest is large
        record["engine"] = manifest.get("engine_totals", {})
        record["jobs"] = {
            name: {k: job.get(k) for k in ("certificate", "metrics", "duration_s")}
            for name, job in jobs.items()
        }
    shutil.rmtree(out, ignore_errors=True)
    return record


def summarize(passes: list[dict]) -> dict:
    ops = [op for p in passes for op in p["ops"]]
    good = [op for op in ops if op["ok"]]
    timed = sum(p["timed_s"] for p in passes)
    setups = [p["setup_s"] for p in passes if p["setup_s"] is not None]
    return {
        "attempted": len(ops),
        "failed": len(ops) - len(good),
        "metrics": {
            "setup_s": median_of(setups),
            "ops_per_s": len(good) / timed if timed else 0.0,
            "op_geomean_ms": geomean(op["duration_s"] * 1000.0 for op in good),
            "peak_rss_mb": median_of(p["peak_rss_mb"] for p in passes),
        },
    }


def run_passes(ctx: Context, seconds: float, minimum: int,
               trace_dir=None, start: int = 0) -> list[dict]:
    """Passes until ``seconds`` of timed wall time, at least ``minimum``."""
    passes: list[dict] = []
    timed = 0.0
    while len(passes) < minimum or timed < seconds:
        record = one_pass(ctx, start + len(passes), trace_dir)
        passes.append(record)
        timed += record["timed_s"]
        note(f"evidence pass {start + len(passes)}: "
             f"{sum(op['ok'] for op in record['ops'])}/{len(record['ops'])} ok, "
             f"setup {record['setup_s'] or 0:.3f}s, timed {record['timed_s']:.2f}s")
    return passes


def run(ctx: Context) -> dict:
    if not ctx.trace:
        passes = run_passes(ctx, ctx.seconds, minimum=3)
        result = summarize(passes)
        result["raw"] = {"passes": passes}
        return result
    from traced import evidence_traced

    return evidence_traced(ctx)
