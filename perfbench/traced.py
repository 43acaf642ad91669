"""The traced run of each workload and its per-layer metrics.

A traced run is one extra run per workload.  It first measures the
workload untraced for half of ``--seconds`` (a third for ``evidence``),
then traced for as long (:mod:`tracer` installed in every process that
runs the program),
so ``trace.overhead_ratio`` compares two phases of the same run.  Spans
of all processes are rolled up per layer and written as Chrome
trace-event JSON to ``.perfbench-out/trace-<workload>-seed<N>.json``
(open it in Perfetto or ``chrome://tracing``).  Counters come from
``EngineStats``: ``collecting()`` around each ``eval`` op, the
manifest's engine totals for ``evidence``, the ``stats`` op for
``serve``.

Besides the layers, a traced run records the measurements the ROADMAP
asks to attribute (they stay out of the timed runs):

* ``evidence``: every job's certificate replayed by the independent
  checker (a rejection is a failed op), and the two shard jobs' sharded
  against single-process times with the host's CPU count;
* ``eval``: every ``eval`` op kind once more on each engine;
* ``serve``: each session's maintenance round against a from-scratch
  fixpoint on each engine, in-process.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import wl_eval
import wl_evidence
import wl_serve
from common import OUT_DIR, Context, geomean, note, popen, wait_rusage

#: EngineStats counter -> per-layer metric
ENGINE = {
    "fixpoint_rounds": "core.evaluation.fixpoint_rounds",
    "facts_derived": "core.evaluation.facts_derived",
    "search_steps": "core.homomorphism.search_steps",
    "rows_scanned": "core.homomorphism.rows_scanned",
    "index_rebuilds": "core.instance.index_rebuilds",
    "index_incremental": "core.instance.index_incremental",
    "join_build_rows": "core.columnar.join_build_rows",
    "join_probe_rows": "core.columnar.join_probe_rows",
    "join_output_rows": "core.columnar.join_output_rows",
    "columnar_batches": "core.columnar.columnar_batches",
    "ivm_inserted": "ivm.ivm_inserted",
    "ivm_deleted": "ivm.ivm_deleted",
    "ivm_rederived": "ivm.ivm_rederived",
    "maintain_dred_strata": "ivm.maintain_dred_strata",
    "shard_workers": "core.shard.shard_workers",
    "shard_exchanged_rows": "core.shard.shard_exchanged_rows",
    "shard_local_rounds": "core.shard.shard_local_rounds",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# --------------------------------------------------------------------------
# rollups
# --------------------------------------------------------------------------
def load_dumps(trace_dir: Path) -> list[dict]:
    if not trace_dir.is_dir():
        return []
    return [json.loads(p.read_text()) for p in sorted(trace_dir.glob("spans-*.json"))]


def rollup(dumps: list[dict]) -> dict:
    """Layer key -> [calls, layer entries, key entries, inclusive ns, self ns]."""
    kinds: dict = defaultdict(lambda: [0, 0, 0, 0, 0])
    for dump in dumps:
        for kind, _name, *values in dump["rollup"]:
            entry = kinds[kind]
            for i, value in enumerate(values):
                entry[i] += value
    return kinds


def by_function(dumps: list[dict]) -> list[dict]:
    """Per-function totals, busiest first (kept in the run record)."""
    table: dict = defaultdict(lambda: [0, 0, 0])
    for dump in dumps:
        for kind, name, calls, _l, _k, incl, self_ns in dump["rollup"]:
            entry = table[(kind, name)]
            entry[0] += calls
            entry[1] += incl
            entry[2] += self_ns
    rows = [{"layer": k, "function": n, "calls": c, "inclusive_s": i / 1e9,
             "self_s": s / 1e9} for (k, n), (c, i, s) in table.items()]
    return sorted(rows, key=lambda r: -r["self_s"])


def layer_metrics(dumps: list[dict], engine: dict, extra: dict) -> dict:
    """Per-layer metric name -> value.  Names ``BENCHMARK.json`` does not
    declare are kept in the run record as extras."""
    from tracer import LAYER_OF

    kinds = rollup(dumps)
    layers: dict = defaultdict(lambda: [0, 0])   # layer -> [entries, self ns]
    for kind, (calls, layer_entries, _k, _incl, self_ns) in kinds.items():
        layer = LAYER_OF.get(kind, kind)
        layers[layer][0] += layer_entries
        layers[layer][1] += self_ns
    counters: dict = defaultdict(int)
    for dump in dumps:
        for name, value in dump["counters"].items():
            counters[name] += value

    m: dict = {}
    for layer, (entries, self_ns) in layers.items():
        m[f"{layer}.calls"] = entries
        m[f"{layer}.self_s"] = self_ns / 1e9
    for counter, name in ENGINE.items():
        m[name] = engine.get(counter, 0)
    m["core.evaluation.plan_cache_hit_ratio"] = _ratio(
        engine.get("plan_cache_hits", 0),
        engine.get("plan_cache_hits", 0) + engine.get("plan_cache_misses", 0))
    m["ivm.rederive_ratio"] = _ratio(
        engine.get("ivm_rederived", 0),
        engine.get("ivm_rederived", 0) + engine.get("ivm_deleted", 0))
    for name in ("core.parser.facts", "determinacy.canonical_tests",
                 "analysis.optimize.rules_removed", "certify.claims"):
        m[name] = counters.get(name, 0)

    def incl(kind: str) -> float:
        return kinds[kind][3] / 1e9 if kind in kinds else 0.0

    m["ivm.init_s"] = incl("ivm.init")
    m["ivm.apply_calls"] = kinds["ivm.apply"][2] if "ivm.apply" in kinds else 0
    m["ivm.apply_self_s"] = kinds["ivm.apply"][4] / 1e9 if "ivm.apply" in kinds else 0.0
    m["ivm.predict_s"] = incl("ivm.predict")
    m["serve.dispatch_self_s"] = (
        kinds["serve.dispatch"][4] / 1e9 if "serve.dispatch" in kinds else 0.0)
    m["serve.lock_wait_s"] = incl("serve.lock_wait")
    m["certify.emit_s"] = incl("certify.emit")
    m["certify.check_s"] = incl("certify.check")
    m["harness.fingerprint_s"] = incl("harness.fingerprint")
    m["harness.schedule_s"] = incl("harness.schedule")
    m["harness.manifest_s"] = incl("harness.manifest")
    m.update(extra)
    return m


def write_chrome_trace(ctx: Context, dumps: list[dict], client: list) -> Path:
    """Chrome trace-event JSON of every kept span (``ts``/``dur`` in us)."""
    events = []
    for dump in dumps:
        pid = dump["pid"]
        for name, kind, start, dur, tid, op, sid, parent in dump["events"]:
            events.append({"name": name, "cat": kind, "ph": "X",
                           "ts": start / 1000.0, "dur": dur / 1000.0,
                           "pid": pid, "tid": tid,
                           "args": {"op": op, "id": sid, "parent": parent}})
    events.extend(client)
    path = ctx.root / OUT_DIR / f"trace-{ctx.workload}-seed{ctx.seed}.json"
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}))
    return path


def finish(ctx: Context, dumps, engine, extra, attempted, failed,
           raw, client_events=()) -> dict:
    extra = {**extra, "host.cpu_count": os.cpu_count(),
             "failed_share": _ratio(failed, attempted)}
    path = write_chrome_trace(ctx, dumps, list(client_events))
    note(f"trace written to {path.relative_to(ctx.root)}")
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": layer_metrics(dumps, engine, extra),
        "raw": {**raw, "functions": by_function(dumps)[:200],
                "dropped_spans": sum(d["dropped"] for d in dumps),
                "trace_file": str(path.relative_to(ctx.root))},
    }


# --------------------------------------------------------------------------
# evidence
# --------------------------------------------------------------------------
def replay_certificates(ctx: Context, jobs: dict) -> dict:
    """Every job's certificate through the independent checker, on two
    processes; ``{job: [valid, claims, failures, seconds]}``.  The shard
    jobs' certificates (a naive fixpoint over a large instance each) are
    dealt out first, one per process, then the rest by size."""
    sized = sorted(((name.startswith("shard-"),
                     len(json.dumps(job.get("certificate"))), name)
                    for name, job in jobs.items()), reverse=True)
    shares: list = [{}, {}]
    loads = [0, 0]
    for _shard, size, name in sized:
        lighter = loads.index(min(loads))
        shares[lighter][name] = jobs[name].get("certificate")
        loads[lighter] += size
    procs = []
    for i, share in enumerate(shares):
        (ctx.work / f"certificates-{i}.json").write_text(json.dumps(share))
        procs.append(popen([sys.executable, str(ctx.root / "perfbench" / "replay.py"),
                            str(ctx.work / f"certificates-{i}.json"),
                            str(ctx.work / f"replayed-{i}.json")], ctx))
    results: dict = {}
    for i, proc in enumerate(procs):
        wait_rusage(proc, ctx.time_left())
        try:
            results.update(json.loads((ctx.work / f"replayed-{i}.json").read_text()))
        except (OSError, ValueError):
            pass
    return {name: results.get(name, [False, 0, ["not replayed"], 0.0])
            for name in jobs}


def evidence_traced(ctx: Context) -> dict:
    # a third of the time each: the certificate replay after the passes
    # takes about as long again
    third = ctx.seconds / 3
    plain = wl_evidence.run_passes(ctx, third, minimum=1)
    trace_dir = ctx.work / "spans"
    traced = wl_evidence.run_passes(ctx, third, minimum=1, trace_dir=trace_dir,
                                    start=len(plain))
    dumps = load_dumps(trace_dir)
    engine: dict = defaultdict(int)
    span_of_job: dict = defaultdict(int)
    duration_of_job: dict = defaultdict(float)
    for dump in dumps:
        for op, dur in dump["ops"].items():
            span_of_job[op] += dur
    for record in traced:
        for name, value in record["engine"].items():
            if isinstance(value, int):
                engine[name] += value
        for name, job in record["jobs"].items():
            duration_of_job[name] += job.get("duration_s") or 0.0
    overhead = sum(duration_of_job[n] - span_of_job.get(n, 0) / 1e9
                   for n in duration_of_job)

    started = time.perf_counter()
    checks = replay_certificates(ctx, traced[-1]["jobs"])
    rejected = [name for name, check in checks.items() if not check[0]]
    note(f"evidence: {len(checks) - len(rejected)}/{len(checks)} certificates "
         f"valid ({time.perf_counter() - started:.1f}s replay)")

    shard = [{"job": name, **times} for record in plain
             for name, times in record["shard"].items()]
    speedup = geomean(s["single_seconds"] / s["sharded_seconds"] for s in shard)

    plain_rate = wl_evidence.summarize(plain)["metrics"]["ops_per_s"]
    traced_rate = wl_evidence.summarize(traced)["metrics"]["ops_per_s"]
    ops = [op for p in plain + traced for op in p["ops"]]
    failed = sum(not op["ok"] for op in ops) + len(rejected)
    extra = {
        "certify.check_s": sum(check[3] for check in checks.values()),
        "certify.claims": sum(check[1] for check in checks.values()),
        "harness.job_overhead_s": overhead,
        "trace.overhead_ratio": _ratio(traced_rate, plain_rate),
        "attribution.shard_speedup_x": speedup,
    }
    raw = {
        "untraced_ops_per_s": plain_rate,
        "traced_ops_per_s": traced_rate,
        "certificates": {name: {"valid": c[0], "claims": c[1], "failures": c[2],
                                "seconds": c[3]} for name, c in checks.items()},
        "shard_jobs": shard,
        "engine": dict(engine),
    }
    return finish(ctx, dumps, engine, extra, len(ops) + len(checks), failed, raw)


# --------------------------------------------------------------------------
# eval
# --------------------------------------------------------------------------
def eval_traced(ctx: Context) -> dict:
    plan = wl_eval.write_plan(ctx, ctx.seconds / 2)
    plain = wl_eval.launch_worker(ctx, plan, "plain", "--attribution")
    trace_dir = ctx.work / "spans"
    traced = wl_eval.launch_worker(ctx, plan, "traced", "--trace-dir",
                                   str(trace_dir))
    dumps = load_dumps(trace_dir)
    plain_m = wl_eval.summarize([plain], plain)
    traced_m = wl_eval.summarize([traced], traced)
    attribution = plain.get("attribution", [])
    checked = [row[e] for row in attribution for e in ("interpreted", "columnar")]
    speedup = geomean(row["interpreted"]["latency_s"] / row["columnar"]["latency_s"]
                      for row in attribution)
    extra = {
        "trace.overhead_ratio": _ratio(traced_m["metrics"]["ops_per_s"],
                                       plain_m["metrics"]["ops_per_s"]),
        "attribution.eval_columnar_speedup": speedup,
    }
    raw = {
        "untraced_ops_per_s": plain_m["metrics"]["ops_per_s"],
        "traced_ops_per_s": traced_m["metrics"]["ops_per_s"],
        "engines_per_kind": [
            {"kind": row["kind"],
             "interpreted_ms": row["interpreted"]["latency_s"] * 1000,
             "columnar_ms": row["columnar"]["latency_s"] * 1000,
             "ok": row["interpreted"]["ok"] and row["columnar"]["ok"]}
            for row in attribution],
        "kind_median_ms": wl_eval.kind_latencies(traced.get("ops", [])),
        "engine": traced.get("engine", {}),
    }
    attempted = plain_m["attempted"] + traced_m["attempted"] + len(checked)
    failed = (plain_m["failed"] + traced_m["failed"]
              + sum(not op["ok"] for op in checked))
    return finish(ctx, dumps, traced.get("engine", {}), extra, attempted,
                  failed, raw)


# --------------------------------------------------------------------------
# serve
# --------------------------------------------------------------------------
def ivm_attribution(specs: list, seed: int, rounds: int = 15) -> list[dict]:
    """Per session, in-process: the median maintenance round of the
    first ``rounds`` updates of its stream against the median
    from-scratch fixpoint of the final base, on each engine.  The
    maintained and the recomputed answers are checked against the
    oracle."""
    from repro.core import parse_instance, parse_program
    from repro.core.evaluation import fixpoint
    from repro.ivm import MaterializedView

    out = []
    by_name = {spec.name: spec for spec in specs}
    for conn in range(len(wl_serve.OWNERS)):
        requests = [r for r in wl_serve.stream(seed, conn, by_name)
                    if r["op"] != "query"]
        for name in wl_serve.OWNERS[conn]:
            spec = by_name[name]
            view = MaterializedView(
                parse_program(spec.program),
                parse_instance(spec.create(0)["instance"]),
                optimize=bool(spec.options.get("optimize")),
                backend=spec.options.get("backend"))
            base = set(spec.base)
            times = []
            for request in [r for r in requests if r["session"] == name][:rounds]:
                ins, ret = wl_serve.request_facts(request)
                start = time.perf_counter()
                view.apply([(spec.pred, r) for r in ins],
                           [(spec.pred, r) for r in ret])
                times.append(time.perf_counter() - start)
                base.difference_update(ret)
                base.update(ins)
            expected = spec.expected(base)
            ok = set(view.query(spec.goal)) == expected
            entry = {"session": name,
                     "round_ms": statistics.median(times) * 1000}
            for engine in ("interpreted", "columnar"):
                samples = []
                for _ in range(3):
                    start = time.perf_counter()
                    result = fixpoint(view.program, view.base, optimize=False,
                                      backend=engine)
                    samples.append(time.perf_counter() - start)
                    ok = ok and set(result.tuples(spec.goal)) == expected
                entry[f"scratch_{engine}_ms"] = statistics.median(samples) * 1000
            entry["ok"] = ok
            out.append(entry)
    return out


def serve_traced(ctx: Context) -> dict:
    wl_serve.pin_client()
    specs = wl_serve.sessions(ctx.seed)
    half = ctx.seconds / 2
    plain = wl_serve.timed_phase(ctx, specs, half)
    trace_dir = ctx.work / "spans"
    traced = wl_serve.timed_phase(ctx, specs, half, trace_dir)
    plain_records, engines = wl_serve.verify(specs, plain)
    traced_records, _ = wl_serve.verify(specs, traced)
    dumps = load_dumps(trace_dir)

    handled: dict = defaultdict(int)
    for dump in dumps:
        for op, dur in dump["ops"].items():
            handled[op] += dur
    transport = sum(latency - handled.get(str(req["id"]), 0) / 1e9
                    for req, _line, latency, _sent in traced["done"])
    engine: dict = defaultdict(int)
    hits = misses = 0
    for reply in traced["stats"].values():
        for name, value in (reply.get("engine") or {}).items():
            if isinstance(value, int):
                engine[name] += value
        hits, misses = reply["cache"]["hits"], reply["cache"]["misses"]

    attribution = ivm_attribution(specs, ctx.seed)
    latency = wl_serve.latency_metrics(plain_records)
    plain_rate = len(plain["done"]) / plain["wall_s"]
    traced_rate = len(traced["done"]) / traced["wall_s"]
    extra = {
        "serve.transport_s": transport,
        "serve.program_cache_hit_ratio": _ratio(hits, hits + misses),
        "serve.update_p50_ms": latency.get("update_p50_ms", 0.0),
        "serve.update_p99_ms": latency.get("update_p99_ms", 0.0),
        "serve.query_p50_ms": latency.get("query_p50_ms", 0.0),
        "serve.query_p95_ms": latency.get("query_p95_ms", 0.0),
        "trace.overhead_ratio": _ratio(traced_rate, plain_rate),
        "attribution.ivm_vs_interpreted_x": geomean(
            a["scratch_interpreted_ms"] / a["round_ms"] for a in attribution),
        "attribution.ivm_vs_columnar_x": geomean(
            a["scratch_columnar_ms"] / a["round_ms"] for a in attribution),
    }
    records = plain_records + traced_records
    failed = (sum(not r["ok"] for r in records)
              + sum(not a["ok"] for a in attribution)
              + (plain["exit_code"] != 0) + (traced["exit_code"] != 0))
    # client-side op spans, on the clock the server's spans use
    client = [{"name": f"client {req['op']}", "cat": "client", "ph": "X",
               "ts": sent * 1e6, "dur": latency_s * 1e6, "pid": "client",
               "tid": req["id"] // 10_000_000, "args": {"op": req["id"]}}
              for req, _line, latency_s, sent in traced["done"]]
    raw = {
        "untraced_ops_per_s": plain_rate,
        "traced_ops_per_s": traced_rate,
        "session_engines": engines,
        "ivm_rounds": attribution,
        "latency": latency,
        "engine": dict(engine),
    }
    return finish(ctx, dumps, engine, extra, len(records) + len(attribution),
                  failed, raw, client)
