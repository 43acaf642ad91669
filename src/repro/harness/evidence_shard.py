"""Sharded-evaluation evidence — `repro.core.shard` against the oracle.

Each job runs the same fixpoint twice: hash-partitioned across worker
processes per the static shard plan (:mod:`repro.analysis.shard`), and
single-process.  The results must be identical, the :class:`ShardGuard`
must observe zero boundary violations, and the measured exchange
traffic must stay within the plan's certified bound.  The job's
certificate is an ``ivm_state`` claim over the *sharded* result, so
``--check-certificates`` re-derives the fixpoint with the naive replay
evaluator (which shares no code with the partitioned executor) and
demands exact equality.
"""

from __future__ import annotations

import time
from typing import Any

from repro.harness.evidence_common import finish


def _tenant_edges(
    tenants: int, nodes: int
) -> list[tuple[str, tuple[Any, ...]]]:
    """``tenants`` disjoint chains, tagged with their tenant id."""
    return [
        ("E", (t, i, i + 1))
        for t in range(tenants)
        for i in range(nodes - 1)
    ]


def _grid_edges(side: int) -> list[tuple[str, tuple[Any, ...]]]:
    edges: list[tuple[str, tuple[Any, ...]]] = []
    for i in range(side):
        for j in range(side):
            if i + 1 < side:
                edges.append(("E", ((i, j), (i + 1, j))))
            if j + 1 < side:
                edges.append(("E", ((i, j), (i, j + 1))))
    return edges


def _tenant_program() -> Any:
    from repro.core import parse_program

    return parse_program(
        """
        Reach(g,x,y) <- E(g,x,y).
        Reach(g,x,y) <- E(g,x,z), Reach(g,z,y).
        """
    )


def _reach_program() -> Any:
    from repro.core import parse_program

    return parse_program(
        """
        Reach(x,y) <- E(x,y).
        Reach(x,y) <- E(x,z), Reach(z,y).
        """
    )


def _run_both(
    program: Any, base: Any, shards: int
) -> dict[str, Any]:
    """Run sharded and single-process fixpoints; time and compare.

    The sharded run is audited by the run's shard guard when the
    harness installed one (``--audit shard``); otherwise the job adds
    its own to the run so the conformance checks below always have a
    tally to look at.
    """
    from repro.core.context import current, installed
    from repro.core.evaluation import fixpoint
    from repro.core.stats import EngineStats

    run = current().with_audit("shard")
    guard = run.audits["shard"]
    stats = EngineStats()
    with installed(run):
        start = time.perf_counter()
        sharded = fixpoint(program, base, stats=stats, shards=shards)
        sharded_s = time.perf_counter() - start
    start = time.perf_counter()
    single = fixpoint(program, base, shards=0)
    single_s = time.perf_counter() - start
    # the per-run collector shadowed any ambient run-level collector
    # (e.g. the evidence worker's); fold the counters back so the
    # manifest's engine totals see the shard traffic too
    if run.stats is not None:
        run.stats.merge(stats)
    return {
        "sharded": sharded,
        "single": single,
        "stats": stats,
        "guard": guard.summary(),
        "sharded_seconds": round(sharded_s, 6),
        "single_seconds": round(single_s, 6),
    }


def shard_tenant_reachability(
    tenants: int = 12, nodes: int = 24, shards: int = 2
) -> dict[str, Any]:
    """Communication-free sharding of multi-tenant reachability.

    Every rule pivots on the tenant column, so the static plan proves
    the recursive stratum communication-free on ``E[0]``/``Reach[0]``:
    workers must reach the fixpoint without exchanging a single tuple,
    and every fact a worker derives must hash to that worker."""
    from repro.analysis.shard import COMMUNICATION_FREE, shard_report
    from repro.certify import certificate, claim_ivm_state
    from repro.core.instance import Instance

    program = _tenant_program()
    edges = _tenant_edges(tenants, nodes)
    base = Instance.from_tuples({"E": [args for _, args in edges]})
    plan = shard_report(program, instance=base, workers=shards)
    run = _run_both(program, base, shards)
    stats, guard = run["stats"], run["guard"]

    checks = [
        ("sharded-equals-single-process",
         run["sharded"] == run["single"]),
        ("stratum-classified-communication-free",
         plan.classification().get("Reach") == COMMUNICATION_FREE),
        ("workers-spawned", stats.shard_workers == shards),
        ("no-rows-exchanged", stats.shard_exchanged_rows == 0),
        ("guard-audited-stratum", guard["strata"] >= 1),
        ("no-boundary-violations", not guard["violations"]),
    ]
    claim = claim_ivm_state(program, base, run["sharded"])
    return finish(
        "shard-equivalent", checks,
        f"{tenants} tenant chains of {nodes} nodes across {shards} "
        f"workers: identical fixpoint with 0 exchanged rows, "
        f"{guard['facts']} facts audited on the right shard",
        {"tenants": tenants, "nodes": nodes, "shards": shards,
         "base_facts": len(base), "final_facts": len(run["sharded"]),
         "sharded_seconds": run["sharded_seconds"],
         "single_seconds": run["single_seconds"],
         "guard": guard},
        certificate=certificate(
            [claim],
            meta={"subsystem": "shard", "workload": "tenant-chains",
                  "shards": shards},
        ),
    )


def shard_grid_exchange(side: int = 12, shards: int = 2) -> dict[str, Any]:
    """Exchange-required sharding stays within the certified bound.

    Grid reachability has no common pivot (``Reach(x,y) <- E(x,z),
    Reach(z,y)`` joins on a column that never reaches the head), so the
    plan demands delta exchange between semi-naive rounds.  Every
    derived fact crosses the wire at most once per peer, so the total
    exchanged-row count must stay within the plan's per-round bound
    ``|Reach| * (shards - 1)`` computed from the instance's measured
    parameters."""
    from repro.analysis.shard import EXCHANGE_REQUIRED, shard_report
    from repro.certify import certificate, claim_ivm_state
    from repro.core.instance import Instance

    program = _reach_program()
    edges = _grid_edges(side)
    base = Instance.from_tuples({"E": [args for _, args in edges]})
    plan = shard_report(program, instance=base, workers=shards)
    stratum = plan.plan_of("Reach")
    assert stratum is not None
    run = _run_both(program, base, shards)
    stats = run["stats"]

    checks = [
        ("sharded-equals-single-process",
         run["sharded"] == run["single"]),
        ("stratum-classified-exchange-required",
         stratum.classification == EXCHANGE_REQUIRED),
        ("workers-spawned", stats.shard_workers == shards),
        ("rows-were-exchanged", stats.shard_exchanged_rows > 0),
        ("exchange-within-certified-bound",
         stats.shard_exchanged_rows <= stratum.exchange_bound),
    ]
    claim = claim_ivm_state(program, base, run["sharded"])
    return finish(
        "shard-equivalent", checks,
        f"{side}x{side} grid reachability across {shards} workers: "
        f"identical fixpoint, {stats.shard_exchanged_rows} rows "
        f"exchanged <= certified bound {stratum.exchange_bound}",
        {"side": side, "shards": shards, "base_facts": len(base),
         "final_facts": len(run["sharded"]),
         "exchanged_rows": stats.shard_exchanged_rows,
         "exchange_bound": stratum.exchange_bound,
         "local_rounds": stats.shard_local_rounds,
         "sharded_seconds": run["sharded_seconds"],
         "single_seconds": run["single_seconds"]},
        certificate=certificate(
            [claim],
            meta={"subsystem": "shard", "workload": "grid-exchange",
                  "shards": shards},
        ),
    )
