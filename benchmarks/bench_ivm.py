"""IVM — incremental maintenance vs from-scratch recomputation.

``pytest benchmarks/bench_ivm.py --benchmark-only -s
--benchmark-json=BENCH_ivm.json`` drives a
:class:`repro.ivm.MaterializedView` through multi-round update
workloads and times each maintenance round next to a from-scratch
``fixpoint`` of the same base.  The committed ``BENCH_ivm.json``
records, per workload, the two wall totals and their ratio in
``extra_info.ivm`` — the evidence that maintenance (counting,
semi-naive insertion, and a columnar recompute of a recursive stratum
on a retracting round) beats re-running the interpreted fixpoint: on
the ≥10-round chain workload the speedup must be at least 3x (in
practice far higher, and growing with instance size).

Every round is also verified against the recompute oracle inside the
measured region's setup, so a fast-but-wrong maintenance pass cannot
post a number.
"""

from __future__ import annotations

import time

from repro.core.evaluation import fixpoint
from repro.core.instance import Instance
from repro.core.parser import parse_program
from repro.core.stats import EngineStats
from repro.ivm import MaterializedView

from benchmarks.conftest import report

REACH = parse_program(
    """
    Reach(x,y) <- E(x,y).
    Reach(x,y) <- E(x,z), Reach(z,y).
    """
)


def _chain_workload(nodes: int, rounds: int):
    """Start one edge short of a chain; alternate extend/cut/re-extend."""
    edges = [(i, i + 1) for i in range(nodes - 1)]
    base = edges[:-1]
    last = edges[-1]
    updates = []
    for index in range(rounds):
        if index % 3 == 1:
            updates.append(("-", ("E", last)))
        else:
            updates.append(("+", ("E", last)))
    return base, updates


def _grid_workload(side: int, rounds: int):
    """A grid losing and regaining bridge edges (retraction-heavy)."""
    edges = []
    for i in range(side):
        for j in range(side):
            if i + 1 < side:
                edges.append(((i, j), (i + 1, j)))
            if j + 1 < side:
                edges.append(((i, j), (i, j + 1)))
    bridges = edges[:: max(1, len(edges) // rounds)][:rounds]
    updates = []
    for index, bridge in enumerate(bridges):
        updates.append(("-" if index % 2 == 0 else "+", ("E", bridge)))
    return edges, updates


def _run(base_edges, updates):
    """Replay ``updates`` incrementally and via recompute; verify each
    round; return (view, maintain_seconds, recompute_seconds, stats)."""
    base = Instance.from_tuples({"E": base_edges})
    view = MaterializedView(REACH, base)
    maintain = 0.0
    recompute = 0.0
    stats = EngineStats()
    for op, fact in updates:
        start = time.perf_counter()
        if op == "+":
            view.apply(inserts=[fact], stats=stats)
        else:
            view.apply(retracts=[fact], stats=stats)
        maintain += time.perf_counter() - start
        start = time.perf_counter()
        oracle = fixpoint(REACH, view.base, optimize=False)
        recompute += time.perf_counter() - start
        assert view.state == oracle, f"maintenance diverged at {op}{fact}"
    return view, maintain, recompute, stats


def _record(
    benchmark, label, claim, view, maintain, recompute, rounds, stats
):
    speedup = recompute / maintain if maintain > 0 else float("inf")
    report(
        label, claim,
        f"{rounds} rounds: maintenance {maintain * 1e3:.1f}ms vs "
        f"recompute {recompute * 1e3:.1f}ms — {speedup:.1f}x "
        f"({len(view.state)} facts maintained)",
    )
    benchmark.extra_info["ivm"] = {
        "workload": label,
        "rounds": rounds,
        "maintain_seconds": round(maintain, 6),
        "recompute_seconds": round(recompute, 6),
        "updates_per_second": round(rounds / maintain, 1)
        if maintain > 0 else None,
        "speedup": round(speedup, 2),
        "final_facts": len(view.state),
        "strategies": view.maintenance_strategies(),
        "maintain_counting_strata": stats.maintain_counting_strata,
        "maintain_dred_strata": stats.maintain_dred_strata,
        "maintain_skipped_rederive": stats.maintain_skipped_rederive,
    }
    return speedup


def test_chain_maintenance_vs_recompute(benchmark):
    """The acceptance workload: ≥10 update rounds on chain TC."""
    nodes, rounds = 90, 12
    base_edges, updates = _chain_workload(nodes, rounds)

    view, maintain, recompute, stats = _run(base_edges, updates)
    speedup = _record(
        benchmark, f"ivm-chain-{nodes}x{rounds}",
        "maintenance cost tracks the delta, not the materialization "
        "(single-edge updates against an O(n^2)-fact closure)",
        view, maintain, recompute, rounds, stats,
    )
    assert speedup >= 3.0, (
        f"chain maintenance only {speedup:.1f}x faster than recompute"
    )

    def maintained_round():
        view.retract([("E", (nodes - 2, nodes - 1))])
        view.insert([("E", (nodes - 2, nodes - 1))])

    benchmark.pedantic(maintained_round, rounds=5, iterations=1)


def test_grid_dred_retractions(benchmark):
    """Retraction-heavy grid reachability: every cut recomputes the
    reachability stratum on columnar, yet must still beat interpreted
    recomputation of the whole program."""
    side, rounds = 6, 10
    base_edges, updates = _grid_workload(side, rounds)

    view, maintain, recompute, stats = _run(base_edges, updates)
    speedup = _record(
        benchmark, f"ivm-grid-{side}x{side}x{rounds}",
        "a cut grid edge costs one columnar recompute of the "
        "reachability stratum, below an interpreted refixpoint",
        view, maintain, recompute, rounds, stats,
    )
    assert speedup > 1.0, (
        f"grid maintenance slower than recompute ({speedup:.1f}x)"
    )

    bridge = base_edges[0]

    def maintained_round():
        view.retract([("E", bridge)])
        view.insert([("E", bridge)])

    benchmark.pedantic(maintained_round, rounds=5, iterations=1)
