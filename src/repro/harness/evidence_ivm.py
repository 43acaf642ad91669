"""Incremental-maintenance evidence — `repro.ivm` against the oracle.

Each job drives a :class:`repro.ivm.MaterializedView` through a
deterministic schedule of insert/retract rounds on a reachability
workload, checks after *every* round that the maintained state equals a
from-scratch fixpoint, and times both paths.  The job's certificate is
the view's final ``ivm_state`` claim, so ``--check-certificates``
re-derives the fixpoint with the naive replay evaluator; the measured
maintenance-vs-recompute speedup ships in the ``ivm`` block (recorded,
not asserted — wall-clock assertions belong to ``benchmarks/``).
"""

from __future__ import annotations

import time
from typing import Any, Optional

from repro.harness.evidence_common import finish


def _chain_edges(nodes: int) -> list[tuple[str, tuple[Any, ...]]]:
    return [("E", (i, i + 1)) for i in range(nodes - 1)]


def _grid_edges(side: int) -> list[tuple[str, tuple[Any, ...]]]:
    edges: list[tuple[str, tuple[Any, ...]]] = []
    for i in range(side):
        for j in range(side):
            if i + 1 < side:
                edges.append(("E", ((i, j), (i + 1, j))))
            if j + 1 < side:
                edges.append(("E", ((i, j), (i, j + 1))))
    return edges


def _reach_program() -> Any:
    from repro.core import parse_program

    return parse_program(
        """
        Reach(x,y) <- E(x,y).
        Reach(x,y) <- E(x,z), Reach(z,y).
        """
    )


def _maintenance_run(
    edges: list[tuple[str, tuple[Any, ...]]],
    rounds: int,
    backend: Optional[str],
) -> dict[str, Any]:
    """Alternate insert/retract rounds over a sliding window of edges;
    compare against the recompute oracle after every round."""
    from repro.core.instance import Instance
    from repro.ivm import MaterializedView

    base = Instance.from_tuples({"E": [args for _, args in edges[:-rounds]]})
    view = MaterializedView(_reach_program(), base, backend=backend)

    checks: list[tuple[str, bool]] = []
    maintain_s = 0.0
    recompute_s = 0.0
    inserted = deleted = rederived = 0
    tail = edges[-rounds:]
    for index in range(rounds):
        fact = tail[index]
        if index % 3 == 2:  # every third round retracts the previous edge
            start = time.perf_counter()
            report = view.retract([tail[index - 1]])
            maintain_s += time.perf_counter() - start
        else:
            start = time.perf_counter()
            report = view.insert([fact])
            maintain_s += time.perf_counter() - start
        inserted += report.inserted
        deleted += report.deleted
        rederived += report.rederived
        start = time.perf_counter()
        oracle = view.recompute()
        recompute_s += time.perf_counter() - start
        checks.append((f"round-{index + 1}-matches-oracle",
                       view.state == oracle))
    return {
        "view": view,
        "checks": checks,
        "ivm": {
            "rounds": view.rounds,
            "inserted": inserted,
            "deleted": deleted,
            "rederived": rederived,
            "maintain_seconds": round(maintain_s, 6),
            "recompute_seconds": round(recompute_s, 6),
            "speedup": round(recompute_s / maintain_s, 2)
            if maintain_s > 0 else None,
        },
    }


def _mixed_strategy_program() -> Any:
    """Reach is genuinely recursive (DRed); Direct's recursion is
    vacuous (its recursive rule is subsumed by the base rule), so the
    maintainability analysis proves it counting-safe and the view
    maintains it with counting instead of DRed."""
    from repro.core import parse_program

    return parse_program(
        """
        Reach(x,y) <- E(x,y).
        Reach(x,y) <- E(x,z), Reach(z,y).
        Direct(x,y) <- E(x,y).
        Direct(x,y) <- E(x,y), Direct(x,y).
        """
    )


def ivm_insert_monotone_chain(
    nodes: int = 40, rounds: int = 10, backend: Optional[str] = None
) -> dict[str, Any]:
    """Insert-only maintenance on a recursive chain never recomputes.

    Every round only ever adds base facts, so the stratum recompute a
    retraction triggers has nothing to do — the view must detect that
    per round and propagate the insertions semi-naively, visible as
    ``maintain_skipped_rederive`` in the engine stats with zero
    deleted/rederived facts.  The companion ``Direct`` stratum is
    recursive but provably counting-safe, so the static plan maintains
    it by counting outright (``maintain_counting_strata``)."""
    from repro.core.instance import Instance
    from repro.core.stats import EngineStats
    from repro.ivm import MaterializedView

    edges = _chain_edges(nodes)
    base = Instance.from_tuples({"E": [args for _, args in edges[:-rounds]]})
    view = MaterializedView(_mixed_strategy_program(), base, backend=backend)
    stats = EngineStats()

    checks: list[tuple[str, bool]] = []
    inserted = deleted = rederived = 0
    for index, fact in enumerate(edges[-rounds:]):
        report = view.apply(inserts=[fact], stats=stats)
        inserted += report.inserted
        deleted += report.deleted
        rederived += report.rederived
        checks.append((f"round-{index + 1}-matches-oracle",
                       view.state == view.recompute()))
    # the per-round collector shadowed any ambient run-level collector
    # (e.g. the evidence worker's); fold the counters back so the
    # manifest's engine totals see the strategy switch too
    from repro.core import stats as _stats

    ambient = _stats.active()
    if ambient is not None:
        ambient.merge(stats)
    strategies = view.maintenance_strategies()
    checks.append(("no-recompute-work", deleted == 0 and rederived == 0))
    checks.append(("rederivation-skipped",
                   stats.maintain_skipped_rederive >= rounds))
    checks.append(("counting-strategy-engaged",
                   strategies.get("Direct") == "counting"
                   and stats.maintain_counting_strata >= 1))
    checks.append(("dred-strategy-planned",
                   strategies.get("Reach") == "dred"))
    ivm = {
        "rounds": view.rounds,
        "inserted": inserted,
        "deleted": deleted,
        "rederived": rederived,
        "strategies": strategies,
        "maintain_counting_strata": stats.maintain_counting_strata,
        "maintain_dred_strata": stats.maintain_dred_strata,
        "maintain_skipped_rederive": stats.maintain_skipped_rederive,
    }
    return finish(
        "maintenance-equivalent", checks,
        f"{rounds} insert-only rounds on a {nodes}-node chain skipped "
        f"recompute {stats.maintain_skipped_rederive} times with 0 "
        f"deletions; counting maintained Direct "
        f"({stats.maintain_counting_strata} stratum rounds)",
        {"nodes": nodes, "rounds": rounds,
         "final_facts": len(view.state), "strategies": strategies},
        certificate=view.certificate(meta={"workload": "insert-chain"}),
        ivm=ivm,
    )


def ivm_retraction_grid_bounds(
    side: int = 4, rounds: int = 8, backend: Optional[str] = None
) -> dict[str, Any]:
    """Retraction amplification stays within the predicted delta bound.

    Deleting one grid edge can cascade the removal of many reachability
    facts — the measured |Δ| amplifies the update size.  Before every
    round the job asks the static analysis for a delta bound against
    the current base (exactly the ``repro serve`` admission check) and
    asserts the measured net delta never exceeds it; the
    predicted-vs-measured table ships in the metrics."""
    from repro.core.instance import Instance
    from repro.ivm import MaterializedView

    edges = _grid_edges(side)
    base = Instance.from_tuples({"E": [args for _, args in edges]})
    view = MaterializedView(_reach_program(), base, backend=backend)

    checks: list[tuple[str, bool]] = []
    table: list[dict[str, Any]] = []
    inserted = deleted = rederived = 0
    amplification = 0
    for index in range(rounds):
        fact = edges[(index // 2) % len(edges)]
        kind = "retract" if index % 2 == 0 else "insert"
        predicted = view.predict_delta(1)
        if kind == "retract":
            report = view.retract([fact])
        else:
            report = view.insert([fact])
        inserted += report.inserted
        deleted += report.deleted
        rederived += report.rederived
        measured = sum(len(rows) for rows in report.plus.values())
        measured += sum(len(rows) for rows in report.minus.values())
        amplification = max(amplification, measured)
        table.append({
            "round": index + 1, "kind": kind,
            "predicted": predicted, "measured": measured,
        })
        checks.append((f"round-{index + 1}-matches-oracle",
                       view.state == view.recompute()))
        checks.append((
            f"round-{index + 1}-within-delta-bound",
            predicted is not None and measured <= predicted,
        ))
    return finish(
        "maintenance-equivalent", checks,
        f"{rounds} retract/re-insert rounds on a {side}x{side} grid: "
        f"every measured delta within its static bound (worst "
        f"amplification {amplification} facts from a 1-fact update)",
        {"side": side, "rounds": rounds, "final_facts": len(view.state),
         "delta_bounds": table},
        certificate=view.certificate(meta={"workload": "retraction-grid"}),
        ivm={
            "rounds": view.rounds,
            "inserted": inserted,
            "deleted": deleted,
            "rederived": rederived,
            "max_measured_delta": amplification,
        },
    )


def ivm_chain_maintenance(
    nodes: int = 48, rounds: int = 12, backend: Optional[str] = None
) -> dict[str, Any]:
    """Maintain transitive closure of a growing/shrinking chain."""
    run = _maintenance_run(_chain_edges(nodes), rounds, backend)
    view, ivm = run["view"], run["ivm"]
    return finish(
        "maintenance-equivalent", run["checks"],
        f"{rounds} maintenance rounds on a {nodes}-node chain all match "
        f"the from-scratch fixpoint ({ivm['inserted']} facts inserted, "
        f"{ivm['deleted']} deleted, {len(view.state)} final)",
        {"nodes": nodes, "rounds": rounds, "final_facts": len(view.state)},
        certificate=view.certificate(meta={"workload": "chain"}),
        ivm=ivm,
    )


def ivm_grid_maintenance(
    side: int = 5, rounds: int = 10, backend: Optional[str] = None
) -> dict[str, Any]:
    """Maintain reachability over a grid losing and regaining edges."""
    run = _maintenance_run(_grid_edges(side), rounds, backend)
    view, ivm = run["view"], run["ivm"]
    return finish(
        "maintenance-equivalent", run["checks"],
        f"{rounds} maintenance rounds on a {side}x{side} grid all match "
        f"the from-scratch fixpoint ({ivm['rederived']} facts "
        f"rederived, {len(view.state)} final)",
        {"side": side, "rounds": rounds, "final_facts": len(view.state)},
        certificate=view.certificate(meta={"workload": "grid"}),
        ivm=ivm,
    )
