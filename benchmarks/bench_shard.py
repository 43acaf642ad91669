"""SHARD — the partitioned parallel fixpoint vs the single process.

``pytest benchmarks/bench_shard.py --benchmark-only -s
--benchmark-json=BENCH_shard.json`` records, per benchmark, the wall
time of the single-process engine next to the sharded run and the
shard counters (workers, exchanged rows, local rounds) in
``extra_info.shard`` — the committed ``BENCH_shard.json`` is the
evidence that hash-partitioning a communication-free stratum buys real
wall time (each worker probes an index a fraction of the size) while
the exchange-required workload stays correct and within the plan's
certified traffic bound.
"""

from __future__ import annotations

import time

import pytest

from repro.analysis.shard import COMMUNICATION_FREE, shard_report
from repro.core.evaluation import fixpoint
from repro.core.instance import Instance
from repro.core.parser import parse_program
from repro.core.shard import sharded_fixpoint
from repro.core.stats import EngineStats

from benchmarks.conftest import report, run_evidence_job

TENANT_REACH = parse_program(
    """
    Reach(g,x,y) <- E(g,x,y).
    Reach(g,x,y) <- E(g,x,z), Reach(g,z,y).
    """
)

#: the flagship workload: disjoint per-tenant chains, every rule pivots
#: on the tenant column, so the plan proves Reach communication-free
_TENANTS, _NODES, _SHARDS = 32, 32, 4


def _tenant_instance(tenants: int, nodes: int) -> Instance:
    return Instance.from_tuples({
        "E": [
            (t, i, i + 1)
            for t in range(tenants)
            for i in range(nodes - 1)
        ]
    })


def _best_of(fn, rounds: int = 3):
    """Min-of-N wall time: robust against CI scheduler jitter."""
    walls = []
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        walls.append(time.perf_counter() - start)
    return min(walls), result


def test_tenant_reachability_sharded_wall_clock(benchmark):
    """Communication-free partitioning is a real wall-time win on the
    interpreted engine.

    One process computes all ``_TENANTS`` tenants against one big
    index; each shard worker computes a quarter of them against an
    index a quarter of the size, and the plan proves no tuple ever
    needs to cross a shard.  The assertion is deliberately loose
    (>1x) so CI jitter cannot flake it — the committed JSON carries
    the measured ratio.  Both sides name the interpreted engine: on
    columnar the single process is faster than the pool (ROADMAP
    item 5).
    """
    base = _tenant_instance(_TENANTS, _NODES)
    plan = shard_report(TENANT_REACH, instance=base, workers=_SHARDS)
    assert plan.classification()["Reach"] == COMMUNICATION_FREE

    single_wall, expected = _best_of(
        lambda: fixpoint(TENANT_REACH, base, backend="interpreted")
    )
    stats = EngineStats()
    sharded_wall, sharded = _best_of(
        lambda: sharded_fixpoint(
            TENANT_REACH, base, _SHARDS, stats=stats, backend="interpreted"
        )
    )
    assert sharded == expected
    assert stats.shard_exchanged_rows == 0
    speedup = single_wall / sharded_wall if sharded_wall else 0.0
    assert speedup > 1.0

    result = benchmark.pedantic(
        lambda: sharded_fixpoint(
            TENANT_REACH, base, _SHARDS, backend="interpreted"
        ),
        rounds=1, iterations=1,
    )
    assert result == expected
    benchmark.extra_info["shard"] = {
        "job": "tenant-reachability-wall",
        "tenants": _TENANTS, "nodes": _NODES, "shards": _SHARDS,
        "classification": "communication_free",
        "single_seconds": single_wall,
        "sharded_seconds": sharded_wall,
        "speedup": speedup,
        "exchanged_rows": 0,
    }
    report(
        "SHARD-tenant-wall",
        "(design) communication-free strata scale out with 0 exchange",
        f"single {single_wall * 1e3:.0f}ms vs {_SHARDS}-way sharded "
        f"{sharded_wall * 1e3:.0f}ms ({speedup:.2f}x, 0 rows exchanged)",
    )


def test_grid_exchange_traffic_vs_certified_bound(benchmark):
    """Exchange-required sharding: measured traffic vs the bound.

    Plain grid reachability has no pivot, so deltas cross the wire
    between semi-naive rounds; the plan's bound ``|Reach| * (shards-1)``
    must dominate the measured total because each derived fact is fresh
    (and therefore shipped) at most once per peer.
    """
    program = parse_program(
        """
        Reach(x,y) <- E(x,y).
        Reach(x,y) <- E(x,z), Reach(z,y).
        """
    )
    side = 12
    edges = []
    for i in range(side):
        for j in range(side):
            if i + 1 < side:
                edges.append(((i, j), (i + 1, j)))
            if j + 1 < side:
                edges.append(((i, j), (i, j + 1)))
    base = Instance.from_tuples({"E": edges})
    plan = shard_report(program, instance=base, workers=2)
    stratum = plan.plan_of("Reach")
    assert stratum is not None

    stats = EngineStats()
    expected = fixpoint(program, base)
    result = benchmark.pedantic(
        lambda: sharded_fixpoint(program, base, 2, stats=stats),
        rounds=1, iterations=1,
    )
    assert result == expected
    assert 0 < stats.shard_exchanged_rows <= stratum.exchange_bound
    benchmark.extra_info["shard"] = {
        "job": "grid-exchange-bound",
        "side": side, "shards": 2,
        "classification": "exchange_required",
        "exchanged_rows": stats.shard_exchanged_rows,
        "exchange_bound": stratum.exchange_bound,
        "local_rounds": stats.shard_local_rounds,
    }
    report(
        "SHARD-grid-bound",
        "measured exchange stays within the plan's certified bound",
        f"{stats.shard_exchanged_rows} rows exchanged <= bound "
        f"{stratum.exchange_bound} over {stats.shard_local_rounds} "
        f"local rounds",
    )


@pytest.mark.parametrize(
    "job_name", ["shard-tenant-reachability", "shard-grid-exchange"]
)
def test_shard_evidence_jobs(benchmark, job_name):
    """The registered evidence jobs, timed under the bench harness."""
    run_evidence_job(benchmark, job_name)
