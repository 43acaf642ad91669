"""The sharded parallel fixpoint: equivalence, gating, stats, guard."""

from __future__ import annotations

from repro.core import parse_program
from repro.core.context import RunConfig, current, running
from repro.core.evaluation import fixpoint
from repro.core.instance import Instance
from repro.core.shard import SHARD_MIN_FACTS, sharded_fixpoint
from repro.core.stats import EngineStats


def _tenant_program():
    return parse_program(
        """
        Reach(g,x,y) <- E(g,x,y).
        Reach(g,x,y) <- E(g,x,z), Reach(g,z,y).
        """
    )


def _tenant_instance(tenants: int, nodes: int) -> Instance:
    return Instance.from_tuples({
        "E": [
            (t, i, i + 1)
            for t in range(tenants)
            for i in range(nodes - 1)
        ]
    })


def _tc_program():
    return parse_program(
        """
        Reach(x,y) <- E(x,y).
        Reach(x,y) <- E(x,z), Reach(z,y).
        """
    )


def _chain_instance(nodes: int) -> Instance:
    return Instance.from_tuples({
        "E": [(i, i + 1) for i in range(nodes - 1)]
    })


def test_communication_free_matches_single_process():
    program = _tenant_program()
    base = _tenant_instance(16, 20)
    assert len(base) >= SHARD_MIN_FACTS
    stats = EngineStats()
    sharded = sharded_fixpoint(program, base, 2, stats=stats)
    single = fixpoint(program, base)
    assert sharded == single
    assert stats.shard_workers == 2
    assert stats.shard_exchanged_rows == 0
    assert stats.shard_local_rounds > 0


def test_exchange_required_matches_single_process():
    program = _tc_program()
    base = _chain_instance(280)
    assert len(base) >= SHARD_MIN_FACTS
    stats = EngineStats()
    sharded = sharded_fixpoint(program, base, 2, stats=stats)
    single = fixpoint(program, base)
    assert sharded == single
    assert stats.shard_exchanged_rows > 0


def test_small_instances_run_single_process():
    program = _tenant_program()
    base = _tenant_instance(3, 5)  # well under SHARD_MIN_FACTS
    stats = EngineStats()
    sharded = sharded_fixpoint(program, base, 4, stats=stats)
    assert stats.shard_workers == 0  # no pool was ever spawned
    assert sharded == fixpoint(program, base)


def test_one_shard_is_the_plain_fixpoint():
    program = _tc_program()
    base = _chain_instance(280)
    stats = EngineStats()
    result = sharded_fixpoint(program, base, 1, stats=stats)
    assert stats.shard_workers == 0
    assert result == fixpoint(program, base)


def test_fixpoint_routes_through_the_shards_argument():
    program = _tenant_program()
    base = _tenant_instance(16, 20)
    stats = EngineStats()
    sharded = fixpoint(program, base, stats=stats, shards=2)
    assert stats.shard_workers == 2
    assert sharded == fixpoint(program, base)


def test_default_shards_is_ambient_and_restorable():
    assert current().config.shards == 0
    with running(RunConfig(shards=2)):
        assert current().config.shards == 2
        program = _tenant_program()
        base = _tenant_instance(16, 20)
        stats = EngineStats()
        result = fixpoint(program, base, stats=stats)
        assert stats.shard_workers == 2
        assert result == fixpoint(program, base, shards=0)
    assert current().config.shards == 0


def test_guard_audits_the_sharded_run_clean():
    program = _tenant_program()
    base = _tenant_instance(16, 20)
    with running(RunConfig(audits={"shard"})) as run:
        sharded_fixpoint(program, base, 2)
    summary = run.audits["shard"].summary()
    assert summary["strata"] >= 1
    assert summary["facts"] > 0
    assert summary["violations"] == []


def test_sharded_strategies_and_backends_agree():
    """Both shard strategies — the tenant closure runs communication-free,
    the chain closure exchanges deltas between rounds — match the
    single-process fixpoint on both backends."""
    cases = [
        (_tenant_program(), _tenant_instance(16, 20), False),
        (_tc_program(), _chain_instance(280), True),
    ]
    for program, base, exchanges in cases:
        single = fixpoint(program, base)
        for backend in ("interpreted", "columnar"):
            stats = EngineStats()
            sharded = sharded_fixpoint(
                program, base, 2, backend=backend, stats=stats
            )
            assert sharded == single, backend
            assert (stats.shard_exchanged_rows > 0) == exchanges, backend


def test_mixed_classification_program_is_correct():
    # one comm-free stratum, one sequential (cartesian) stratum
    program = parse_program(
        """
        Reach(g,x,y) <- E(g,x,y).
        Reach(g,x,y) <- E(g,x,z), Reach(g,z,y).
        Pair(g,h) <- Tag(g), Tag(h).
        """
    )
    base = _tenant_instance(16, 20)
    for t in range(16):
        base.add_tuple("Tag", (t,))
    sharded = sharded_fixpoint(program, base, 2)
    assert sharded == fixpoint(program, base)


def test_worker_stats_are_merged_into_the_ambient_collector():
    from repro.core import stats as _stats

    program = _tenant_program()
    base = _tenant_instance(16, 20)
    with _stats.collecting() as collector:
        sharded_fixpoint(program, base, 2)
    assert collector.shard_workers == 2
    assert collector.facts_derived > 0
