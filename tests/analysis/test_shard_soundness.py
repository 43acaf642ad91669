"""Property safety net for the sharded parallel fixpoint.

``--shards N`` is only worth trusting if the partitioned executor is
*equivalent*: no program × instance × strategy × backend combination —
optimizer on or off — may ever produce a different fixpoint than the
single-process engine, and a stratum the analysis proves
communication-free must never place a fact on a shard it does not hash
to.  Hypothesis hunts for a counterexample over the same adversarial
pool the cost-soundness suite uses (constants in heads, repeated
variables, ``None`` as data, empty relations).

The generated instances are far below the production size gate, so the
suite lowers ``repro.core.shard.SHARD_MIN_FACTS`` for each run to force
the partitioned path.
"""

from __future__ import annotations

import contextlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import shard as shard_module
from repro.core.context import RunConfig, running
from repro.core.evaluation import fixpoint
from repro.core.shard import sharded_fixpoint

from tests.analysis.test_cost_soundness import (
    edb_instances,
    programs_with_constants,
)

_STRATEGIES = ("naive", "seminaive", "stratified")
_BACKENDS = ("interpreted", "columnar")


@contextlib.contextmanager
def _forced_sharding():
    """Drop the size gate so tiny generated instances still shard."""
    previous = shard_module.SHARD_MIN_FACTS
    shard_module.SHARD_MIN_FACTS = 0
    try:
        yield
    finally:
        shard_module.SHARD_MIN_FACTS = previous


def _context(program, base, config):
    return (
        f"\nconfig: {config!r}\nprogram:\n{program!r}\n"
        f"base:\n{base.pretty()}"
    )


@given(
    program=programs_with_constants(),
    base=edb_instances(),
    shards=st.integers(min_value=2, max_value=3),
    strategy=st.sampled_from(_STRATEGIES),
    backend=st.sampled_from(_BACKENDS),
    optimize=st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_sharded_fixpoint_equals_single_process(
    program, base, shards, strategy, backend, optimize
):
    config = {
        "shards": shards, "strategy": strategy,
        "backend": backend, "optimize": optimize,
    }
    with running(RunConfig(optimize=optimize)):
        single = fixpoint(
            program, base.copy(), strategy=strategy, backend=backend
        )
        with _forced_sharding():
            sharded = sharded_fixpoint(
                program, base.copy(), shards,
                strategy=strategy, backend=backend,
            )
    assert sharded == single, (
        "sharded fixpoint diverged from single-process"
        + _context(program, base, config)
    )


@given(
    program=programs_with_constants(),
    base=edb_instances(),
    shards=st.integers(min_value=2, max_value=3),
)
@settings(max_examples=15, deadline=None)
def test_communication_free_strata_never_cross_shards(
    program, base, shards
):
    """The deployed form of the conformance property: the ambient
    guard audits every communication-free stratum of the sharded run
    and must flag nothing."""
    with _forced_sharding(), running(RunConfig(audits={"shard"})) as run:
        sharded = sharded_fixpoint(program, base.copy(), shards)
    single = fixpoint(program, base.copy())
    assert sharded == single, (
        "sharded fixpoint diverged from single-process"
        + _context(program, base, {"shards": shards})
    )
    summary = run.summaries()["shard"]
    assert summary["violations"] == [], (
        f"UNSOUND communication-free verdict:\n{summary['violations']}"
        + _context(program, base, {"shards": shards})
    )
