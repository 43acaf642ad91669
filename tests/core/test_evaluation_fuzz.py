"""The differential fuzzer: every execution mode against the replayer.

Every input comes from one generator (:mod:`tests.generators`) and
every answer from one oracle, :mod:`repro.certify.replay`; the cells
and the audited run they share are in :mod:`tests.differential`.  The
suites that draw inputs for the cells keep the test names of the
suites they replaced:

* ``fixpoint`` × backend × optimize: this module (random rules and
  compiled RPQs), ``core/test_engine_equivalence.py`` (random rules,
  compiled RPQs), ``core/test_datalog.py`` (a fixed closure on random
  instances) and ``core/test_backend_equivalence.py`` (the
  hand-written edge cases);
* ``fixpoint`` × backend × optimize × shards ∈ {2, 3}:
  ``analysis/test_shard_soundness.py``;
* the static bounds, whole-program and goal-scoped:
  ``analysis/test_cost_soundness.py``;
* ``DatalogQuery.evaluate`` × every goal × backend × optimize:
  ``core/test_backend_equivalence.py``,
  ``analysis/test_optimize_property.py``;
* each optimizer pass alone and the whole pipeline:
  ``analysis/test_optimize_property.py``;
* ``MaterializedView`` schedules × backend × optimize:
  ``ivm/test_ivm_equivalence.py`` (the closures, edges between few
  nodes), ``analysis/test_maintain_soundness.py`` (random rules and
  compiled RPQs);
* the join orderings of the homomorphism search:
  ``core/test_engine_equivalence.py``;
* Prop. 1, below.

A parameter named ``seed`` is the Hypothesis seed of that test's slice
of the cell, so a failing case reruns alone and identically.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.certify import replay
from repro.certify.serialize import relations_from_instance as relations
from repro.core.approximation import approximations
from repro.core.datalog import DatalogProgram, DatalogQuery

from tests.differential import check_fixpoint, run_slice
from tests.generators import datalog_programs, instances, programs


@pytest.mark.parametrize("seed", range(40))
def test_naive_equals_seminaive_fuzz(seed):
    """The replayer's naive fixpoint equals every engine's semi-naive
    one, with the optimizer off and on."""

    @given(program=programs(), instance=instances())
    def cell(program, instance):
        check_fixpoint(program, instance)

    run_slice(seed, 5, cell)


def _naive_depth(program: DatalogProgram, data: dict) -> int:
    """Naive rounds until nothing new is derived."""
    state = {pred: set(rows) for pred, rows in data.items()}
    depth = 0
    while True:
        new = {
            (head.pred, head.args)
            for rule in program.rules
            for binding in replay.match(rule.body, state)
            for head in [rule.head.substitute(binding)]
            if head.args not in state.get(head.pred, ())
        }
        if not new:
            return depth
        for pred, row in new:
            state.setdefault(pred, set()).add(row)
        depth += 1


@pytest.mark.parametrize("seed", range(20))
def test_prop1_fuzz(seed):
    """Evaluation is the union of the approximations' answers: always
    sound, and complete when every derivation is shallow and the
    enumeration was not cut off."""

    @given(
        program=datalog_programs(linear=True), instance=instances(odd=False),
        data=st.data(),
    )
    def cell(program, instance, data):
        goal = data.draw(st.sampled_from(sorted(program.idb_predicates())))
        query = DatalogQuery(program, goal)
        expected = replay.eval_query(query, relations(instance))
        got: set = set()
        count = 0
        for cq in approximations(query, 4, max_count=200):
            got |= cq.evaluate(instance)
            count += 1
        assert got <= expected
        if count < 200 and _naive_depth(program, relations(instance)) <= 3:
            assert got == expected

    run_slice(seed, 5, cell)
