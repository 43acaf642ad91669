"""The join planner and the fixpoint engine against the replayer.

Cells of the differential fuzzer (:mod:`tests.differential`): random
programs must reach the replayer's naive fixpoint on every engine, and
the ``dynamic`` / ``static`` / ``connected`` homomorphism orderings must
each enumerate exactly the replayer's matches, whatever the planner or
indexing does.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.dependency import prune_unreachable
from repro.certify import replay
from repro.certify.serialize import relations_from_instance as relations
from repro.core.datalog import DatalogQuery
from repro.core.evaluation import fixpoint
from repro.core.parser import parse_instance, parse_program
from repro.core.stats import EngineStats

from tests.differential import check_fixpoint, check_orderings, run_slice
from tests.generators import (
    atoms,
    datalog_programs,
    instances,
    programs,
    rpq_programs,
)


@pytest.mark.parametrize("seed", range(25))
def test_naive_equals_seminaive_on_random_programs(seed):
    @given(program=datalog_programs(), instance=instances())
    def cell(program, instance):
        check_fixpoint(program, instance)

    run_slice(seed, 2, cell)


@pytest.mark.parametrize("seed", range(25))
def test_orderings_enumerate_identical_homomorphism_sets(seed):
    @given(body=st.lists(atoms(), min_size=1, max_size=4), instance=instances())
    def cell(body, instance):
        check_orderings(body, instance)

    run_slice(seed, 4, cell)


def test_seminaive_with_stats_matches_and_counts():
    """A chain closure on the interpreted engine: the result is exact,
    and the recursive rule's one delta join is planned once and
    replayed on every later round."""
    program = parse_program("T(x,y) <- R(x,y). T(x,y) <- R(x,z), T(z,y).")
    n = 12
    instance = parse_instance(" ".join(f"R({i},{i + 1})." for i in range(n)))
    stats = EngineStats()
    result = fixpoint(program, instance, backend="interpreted", stats=stats)
    assert relations(result) == replay.naive_fixpoint(
        program.rules, relations(instance)
    )
    assert stats.fixpoint_rounds >= 2
    assert stats.facts_derived == n * (n + 1) // 2
    assert stats.hom_calls > 0 and stats.rows_scanned > 0
    assert stats.plan_cache_misses == 1
    assert stats.plan_cache_hits >= stats.fixpoint_rounds - 2


@given(program=rpq_programs(), instance=instances())
@settings(max_examples=30, deadline=None)
def test_stratified_strategy_is_equivalent(program, instance):
    """Compiled RPQs stack several recursive SCCs, each evaluated in its
    own stratum."""
    check_fixpoint(program, instance)


@given(program=programs(), instance=instances(odd=False))
@settings(max_examples=30, deadline=None)
def test_pruned_goal_directed_evaluation_is_equivalent(program, instance):
    """``prune_unreachable`` keeps every goal relation of the replayer's
    fixpoint, and so does the goal-directed ``evaluate``."""
    for goal in sorted(program.idb_predicates()):
        query = DatalogQuery(program, goal)
        expected = replay.eval_query(query, relations(instance))
        pruned = prune_unreachable(query)
        assert fixpoint(pruned.program, instance).tuples(goal) == expected
        assert query.evaluate(instance) == expected
