"""Every optimizer pass preserves the goal relation.

Cells of the differential fuzzer (:mod:`tests.differential`): for every
goal of a random program, the program each pass alone — and the whole
pipeline — produces must reach the replayer's goal relation, and so
must the goal-directed :meth:`DatalogQuery.evaluate` with the optimizer
on.  This is the dynamic counterpart of the ``program_equivalence``
certificates: the checker replays specific witness instances, this
replays the generator.
"""

import pytest
from hypothesis import given, settings

from repro.analysis.optimize import PASSES

from tests.differential import (
    BACKENDS,
    check_goal_relations,
    check_passes,
    run_slice,
)
from tests.generators import instances, programs, rpq_programs


@pytest.mark.parametrize("pass_name", sorted(PASSES))
@pytest.mark.parametrize("seed", range(12))
def test_each_pass_preserves_goal_relation(pass_name, seed):
    @given(program=programs(), instance=instances(odd=False))
    def cell(program, instance):
        check_passes(program, instance, [pass_name])

    run_slice(seed, 2, cell)


@pytest.mark.parametrize("seed", range(20))
def test_full_pipeline_preserves_goal_relation(seed):
    @given(program=programs(), instance=instances(odd=False))
    def cell(program, instance):
        check_passes(program, instance)

    run_slice(seed, 2, cell)


@given(program=rpq_programs(), instance=instances())
@settings(max_examples=25, deadline=None)
def test_pipeline_equivalence_hypothesis(program, instance):
    """Compiled RPQs, the linear recursion magic sets rewrites, through
    ``evaluate`` with the optimizer on."""
    check_goal_relations(program, instance, [(b, True) for b in BACKENDS])
