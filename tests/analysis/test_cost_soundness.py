"""The static cardinality bounds against the replayer.

``--audit cost`` is only worth its exit code if the bounds of
:mod:`repro.analysis.cost` are *sound*: no evaluation — either backend,
optimizer on or off — may derive more facts for a predicate than the
analysis predicted.  Cells of the differential fuzzer
(:mod:`tests.differential`): the bounds must cover the replayer's
relation sizes, and the cost audit, on in every cell, must flag no
engine's fixpoint.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.analysis.cost import cost_report

from tests.differential import BACKENDS, check_bounds, check_fixpoint
from tests.generators import instances, programs


@given(program=programs(), instance=instances())
@settings(max_examples=30, deadline=None)
def test_bounds_sound_across_strategies_and_backends(program, instance):
    """The bounds cover the replayer's naive fixpoint, and the audit
    finds them covering each backend's semi-naive one."""
    check_bounds(program, instance)
    run = check_fixpoint(program, instance, [(b, False) for b in BACKENDS])
    assert run.summaries()["cost"]["checks"] == len(BACKENDS)


@given(program=programs(), instance=instances())
@settings(max_examples=20, deadline=None)
def test_bounds_sound_with_the_optimizer(program, instance):
    """The audit checks the program each optimized run executes."""
    check_fixpoint(program, instance, [(b, True) for b in BACKENDS])


@given(program=programs(), instance=instances())
@settings(max_examples=20, deadline=None)
def test_cost_guard_agrees_with_the_direct_check(program, instance):
    """The guard audits one plain fixpoint once, over every bound the
    analysis computes, and agrees with the direct check."""
    run = check_fixpoint(program, instance, [("interpreted", False)])
    summary = run.summaries()["cost"]
    assert summary["checks"] == 1
    report = cost_report(program, instance=instance)
    assert summary["predicates"] == len(report.bounds)
    check_bounds(program, instance)


@given(program=programs(), instance=instances())
@settings(max_examples=30, deadline=None)
def test_goal_scoped_bounds_stay_sound(program, instance):
    """Restricting the report to one goal zeroes unreachable
    predicates — but every *reachable* bound must still hold."""
    for goal in sorted(program.idb_predicates()):
        check_bounds(program, instance, goal)
