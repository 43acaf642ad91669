"""Property safety net for the static cardinality bounds.

The whole point of ``--audit cost`` is that the bounds in
:mod:`repro.analysis.cost` are *sound*: no evaluation — any strategy,
any backend, optimizer on or off — may ever derive more facts for a
predicate than the analysis predicted.  Hypothesis hunts for a program
× instance pair that breaks that, over the same adversarial pool the
backend-equivalence suite uses (constants in heads, repeated
variables, ``None`` as data, empty relations).
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cost import CostGuard, cost_report
from repro.core.atoms import Atom
from repro.core.datalog import DatalogProgram, Rule
from repro.core.evaluation import fixpoint
from repro.core.instance import Instance
from repro.core.terms import Variable

_VARS = [Variable(n) for n in "xyzw"]
_CONSTS = [0, 1, 2, "a", None]
_EDB = [("R", 2), ("U", 1), ("Empty", 1)]
_IDB = [("P", 2), ("Q", 1), ("G", 1)]

_STRATEGIES = ("naive", "seminaive", "stratified")
_BACKENDS = ("interpreted", "columnar")


@st.composite
def programs_with_constants(draw) -> DatalogProgram:
    """Safe programs over R/2, U/1, Empty/1 → P/2, Q/1, G/1."""
    rules = []
    for _ in range(draw(st.integers(min_value=2, max_value=5))):
        body = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            pred, arity = draw(st.sampled_from(_EDB + _IDB))
            terms = tuple(
                draw(
                    st.one_of(
                        st.sampled_from(_VARS), st.sampled_from(_CONSTS)
                    )
                )
                for _ in range(arity)
            )
            body.append(Atom(pred, terms))
        body_vars = sorted(
            {v for a in body for v in a.variables()}, key=lambda v: v.name
        )
        head_terms = body_vars if body_vars else _CONSTS
        pred, arity = draw(st.sampled_from(_IDB))
        head = Atom(
            pred,
            tuple(
                draw(st.sampled_from(head_terms)) for _ in range(arity)
            ),
        )
        rules.append(Rule(head, body))
    return DatalogProgram(rules)


@st.composite
def edb_instances(draw) -> Instance:
    """Small instances over R/2 and U/1; the element pool deliberately
    exceeds the programs' constant pool so the measured active domain
    must account for instance-only values (3, "b")."""
    inst = Instance()
    for pred, arity in (("R", 2), ("U", 1)):
        for _ in range(draw(st.integers(min_value=0, max_value=6))):
            inst.add_tuple(
                pred,
                tuple(
                    draw(st.sampled_from(_CONSTS + [3, "b"]))
                    for _ in range(arity)
                ),
            )
    return inst


def assert_bounds_hold(program, instance, result, context=""):
    report = cost_report(program, instance=instance)
    for pred, pb in report.bounds.items():
        measured = result.size(pred)
        assert measured <= pb.bound, (
            f"UNSOUND bound for {pred}: measured {measured} > "
            f"predicted {pb.bound} ({pb.basis}){context}\n"
            f"program:\n{program!r}\n"
            f"instance:\n{instance.pretty()}"
        )


@given(program=programs_with_constants(), instance=edb_instances())
@settings(max_examples=60, deadline=None)
def test_bounds_sound_across_strategies_and_backends(program, instance):
    for strategy in _STRATEGIES:
        for backend in _BACKENDS:
            result = fixpoint(
                program, instance, strategy=strategy, backend=backend
            )
            assert_bounds_hold(
                program,
                instance,
                result,
                context=f" [{backend}/{strategy}]",
            )


@given(program=programs_with_constants(), instance=edb_instances())
@settings(max_examples=40, deadline=None)
def test_bounds_sound_with_the_optimizer(program, instance):
    for optimize in (False, True):
        result = fixpoint(program, instance, optimize=optimize)
        assert_bounds_hold(
            program, instance, result, context=f" [optimize={optimize}]"
        )


@given(program=programs_with_constants(), instance=edb_instances())
@settings(max_examples=40, deadline=None)
def test_cost_guard_agrees_with_the_direct_check(program, instance):
    """The post-fixpoint guard is the deployed form of the property:
    it must flag nothing on these runs, and what it checked must match
    the analysis bounds recomputed independently."""
    guard = CostGuard()
    result = fixpoint(program, instance)
    guard(program, instance, result)
    summary = guard.summary()
    assert summary["violations"] == [], (
        f"guard flagged an unsound bound:\n{summary['violations']}\n"
        f"program:\n{program!r}\ninstance:\n{instance.pretty()}"
    )
    assert summary["checks"] == 1
    report = cost_report(program, instance=instance)
    assert summary["predicates"] == len(report.bounds)


@given(program=programs_with_constants(), instance=edb_instances())
@settings(max_examples=30, deadline=None)
def test_goal_scoped_bounds_stay_sound(program, instance):
    """Restricting the report to one goal zeroes unreachable
    predicates — but every *reachable* bound must still hold."""
    result = fixpoint(program, instance)
    for goal in sorted(program.idb_predicates()):
        report = cost_report(program, goal=goal, instance=instance)
        for pred, pb in report.bounds.items():
            if pred in report.unreachable:
                continue
            assert result.size(pred) <= pb.bound, (
                f"goal {goal}: {pred} measured {result.size(pred)} > "
                f"{pb.bound}\nprogram:\n{program!r}"
            )
