"""Both backends against the replayer, across the generator's corners.

Cells of the differential fuzzer (:mod:`tests.differential`): random
programs with constants in bodies and heads, repeated variables,
``None`` as ordinary data and empty relations reach the replayer's
naive fixpoint on each backend's semi-naive engine, with the optimizer
off and on, and so do the hand-written edge cases below.  ``None`` is
data, not a wildcard: the columnar engine must hash and join it like
any other value.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.core.atoms import Atom
from repro.core.datalog import DatalogProgram, Rule
from repro.core.instance import Instance
from repro.core.parser import parse_instance, parse_program
from repro.core.terms import Variable

from tests.differential import (
    BACKENDS,
    check_fixpoint,
    check_goal_relations,
    oracle,
)
from tests.generators import instances, programs

X, Y = Variable("x"), Variable("y")


@given(program=programs(), instance=instances())
@settings(max_examples=30, deadline=None)
def test_columnar_matches_interpreted_across_strategies(program, instance):
    check_fixpoint(program, instance, [(b, False) for b in BACKENDS])


@given(program=programs(), instance=instances())
@settings(max_examples=30, deadline=None)
def test_columnar_matches_interpreted_under_optimize(program, instance):
    check_fixpoint(program, instance, [(b, True) for b in BACKENDS])


@given(program=programs(), instance=instances())
@settings(max_examples=50, deadline=None)
def test_query_evaluate_is_backend_and_optimize_invariant(
    program, instance
):
    """Every goal × optimize × backend cell (the optimized path may route
    through magic sets, whose derived programs must evaluate correctly
    on both backends)."""
    check_goal_relations(program, instance)


def test_columnar_on_the_empty_instance():
    program = parse_program("P(x,y) <- R(x,y).")
    check_fixpoint(program, Instance())
    assert oracle(program, Instance()) == {}


def test_columnar_constant_only_rule_and_zero_arity_goal():
    """Facts-as-rules and 0-ary (boolean) heads."""
    program = DatalogProgram([
        Rule(Atom("P", (1, 2)), []),
        Rule(Atom("G", ()), [Atom("P", (X, 2))]),
        Rule(Atom("Q", (7,)), [Atom("G", ())]),
    ])
    check_fixpoint(program, Instance())
    expected = oracle(program, Instance())
    assert expected["G"] == {()} and expected["Q"] == {(7,)}


def test_columnar_repeated_variables_and_none_data():
    """Self-join positions and None values: equality must be exact —
    None joins None and nothing else."""
    program = DatalogProgram([
        Rule(Atom("Q", (X,)), [Atom("R", (X, X))]),
        Rule(Atom("P", (X, Y)), [Atom("R", (X, None)), Atom("R", (None, Y))]),
    ])
    instance = Instance.from_tuples({
        "R": [(1, 1), (1, 2), (None, None), (2, None), (None, 3)],
    })
    check_fixpoint(program, instance)
    expected = oracle(program, instance)
    assert expected["Q"] == {(1,), (None,)}
    assert (2, 3) in expected["P"]


def test_columnar_cartesian_product_body():
    """Disconnected bodies degrade to a cross join, not a crash."""
    program = parse_program("P(x,y) <- U(x), V(y).")
    instance = parse_instance("U(1). U(2). V('a'). V('b').")
    check_fixpoint(program, instance)
    assert len(oracle(program, instance)["P"]) == 4
