"""Datalog programs: classification and evaluation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.certify.replay import naive_fixpoint
from repro.certify.serialize import relations_from_instance
from repro.core.atoms import Atom
from repro.core.datalog import DatalogProgram, DatalogQuery, Rule
from repro.core.evaluation import fixpoint
from repro.core.instance import Instance
from repro.core.parser import parse_instance, parse_program
from repro.core.terms import Variable

from tests.differential import check_fixpoint, run_slice
from tests.generators import instances


def test_rule_safety():
    x, y = Variable("x"), Variable("y")
    with pytest.raises(ValueError):
        Rule(Atom("P", (x,)), (Atom("R", (y,)),))


def test_idb_edb_split():
    program = parse_program(
        """
        P(x) <- R(x,y), Q2(y).
        Q2(x) <- S(x).
        """
    )
    assert program.idb_predicates() == {"P", "Q2"}
    assert program.edb_predicates() == {"R", "S"}


def test_recursion_detection():
    recursive = parse_program("P(x) <- R(x,y), P(y). P(x) <- U(x).")
    assert recursive.is_recursive()
    flat = parse_program("P(x) <- R(x,y). Goal() <- P(x).")
    assert not flat.is_recursive()
    assert flat.fragment() == "nonrecursive"


def test_monadic_classification():
    mdl = parse_program("P(x) <- R(x,y), P(y). P(x) <- U(x).")
    assert mdl.is_monadic()
    assert mdl.fragment() == "MDL"
    binary = parse_program(
        "T(x,y) <- R(x,y). T(x,y) <- R(x,z), T(z,y)."
    )
    assert not binary.is_monadic()


def test_frontier_guarded_classification():
    fg = parse_program(
        """
        T(x,y) <- R(x,y).
        T(x,y) <- R(x,y), T(y,z), T(z,x).
        """
    )
    assert fg.is_frontier_guarded()
    assert fg.fragment() == "FGDL"
    not_fg = parse_program(
        """
        T(x,y) <- R(x,z), S(z,y).
        T(x,y) <- T(x,z), T(z,y).
        """
    )
    assert not not_fg.is_frontier_guarded()
    assert not_fg.fragment() == "Datalog"


def test_mdl_counts_as_frontier_guarded():
    # the paper's convention: I1(x) <- I2(x) is fine in MDL
    mdl = parse_program("I1(x) <- I2(x). I2(x) <- U(x).")
    assert mdl.is_monadic()
    assert mdl.is_frontier_guarded()


def test_transitive_closure_evaluation():
    program = parse_program(
        """
        T(x,y) <- R(x,y).
        T(x,y) <- R(x,z), T(z,y).
        """
    )
    inst = parse_instance("R(1,2). R(2,3). R(3,4).")
    full = fixpoint(program, inst)
    assert full.has_tuple("T", (1, 4))
    assert len(full.tuples("T")) == 6


def test_goal_evaluation(reach_query, path_instance):
    assert reach_query.evaluate(path_instance) == {
        ("a",), ("b",), ("c",), ("d",),
    }
    assert reach_query.holds(path_instance, ("a",))


def test_boolean_query():
    q = DatalogQuery(
        parse_program("Goal() <- R(x,y), R(y,x)."), "Goal"
    )
    assert not q.boolean(parse_instance("R(1,2)."))
    assert q.boolean(parse_instance("R(1,2). R(2,1)."))


def test_goal_must_be_idb():
    program = parse_program("P(x) <- R(x,y).")
    with pytest.raises(ValueError):
        DatalogQuery(program, "R")


def test_unconditional_fact_rules():
    program = DatalogProgram((Rule(Atom("Const", ()), ()),))
    assert fixpoint(program, Instance()).has_tuple("Const", ())


def test_input_idb_facts_used():
    """Prop 4-style instances carrying IDB facts are respected."""
    program = parse_program("P(x) <- R(x,y), P(y).")
    inst = parse_instance("R(1,2). P(2).")
    assert fixpoint(program, inst).has_tuple("P", (1,))


def test_relabel_idbs():
    q = DatalogQuery(
        parse_program("P(x) <- R(x,y), P(y). P(x) <- U(x)."), "P"
    )
    renamed = q.relabel_idbs("_v")
    assert renamed.goal == "P_v"
    assert "R" in renamed.program.edb_predicates()
    inst = parse_instance("R(1,2). U(2).")
    assert renamed.evaluate(inst) == q.evaluate(inst)


@pytest.mark.parametrize("seed", range(12))
def test_naive_equals_seminaive_on_random_instances(seed):
    """The replayer's naive fixpoint equals every engine's semi-naive
    one on a closure and a goal over it."""
    program = parse_program(
        """
        T(x,y) <- R(x,y).
        T(x,y) <- R(x,z), T(z,y).
        Goal(x) <- T(x,x).
        """
    )

    @given(instance=instances())
    def cell(instance):
        check_fixpoint(program, instance)

    run_slice(seed, 3, cell)


@pytest.mark.parametrize("seed", range(8))
def test_mutual_recursion(seed):
    program = parse_program(
        """
        Even(x) <- Z(x).
        Even(x) <- S(y,x), Odd(y).
        Odd(x) <- S(y,x), Even(y).
        """
    )
    inst = Instance()
    inst.add_tuple("Z", (0,))
    for i in range(6):
        inst.add_tuple("S", (i, i + 1))
    full = fixpoint(program, inst)
    assert full.tuples("Even") == frozenset({(0,), (2,), (4,), (6,)})
    assert full.tuples("Odd") == frozenset({(1,), (3,), (5,)})
    assert naive_fixpoint(
        program.rules, relations_from_instance(inst)
    ) == relations_from_instance(full)


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=12))
@settings(max_examples=40, deadline=None)
def test_fixpoint_monotone(rows):
    """More input facts never remove derived facts."""
    program = parse_program(
        "T(x,y) <- R(x,y). T(x,y) <- R(x,z), T(z,y)."
    )
    inst = Instance(Atom("R", row) for row in rows)
    bigger = inst.copy()
    bigger.add_tuple("R", (0, 1))
    assert fixpoint(program, inst).tuples("T") <= fixpoint(
        program, bigger
    ).tuples("T")


def test_fixpoint_unknown_strategy():
    """Each engine has one strategy.  A strategy name, passed where the
    old signature took one or by keyword, fails loudly instead of
    binding to ``stats``: the options after ``instance`` are
    keyword-only."""
    program = parse_program("P(x) <- R(x,y).")
    with pytest.raises(TypeError):
        fixpoint(program, Instance(), "naive")
    with pytest.raises(TypeError, match="strategy"):
        fixpoint(program, Instance(), strategy="naive")
