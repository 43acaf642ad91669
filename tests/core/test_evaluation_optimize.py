"""The optimizer hooks in the evaluation engine.

``fixpoint(optimize=True)`` and ``DatalogQuery.evaluate(optimize=True)``
must return exactly what the plain paths return — optimization is an
engine detail, never a semantics change — and the run's ``optimize``
setting must reach every call that leaves the keyword unset.
"""

import pytest

from repro.analysis.optimize import OPTIMIZE_RULE_LIMIT
from repro.core import parse_instance, parse_program
from repro.core.atoms import Atom
from repro.core.datalog import DatalogProgram, DatalogQuery, Rule
from repro.core.context import RunConfig, current, running
from repro.core.evaluation import fixpoint
from repro.core.stats import EngineStats, collecting, suspended
from repro.core.terms import Variable

from tests.differential import REFERENCES, nonempty

REACH = parse_program(
    """
    Reach(x,y) <- E(x,y).
    Reach(x,y) <- E(x,z), Reach(z,y).
    Goal(y) <- S(x), Reach(x,y).
    """
)
CHAIN = parse_instance(
    " ".join(f"E({i},{i + 1})." for i in range(12)) + " S(4)."
)


@pytest.mark.parametrize("reference", sorted(REFERENCES))
def test_fixpoint_optimize_parity(reference):
    """The optimized fixpoint equals each reference evaluation of the
    plain program: the replayer's naive one and the interpreted
    engine's semi-naive insertion and stratified fixpoint."""
    tuned = fixpoint(REACH, CHAIN, optimize=True)
    assert nonempty(tuned) == REFERENCES[reference](REACH, CHAIN)


def test_evaluate_optimize_parity():
    query = DatalogQuery(REACH, "Goal")
    assert query.evaluate(CHAIN, optimize=True) == query.evaluate(
        CHAIN, optimize=False
    )


def test_evaluate_falls_back_when_instance_has_idb_facts():
    query = DatalogQuery(REACH, "Goal")
    seeded = parse_instance("E(1,2). S(7). Reach(7,9).")
    assert query.evaluate(seeded, optimize=True) == query.evaluate(
        seeded, optimize=False
    )
    assert (9,) in query.evaluate(seeded, optimize=True)


def test_rule_limit_skips_optimization_but_still_answers():
    x, y = Variable("x"), Variable("y")
    rules = [
        Rule(Atom(f"P{i}", (x,)), (Atom("U", (x,)),))
        for i in range(OPTIMIZE_RULE_LIMIT + 1)
    ]
    rules.append(Rule(Atom("Goal", (x, y)), (Atom("R", (x, y)),)))
    big = DatalogProgram(rules)
    instance = parse_instance("R(1,2). U(1).")
    query = DatalogQuery(big, "Goal")
    assert query.evaluate(instance, optimize=True) == {(1, 2)}
    assert fixpoint(big, instance, optimize=True) == fixpoint(
        big, instance, optimize=False
    )


def test_set_default_optimize_round_trips():
    """A run turns the optimizer on; nested runs and leaving them
    restore whatever was current before."""
    assert current().config.optimize is False
    with running(RunConfig(optimize=True)):
        assert current().config.optimize is True
        with running(RunConfig()):
            assert current().config.optimize is False
        assert current().config.optimize is True
    assert current().config.optimize is False


def test_ambient_default_drives_evaluate():
    query = DatalogQuery(REACH, "Goal")
    expected = query.evaluate(CHAIN, optimize=False)
    stats = EngineStats()
    with running(RunConfig(optimize=True), stats):
        assert query.evaluate(CHAIN) == expected
    # the optimized program is what ran: magic sets bound the goal
    plain = EngineStats()
    with collecting(plain):
        query.evaluate(CHAIN, optimize=False)
    assert stats.facts_derived < plain.facts_derived


def test_suspended_shields_ambient_stats():
    outer = EngineStats()
    with collecting(outer):
        with suspended() as scratch:
            fixpoint(REACH, CHAIN)
            assert scratch.hom_calls > 0
        assert outer.hom_calls == 0
        fixpoint(REACH, CHAIN)
        assert outer.hom_calls > 0


def test_optimized_evaluate_keeps_counters_honest():
    """Analysis-side hom searches stay out of evaluation stats."""
    query = DatalogQuery(REACH, "Goal")
    stats = EngineStats()
    with collecting(stats):
        rows = query.evaluate(CHAIN, optimize=True)
    assert rows == query.evaluate(CHAIN, optimize=False)
    plain = EngineStats()
    with collecting(plain):
        query.evaluate(CHAIN, optimize=False)
    # the goal is bound through S: magic sets must not cost more homs
    assert stats.hom_calls <= plain.hom_calls
