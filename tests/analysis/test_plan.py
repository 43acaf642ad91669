"""The stratum plan shared by the cost, maintain and shard analyses.

One builder runs the expensive program-only work (the vacuous-rule
peel) once; callers that already have it, or only need the parameter
part, never pay for it again.
"""

from __future__ import annotations

import pytest

from repro.analysis import analyze_query, semantics
from repro.analysis.cost import RULE_LIMIT, CostParameters
from repro.analysis.maintain import maintain_report
from repro.analysis.plan import (
    COMMUNICATION_FREE,
    EXCHANGE_REQUIRED,
    ProgramPlan,
    program_plan,
)
from repro.analysis.shard import shard_report
from repro.core.parser import parse_instance, parse_program

MIXED = parse_program(
    """
    Reach(x,y) <- E(x,y).
    Reach(x,y) <- E(x,z), Reach(z,y).
    Direct(x,y) <- E(x,y).
    Direct(x,y) <- E(x,y), Direct(x,y).
    """
)


@pytest.fixture
def peels(monkeypatch):
    """Counts :func:`~repro.analysis.semantics.boundedness_report` calls."""
    calls = []
    original = semantics.boundedness_report

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(semantics, "boundedness_report", counting)
    return calls


def test_program_plan_holds_every_class_before_evaluation():
    plan = program_plan(MIXED)
    direct = plan.plan_of("Direct")
    reach = plan.plan_of("Reach")
    assert plan.dropped == (3,)
    assert direct.counting_safe and direct.effective_rule_indices == (2,)
    assert not reach.counting_safe and reach.strategy == "dred"
    assert direct.classification == COMMUNICATION_FREE
    assert direct.keys == {"Direct": 0, "E": 0}
    # the parameter part is not there to read before evaluation
    with pytest.raises(AttributeError):
        _ = direct.self_maintainable
    assert not hasattr(direct, "bounds")
    assert not hasattr(direct, "exchange_bound")


def test_evaluate_fills_in_the_parameter_part():
    plan = program_plan(MIXED).evaluate(
        CostParameters.assumed_for(MIXED), update_size=2, workers=3
    )
    reach = plan.plan_of("Reach")
    assert plan.update_size == 2 and plan.workers == 3
    assert reach.bounds["Reach"].bound > 0
    assert reach.deltas["Reach"].bound == reach.delta_bound
    assert reach.exchange_bound == 2 * reach.bounds["Reach"].bound
    assert plan.base_deltas["E"].bound == 2
    assert not reach.insert_monotone
    append = program_plan(MIXED).evaluate(
        CostParameters.assumed_for(MIXED), append_only=frozenset({"E"})
    )
    assert append.plan_of("Reach").insert_monotone


def test_semantic_lint_peels_once(peels):
    analyze_query(MIXED, goal="Reach", semantic=True)
    assert len(peels) == 1


def test_predict_delta_never_peels(peels):
    from repro.ivm import MaterializedView

    view = MaterializedView(MIXED, parse_instance("E('a','b')."))
    assert isinstance(view.maintenance_plan(), ProgramPlan)
    built = len(peels)
    assert view.predict_delta(3) is not None
    view.insert([("E", ("b", "c"))])
    assert view.predict_delta(1) is not None
    assert len(peels) == built


def test_sharded_fixpoint_runs_no_cost_pass(monkeypatch):
    from repro.analysis import cost, plan
    from repro.core.shard import SHARD_MIN_FACTS, sharded_fixpoint

    passes = []

    def count(name, original):
        def counting(*args, **kwargs):
            passes.append(name)
            return original(*args, **kwargs)

        return counting

    monkeypatch.setattr(
        plan, "cardinality_bounds", count("plan", plan.cardinality_bounds)
    )
    monkeypatch.setattr(
        cost, "cardinality_bounds", count("cost", cost.cardinality_bounds)
    )
    monkeypatch.setattr(cost, "cost_report", count("report", cost.cost_report))
    program = parse_program(
        "T(g,x,y) <- E(g,x,y). T(g,x,y) <- E(g,x,z), T(g,z,y)."
    )
    facts = " ".join(
        f"E({g},{i},{i + 1})." for g in range(8) for i in range(40)
    )
    base = parse_instance(facts)
    assert len(base) >= SHARD_MIN_FACTS
    result = sharded_fixpoint(program, base, shards=2)
    assert result.size("T") == 8 * 40 * 41 // 2
    assert passes == []


def test_programs_over_the_rule_limit_keep_real_bounds_and_no_audits():
    """Over RULE_LIMIT the plan skips the peel and the key search but
    still derives every delta and exchange bound from the cardinality
    bounds; the view predicts nothing and no guard checks the program."""
    from repro.core.context import AUDITS, RunConfig, running
    from repro.core.evaluation import fixpoint
    from repro.ivm import MaterializedView

    rules = [f"P{i}(x,y) <- E(x,y)." for i in range(RULE_LIMIT - 1)]
    rules += ["T(x,y) <- E(x,y).", "T(x,y) <- E(x,z), T(z,y)."]
    program = parse_program(" ".join(rules))
    assert len(program.rules) == RULE_LIMIT + 1

    # assumed parameters: |E| = 16 and adom = 32; one update inflates
    # them to 17 and 34
    maintain = maintain_report(program)
    reach, copy = maintain.bound_of("T"), maintain.bound_of("P0")
    assert (reach.bound, reach.relation_bound) == (2 * 34**2, 34**2)
    assert (copy.bound, copy.relation_bound) == (2, 17)
    assert maintain.total_delta_bound == 1 + 199 * 2 + 2 * 34**2
    assert maintain.strategies()["T"] == "dred"

    shard = shard_report(program)
    stratum = shard.plan_of("T")
    assert stratum.classification == EXCHANGE_REQUIRED
    assert stratum.shard_basis == (
        "program exceeds RULE_LIMIT (201 > 200); key search skipped"
    )
    assert stratum.exchange_bound == 32**2 * 3
    assert shard.plan_of("P0").exchange_bound == 16 * 3
    assert shard.communication_free == 0
    assert shard.as_dict()["total_exchange_bound"] == 199 * 48 + 3072

    base = parse_instance(
        " ".join(f"E({i},{(7 * i + 3) % 64})." for i in range(300))
    )
    with running(RunConfig(audits=frozenset(AUDITS), shards=2)) as run:
        result = fixpoint(program, base)
        view = MaterializedView(program, base)
        assert view.maintenance_plan() is None
        assert view.predict_delta() is None
        view.insert([("E", (1000, 1001))])
    assert result.size("P0") == 300
    assert all(summary["checks"] == 0 for summary in run.summaries().values())


def test_a_rule_over_thousands_of_predicates_gets_its_keys():
    """The key search keeps one frame per predicate on a list, not on
    the call stack: 3,000 body predicates used to raise RecursionError."""
    body = ", ".join(f"E{i}(x)" for i in range(3000))
    program = parse_program(f"P(x) <- {body}.")
    stratum = shard_report(program).plan_of("P")
    assert stratum.classification == COMMUNICATION_FREE
    assert len(stratum.keys) == 3001
    assert set(stratum.keys.values()) == {0}


def test_a_long_chain_body_plans_in_linear_work(monkeypatch):
    """The body's components join each atom to the first atom of each
    of its variables; the pairwise test read ``variables()`` about n²
    times (9M calls at 3,000 atoms)."""
    from repro.analysis.dependency import rule_body_components
    from repro.core.atoms import Atom

    body = ", ".join(f"E(x{i},x{i + 1})" for i in range(3000))
    program = parse_program(f"P(x0) <- {body}.")
    (rule,) = program.rules
    calls = []
    variables = Atom.variables
    monkeypatch.setattr(
        Atom, "variables", lambda atom: calls.append(1) or variables(atom)
    )
    assert rule_body_components(rule) == [list(range(3000))]
    assert len(calls) <= len(rule.body)
    monkeypatch.undo()
    assert program_plan(program).strata
