"""The static cost & cardinality analysis: bounds, guard, diagnostics."""

from repro.analysis.analyzer import analyze_query
from repro.analysis.cost import (
    BOUND_CAP,
    RULE_LIMIT,
    CostParameters,
    atom_match_bound,
    cost_report,
)
from repro.core.atoms import Atom
from repro.core.context import RunConfig, current, running
from repro.core.evaluation import fixpoint
from repro.core.parser import parse_instance, parse_program
from repro.core.stats import EngineStats, collecting, suspended
from repro.core.terms import Variable

REACH = parse_program(
    """
    Reach(x,y) <- E(x,y).
    Reach(x,y) <- E(x,z), Reach(z,y).
    Goal(y) <- S(x), Reach(x,y).
    """
)

x, y = Variable("x"), Variable("y")


def chain_instance(n: int, source: int):
    text = " ".join(f"E({i},{i + 1})." for i in range(n))
    return parse_instance(text + f" S({source}).")


# ---------------------------------------------------------------------------
# atom match bounds
# ---------------------------------------------------------------------------
def test_atom_match_bound_caps_at_relation_size():
    atom = Atom("R", (x, y))
    assert atom_match_bound(atom, frozenset(), {"R": 7}, 100, 0) == 7


def test_atom_match_bound_caps_at_adom_power():
    atom = Atom("R", (x, y))
    assert atom_match_bound(atom, frozenset(), {"R": 10**6}, 5, 0) == 25


def test_atom_match_bound_bound_vars_shrink_the_power():
    atom = Atom("R", (x, y))
    assert atom_match_bound(atom, frozenset({x}), {"R": 10**6}, 5, 0) == 5
    assert (
        atom_match_bound(atom, frozenset({x, y}), {"R": 10**6}, 5, 0) == 1
    )


def test_atom_match_bound_repeated_vars_count_once():
    # R(x,x) has one distinct variable: adom^1, not adom^2
    atom = Atom("R", (x, x))
    assert atom_match_bound(atom, frozenset(), {"R": 10**6}, 5, 0) == 5


def test_atom_match_bound_constants_are_free():
    atom = Atom("R", (x, "c"))
    assert atom_match_bound(atom, frozenset(), {"R": 10**6}, 5, 0) == 5


def test_atom_match_bound_unknown_pred_uses_default():
    atom = Atom("Mystery", (x,))
    assert atom_match_bound(atom, frozenset(), {}, 100, 3) == 3


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------
def test_measured_parameters_read_the_instance():
    instance = chain_instance(4, 0)
    params = CostParameters.from_instance(REACH, instance)
    assert not params.assumed
    assert params.edb_sizes == {"E": 4, "S": 1}
    # 0..4 from the chain (0 doubles as the S seed)
    assert params.adom == 5
    assert params.default_edb_size == 0


def test_measured_parameters_split_idb_seeds():
    instance = parse_instance("E(1,2). Reach(7,8).")
    params = CostParameters.from_instance(REACH, instance)
    assert params.edb_sizes == {"E": 1}
    assert params.idb_seeds == {"Reach": 1}


def test_assumed_parameters_give_every_edb_sixteen_rows():
    params = CostParameters.assumed_for(REACH)
    assert params.assumed
    assert params.edb_sizes == {"E": 16, "S": 16}
    # no constants: adom = 16*2 (E) + 16*1 (S)
    assert params.adom == 48


# ---------------------------------------------------------------------------
# predicate bounds
# ---------------------------------------------------------------------------
def test_bounds_are_sound_on_the_chain():
    instance = chain_instance(20, 10)
    report = cost_report(REACH, goal="Goal", instance=instance)
    result = fixpoint(REACH, instance)
    for pred in ("Reach", "Goal"):
        pb = report.bound_of(pred)
        assert pb is not None
        assert result.size(pred) <= pb.bound


def test_recursive_bound_caps_at_adom_power_arity():
    instance = chain_instance(20, 10)
    report = cost_report(REACH, instance=instance)
    reach = report.bound_of("Reach")
    assert reach.recursive
    assert reach.bound <= report.parameters.adom ** 2


def test_nonrecursive_bound_sums_rule_bounds():
    program = parse_program("P(x) <- R(x). P(x) <- U(x).")
    instance = parse_instance("R(1). R(2). U(3).")
    report = cost_report(program, instance=instance)
    pb = report.bound_of("P")
    assert not pb.recursive
    assert pb.bound == 3  # |R| + |U| capped at adom


def test_idb_seed_facts_raise_the_bound():
    program = parse_program("P(x) <- R(x).")
    instance = parse_instance("R(1). P(90). P(91).")
    report = cost_report(program, instance=instance)
    result = fixpoint(program, instance)
    assert result.size("P") == 3
    assert report.bound_of("P").bound >= 3


def test_goal_unreachable_predicates_collapse_to_seeds():
    program = parse_program(
        "Goal(x) <- R(x). Orphan(x) <- R(x), U(x)."
    )
    instance = parse_instance("R(1). R(2). U(1).")
    report = cost_report(program, goal="Goal", instance=instance)
    assert "Orphan" in report.unreachable
    assert report.bound_of("Orphan").bound == 0


def test_boundedness_peeling_drops_vacuous_recursion():
    program = parse_program(
        "P(x) <- R(x). P(x) <- R(x), P(x)."
    )
    instance = parse_instance("R(1). R(2).")
    report = cost_report(program, instance=instance)
    assert report.peeled_rules  # the vacuous self-loop was dropped
    pb = report.bound_of("P")
    assert not pb.recursive  # peeled program is non-recursive
    assert fixpoint(program, instance).size("P") <= pb.bound


def test_arithmetic_saturates_instead_of_overflowing():
    # 12 distinct variables in one head over a 100-element domain:
    # adom^12 = 10^24 must clamp at BOUND_CAP
    head = "P(" + ",".join(f"v{i}" for i in range(12)) + ")"
    body = ", ".join(f"R(v{i})" for i in range(12))
    program = parse_program(f"{head} <- {body}.")
    instance = parse_instance(
        " ".join(f"R({i})." for i in range(100))
    )
    report = cost_report(program, instance=instance)
    assert report.bound_of("P").bound == BOUND_CAP
    assert report.total_join_cost <= BOUND_CAP


def test_empty_program_reports_nothing():
    report = cost_report(parse_program(""))
    assert not report.bounds
    assert report.total_bound == 0


def test_oversized_programs_are_skipped_by_the_cost_audit():
    rules = " ".join(
        f"P{i}(x) <- R(x)." for i in range(RULE_LIMIT + 1)
    )
    with running(RunConfig(audits={"cost"})) as run:
        fixpoint(parse_program(rules), parse_instance("R(1)."))
    assert run.summaries()["cost"]["checks"] == 0


# ---------------------------------------------------------------------------
# rule costs
# ---------------------------------------------------------------------------
def test_rule_costs_cover_every_rule_with_atom_provenance():
    instance = chain_instance(6, 0)
    report = cost_report(REACH, instance=instance)
    assert {rc.rule_index for rc in report.rules} == {0, 1, 2}
    for rc in report.rules:
        assert rc.atoms
        assert rc.join_cost >= rc.atoms[0].running
        assert rc.dominant in rc.atoms


def test_cartesian_rule_is_flagged():
    program = parse_program("P(x,y) <- R(x), U(y).")
    instance = parse_instance(
        " ".join(f"R({i}). U({i + 50})." for i in range(20))
    )
    report = cost_report(program, instance=instance)
    (rc,) = report.rules
    assert rc.cartesian


def test_connected_body_is_not_cartesian():
    instance = chain_instance(6, 0)
    report = cost_report(REACH, instance=instance)
    assert not any(rc.cartesian for rc in report.rules)


# ---------------------------------------------------------------------------
# report surface
# ---------------------------------------------------------------------------
def test_render_text_lists_bounds_and_rules():
    instance = chain_instance(4, 0)
    text = cost_report(REACH, instance=instance).render_text()
    assert "measured parameters" in text
    assert "Reach/2 <=" in text
    assert "rule 1" in text


def test_as_dict_is_json_ready():
    import json

    report = cost_report(REACH)
    payload = json.loads(json.dumps(report.as_dict()))
    assert payload["assumed"] is True
    assert set(payload["bounds"]) == {"Reach", "Goal"}
    assert len(payload["rules"]) == 3


# ---------------------------------------------------------------------------
# the cost guard
# ---------------------------------------------------------------------------
def test_cost_guard_audits_every_fixpoint():
    instance = chain_instance(10, 5)
    with running(RunConfig(audits={"cost"})) as run:
        fixpoint(REACH, instance)
    summary = run.summaries()["cost"]
    assert summary["checks"] == 1
    assert summary["predicates"] == len(
        cost_report(REACH, instance=instance).bounds
    )
    assert summary["violations"] == []


def test_cost_guard_counts_fixpoints_outside_the_collector():
    """The guard's own tallies are the one count of audited fixpoints:
    a fixpoint run with the collector suspended (as an IVM view's
    oracle recompute is) is audited and counted like any other."""
    instance = chain_instance(10, 5)
    stats = EngineStats()
    with running(RunConfig(audits={"cost"})) as run, collecting(stats):
        fixpoint(REACH, instance)
        with suspended():
            fixpoint(REACH, instance)
    summary = run.summaries()["cost"]
    assert summary["checks"] == 2
    assert summary["predicates"] >= 4
    assert summary["violations"] == []
    assert stats.fixpoint_rounds > 0


def test_cost_guard_measures_rows_of_the_bounds_arity():
    """A base row of another width is stored but never derived or
    joined, so it is not part of the relation a bound covers (the
    fuzzer's shrunk case: P/2 capped at adom^2 = 1 with a P(0) row)."""
    program = parse_program("P(0,0).")
    instance = parse_instance("P(0).")
    with running(RunConfig(audits={"cost"})) as run:
        result = fixpoint(program, instance)
    assert result.tuples("P") == {(0,), (0, 0)}
    summary = run.summaries()["cost"]
    assert summary["checks"] == 1 and summary["violations"] == []


def test_cost_guard_reports_a_violated_bound():
    # force unsoundness artificially: a guard with the real report but
    # a result that grew past the bound can only come from a broken
    # model, so fabricate one by auditing the wrong program
    from repro.analysis.cost import CostGuard

    program = parse_program("P(x) <- R(x).")
    instance = parse_instance("R(1).")
    bloated = fixpoint(
        parse_program("P(x) <- R(x). P(x) <- U(x)."),
        parse_instance("R(1). U(2). U(3)."),
    )
    guard = CostGuard()
    guard(program, instance, bloated)
    summary = guard.summary()
    assert summary["violations"]
    violation = summary["violations"][0]
    assert violation["pred"] == "P"
    assert violation["measured"] > violation["bound"]


def test_audited_fixpoints_of_one_program_build_one_plan(monkeypatch):
    from repro.analysis import plan as plan_module
    from repro.analysis.cost import CostGuard, _audit_plan

    built = []
    real = plan_module.program_plan

    def counting(program, *args, **kwargs):
        built.append(program)
        return real(program, *args, **kwargs)

    monkeypatch.setattr(plan_module, "program_plan", counting)
    _audit_plan.cache_clear()
    with running(RunConfig(audits={"cost"})) as run:
        fixpoint(REACH, chain_instance(10, 5))
        fixpoint(REACH, chain_instance(20, 3))
    assert run.summaries()["cost"]["checks"] == 2
    assert built == [REACH]

    # a plan served from the cache still catches a planted violation
    program = parse_program("P(x) <- R(x).")
    instance = parse_instance("R(1).")
    bloated = fixpoint(
        parse_program("P(x) <- R(x). P(x) <- U(x)."),
        parse_instance("R(1). U(2). U(3)."),
    )
    guard = CostGuard()
    guard(program, instance, fixpoint(program, instance))
    guard(program, instance, bloated)
    summary = guard.summary()
    assert summary["checks"] == 2
    assert [v["pred"] for v in summary["violations"]] == ["P"]
    assert built == [REACH, program]


def test_cost_checking_restores_previous_guard():
    before = current().audits.get("cost")
    with running(RunConfig(audits={"cost"})):
        assert current().audits["cost"] is not before
    assert current().audits.get("cost") is before


# ---------------------------------------------------------------------------
# diagnostics (I209, W112-W114)
# ---------------------------------------------------------------------------
def lint_codes(text: str, goal=None) -> set[str]:
    report = analyze_query(
        parse_program(text), goal=goal, semantic=True
    )
    return report.codes()


def test_semantic_lint_emits_cost_summary():
    codes = lint_codes(
        "Reach(x,y) <- E(x,y). Reach(x,y) <- E(x,z), Reach(z,y).",
    )
    assert "I209" in codes


def test_cartesian_blowup_warns_w112():
    # a genuinely disconnected product of wide relations blows up past
    # the active domain under assumed parameters
    codes = lint_codes("P(x,y,z) <- R(x,y), U(z), W(x).")
    assert "W112" in codes


def test_superlinear_recursion_warns_w113():
    codes = lint_codes(
        "Reach(x,y) <- E(x,y). Reach(x,y) <- E(x,z), Reach(z,y)."
    )
    assert "W113" in codes  # adom^2 > adom


def test_linear_recursion_stays_quiet():
    codes = lint_codes(
        "R1(x) <- S(x). R1(x) <- E(x,y), R1(y)."
    )
    assert "W113" not in codes  # arity 1: bound = adom, not super-linear


def test_unbindable_atom_warns_w114():
    # U(z) shares no variable with the rest of the body and repeats
    # nothing: no join order can bind it before probing
    codes = lint_codes("P(x) <- R(x,y), U(z).")
    assert "W114" in codes


def test_connected_body_has_no_w114():
    codes = lint_codes("P(x) <- R(x,y), U(y).")
    assert "W114" not in codes


def test_lint_report_carries_the_cost_report():
    report = analyze_query(REACH, goal="Goal", semantic=True)
    assert report.cost is not None
    assert "cost" in report.as_dict()
    assert report.as_dict()["cost"]["assumed"] is True


def test_nonsemantic_lint_skips_cost():
    report = analyze_query(REACH, goal="Goal", semantic=False)
    assert report.cost is None
    assert "cost" not in report.as_dict()


# ---------------------------------------------------------------------------
# CLI: repro analyze cost
# ---------------------------------------------------------------------------
def test_cli_analyze_cost_text(capsys):
    from repro.cli import main

    code = main(["analyze", "cost", "examples/inputs/reach_query.txt"])
    out = capsys.readouterr().out
    assert code == 0
    assert "cost analysis (assumed parameters" in out
    assert "Reach/1 <=" in out


def test_cli_analyze_cost_with_instance(capsys):
    from repro.cli import main

    code = main([
        "analyze", "cost", "examples/inputs/reach_query.txt",
        "--instance", "examples/inputs/flights_instance.txt",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "measured parameters" in out


def test_cli_analyze_cost_json(capsys):
    import json

    from repro.cli import main

    code = main([
        "analyze", "cost", "examples/inputs/bound_reach_query.txt",
        "--format", "json",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["assumed"] is True
    assert "Reach" in payload["bounds"]


def test_cli_analyze_cost_sarif_carries_only_cost_codes(capsys):
    import json

    from repro.cli import main

    code = main([
        "analyze", "cost", "examples/inputs/bound_reach_query.txt",
        "--format", "sarif",
    ])
    sarif = json.loads(capsys.readouterr().out)
    assert code == 0
    rules = {
        r["id"]
        for run in sarif["runs"]
        for r in run["tool"]["driver"]["rules"]
    }
    hit = {
        res["ruleId"] for run in sarif["runs"] for res in run["results"]
    }
    assert hit <= {"I209", "W112", "W113", "W114"}
    assert "I209" in hit


def test_cli_analyze_cost_parse_error_exits_2(tmp_path, capsys):
    from repro.cli import main

    bad = tmp_path / "bad.txt"
    bad.write_text("P(x <- R(x).")
    code = main(["analyze", "cost", str(bad)])
    assert code == 2
    assert "E004" in capsys.readouterr().err
