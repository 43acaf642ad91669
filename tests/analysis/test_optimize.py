"""The certified optimizer: pass-by-pass units and the full pipeline."""

import pytest

from repro.analysis.optimize import (
    DEFAULT_PIPELINE,
    OPTIMIZE_RULE_LIMIT,
    PASSES,
    dead_body_atoms,
    equivalence_witnesses,
    inline_candidates,
    magic_opportunities,
    optimize_program,
    optimized_query_program,
    syntactic_fixpoint_program,
)
from repro.certify import check_certificate
from repro.core import parse_instance, parse_program
from repro.core.datalog import DatalogProgram, DatalogQuery, Rule
from repro.core.evaluation import fixpoint, goal_directed_program
from repro.core.stats import EngineStats

REACH = parse_program(
    """
    Reach(x,y) <- E(x,y).
    Reach(x,y) <- E(x,z), Reach(z,y).
    Goal(y) <- S(x), Reach(x,y).
    Dead(x) <- Z(x).
    """
)


def chain(n: int, source: int) -> "str":
    facts = [f"E({i},{i + 1})." for i in range(n)]
    facts.append(f"S({source}).")
    return " ".join(facts)


# ---------------------------------------------------------------------------
# detectors
# ---------------------------------------------------------------------------
def test_magic_opportunities_found_on_bound_recursion():
    found = magic_opportunities(REACH, "Goal")
    assert "Reach" in found
    assert "bf" in found["Reach"]


def test_magic_opportunities_empty_without_binding():
    program = parse_program(
        """
        Reach(x,y) <- E(x,y).
        Reach(x,y) <- E(x,z), Reach(z,y).
        Goal(x,y) <- Reach(x,y).
        """
    )
    assert magic_opportunities(program, "Goal") == {}


def test_inline_candidates_single_use_nonrecursive():
    program = parse_program(
        """
        Helper(x) <- T(x).
        Goal(x) <- Helper(x), U(x).
        """
    )
    assert inline_candidates(program, "Goal") == ("Helper",)


def test_inline_candidates_excludes_recursive_and_multi_use():
    program = parse_program(
        """
        P(x) <- U(x).
        P(x) <- R(x,y), P(y).
        Twice(x) <- U(x).
        Goal(x) <- P(x), Twice(x).
        Goal(x) <- Twice(x), U(x).
        """
    )
    assert inline_candidates(program, "Goal") == ()


def test_dead_body_atoms_flags_duplicate_atom():
    program = parse_program("Goal(x) <- T(x), T(x).")
    found = dead_body_atoms(program)
    assert len(found) == 2  # each copy is individually droppable
    assert all(atom.pred == "T" for _, _, atom in found)
    assert dead_body_atoms(parse_program("Goal(x) <- T(x), U(x).")) == ()


# ---------------------------------------------------------------------------
# individual passes (through the public pipeline)
# ---------------------------------------------------------------------------
def test_dead_code_drops_unreachable_rule():
    result = optimize_program(REACH, "Goal", ("dead_code",))
    assert result.changed
    preds = {rule.head.pred for rule in result.optimized.rules}
    assert "Dead" not in preds
    assert any(r.action == "drop-rule" for r in result.records)


def test_dead_code_drops_redundant_atom():
    program = parse_program("Goal(x) <- T(x), T(x).")
    result = optimize_program(program, "Goal", ("dead_code",))
    (rule,) = result.optimized.rules
    assert len(rule.body) == 1


def test_specialize_propagates_fact_predicates():
    program = parse_program(
        """
        Color('red').
        Color('blue').
        Goal(x) <- Node(x, c), Color(c).
        """
    )
    result = optimize_program(program, "Goal", ("specialize",))
    assert result.changed
    goal_rules = [
        r for r in result.optimized.rules if r.head.pred == "Goal"
    ]
    assert len(goal_rules) == 2  # one per color
    assert all(
        all(atom.pred != "Color" for atom in rule.body)
        for rule in goal_rules
    )


def test_inline_substitutes_single_use_definition():
    program = parse_program(
        """
        Helper(x) <- T(x), U(x).
        Goal(x) <- Helper(x), W(x).
        """
    )
    result = optimize_program(program, "Goal", ("inline",))
    assert result.changed
    (rule,) = result.optimized.rules
    assert rule.head.pred == "Goal"
    assert {atom.pred for atom in rule.body} == {"T", "U", "W"}


def test_magic_sets_structure_and_equivalence():
    result = optimize_program(REACH, "Goal", ("dead_code", "magic_sets"))
    preds = {rule.head.pred for rule in result.optimized.rules}
    assert "Goal" in preds  # goal keeps its name
    assert any(p.startswith("magic_") for p in preds)
    instance = parse_instance(chain(20, 17))
    before = DatalogQuery(REACH, "Goal").evaluate(instance)
    after = set(
        fixpoint(result.optimized, instance).tuples("Goal")
    )
    assert before == after == {(18,), (19,), (20,)}


def test_magic_sets_reduces_hom_calls_on_bound_goal():
    instance = parse_instance(chain(40, 37))
    optimized = optimized_query_program(REACH, "Goal")
    base_stats, opt_stats = EngineStats(), EngineStats()
    # hom_calls counts the interpreted engine's searches
    fixpoint(
        goal_directed_program(REACH, "Goal"), instance,
        backend="interpreted", stats=base_stats,
    )
    fixpoint(optimized, instance, backend="interpreted", stats=opt_stats)
    assert opt_stats.hom_calls < base_stats.hom_calls


def test_magic_sets_noop_without_opportunity():
    program = parse_program(
        """
        Reach(x,y) <- E(x,y).
        Reach(x,y) <- E(x,z), Reach(z,y).
        Goal(x,y) <- Reach(x,y).
        """
    )
    result = optimize_program(program, "Goal", ("magic_sets",))
    assert not result.changed


def test_syntactic_fixpoint_program_drops_subsumed():
    program = parse_program(
        """
        P(x) <- U(x).
        P(x) <- U(x), R(x,y).
        """
    )
    assert len(syntactic_fixpoint_program(program).rules) == 1


# ---------------------------------------------------------------------------
# pipeline plumbing
# ---------------------------------------------------------------------------
def test_default_pipeline_matches_registry():
    assert DEFAULT_PIPELINE == tuple(PASSES)
    assert set(DEFAULT_PIPELINE) == {
        "dead_code", "specialize", "inline", "magic_sets"
    }


def test_unknown_pass_name_rejected():
    with pytest.raises(ValueError, match="unknown pass"):
        optimize_program(REACH, "Goal", ("nope",))


def test_non_idb_goal_rejected():
    with pytest.raises(ValueError, match="goal"):
        optimize_program(REACH, "E")


def test_result_diff_and_as_dict():
    result = optimize_program(REACH, "Goal")
    removed, added = result.diff()
    assert removed and added
    payload = result.as_dict()
    assert payload["goal"] == "Goal"
    assert payload["changed"] is True
    assert payload["rules_before"] == len(REACH.rules)
    assert [stage["name"] for stage in payload["passes"]] == list(
        DEFAULT_PIPELINE
    )
    assert all("action" in r for s in payload["passes"] for r in s["records"])


def test_provenance_tracks_synthesized_rules():
    from repro.core.parser import Span

    spans = [Span(i + 1, 1) for i in range(len(REACH.rules))]
    result = optimize_program(REACH, "Goal", spans=spans)
    assert len(result.provenance) == len(result.optimized.rules)
    # magic rules are synthesized: no direct span, but derived_from set
    synthesized = [
        prov for prov in result.provenance if prov.span is None
    ]
    assert synthesized
    assert all(p.derived_from is not None for p in synthesized)


def test_transform_records_render_mentions_pass():
    result = optimize_program(REACH, "Goal", ("dead_code",))
    assert all(
        record.render().startswith("[dead_code]")
        for record in result.records
    )


def test_optimized_query_program_is_cached():
    first = optimized_query_program(REACH, "Goal")
    second = optimized_query_program(REACH, "Goal")
    assert first is second


def test_equivalence_witnesses_cover_edbs_only():
    witnesses = equivalence_witnesses(REACH)
    assert witnesses
    idb = REACH.idb_predicates()
    for witness in witnesses:
        assert not (set(witness) & idb)


def test_rule_limit_is_sane():
    assert OPTIMIZE_RULE_LIMIT >= 50


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------
def test_certified_pipeline_emits_valid_certificate():
    result = optimize_program(REACH, "Goal", certify=True)
    assert result.certificate is not None
    outcome = check_certificate(result.certificate)
    assert outcome.valid, outcome.failures
    claims = result.certificate["claims"]
    assert all(c["type"] == "program_equivalence" for c in claims)
    # one claim per pass that changed the program
    changed = [s for s in result.stages if s.changed]
    assert len(claims) == len(changed)


def test_uncertified_pipeline_has_no_certificate():
    assert optimize_program(REACH, "Goal").certificate is None


def test_certificate_catches_wrong_optimized_program():
    from repro.certify import certificate, claim_program_equivalence

    broken = DatalogProgram([
        Rule(rule.head, rule.body)
        for rule in REACH.rules
        if rule.head.pred != "Goal"
    ] + [parse_program("Goal(y) <- S(y).").rules[0]])
    claim = claim_program_equivalence(REACH, broken, "Goal")
    outcome = check_certificate(certificate([claim]))
    assert not outcome.valid
