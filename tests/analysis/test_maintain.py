"""Unit behaviour of :mod:`repro.analysis.maintain`.

Classification (counting-safe / DRed / insert-monotone), delta bounds,
the guard, the semantic diagnostics (I210–I212, W115–W117) and the
``repro analyze maintain`` CLI, including the span-aware error paths
shared with ``analyze cost``.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.analyzer import analyze_query
from repro.analysis.maintain import (
    MaintainReport,
    MaintenanceGuard,
    maintain_report,
)
from repro.core import parse_instance, parse_program
from repro.core.context import RunConfig, current, running

REACH = parse_program(
    """
    Reach(x,y) <- E(x,y).
    Reach(x,y) <- E(x,z), Reach(z,y).
    """
)

VACUOUS_RECURSIVE = parse_program(
    """
    Direct(x,y) <- E(x,y).
    Direct(x,y) <- E(x,y), Direct(x,y).
    """
)

NONRECURSIVE = parse_program("Pair(x,y) <- R(x,y), S(y).")


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------
def test_nonrecursive_stratum_is_counting_safe():
    report = maintain_report(NONRECURSIVE)
    plan = report.plan_of("Pair")
    assert plan is not None
    assert not plan.recursive
    assert plan.counting_safe
    assert plan.strategy == "counting"
    assert report.counting_strata == 1 and report.dred_strata == 0


def test_genuine_recursion_demands_dred():
    report = maintain_report(REACH)
    plan = report.plan_of("Reach")
    assert plan.recursive
    assert not plan.counting_safe
    assert plan.strategy == "dred"
    assert report.dred_strata == 1


def test_vacuous_recursion_is_proved_counting_safe():
    """The recursive rule is subsumed by the base rule, so after
    peeling the stratum has no effective same-SCC dependency."""
    report = maintain_report(VACUOUS_RECURSIVE)
    plan = report.plan_of("Direct")
    assert plan.recursive
    assert plan.counting_safe
    assert plan.strategy == "counting"
    # the vacuous rule is gone from the effective set
    assert list(plan.effective_rule_indices) == [0]


def test_append_only_edb_makes_strata_insert_monotone():
    plain = maintain_report(REACH)
    assert not plain.plan_of("Reach").insert_monotone
    append = maintain_report(REACH, append_only=frozenset({"E"}))
    plan = append.plan_of("Reach")
    assert plan.insert_monotone
    assert plan.self_maintainable
    assert "E" not in append.retraction_sources


def test_strategies_and_classification_are_json_stable():
    report = maintain_report(REACH)
    assert report.strategies() == {"Reach": "dred"}
    claims = report.classification()
    assert claims == json.loads(json.dumps(claims))
    assert claims["strategies"] == {"Reach": "dred"}
    assert claims["counting_safe"] == []


# ---------------------------------------------------------------------------
# delta bounds
# ---------------------------------------------------------------------------
def test_edb_delta_equals_update_size():
    report = maintain_report(REACH, update_size=3)
    assert report.bound_of("E").bound == 3


def test_bounds_grow_with_update_size():
    small = maintain_report(REACH, update_size=1)
    large = maintain_report(REACH, update_size=5)
    assert large.bound_of("Reach").bound >= small.bound_of("Reach").bound
    assert large.total_delta_bound >= small.total_delta_bound


def test_measured_parameters_tighten_the_bounds():
    base = parse_instance("E('a','b'). E('b','c').")
    measured = maintain_report(REACH, instance=base)
    assumed = maintain_report(REACH)
    assert not measured.parameters.assumed
    assert assumed.parameters.assumed
    assert (
        measured.bound_of("Reach").bound <= assumed.bound_of("Reach").bound
    )


def test_counting_bound_carries_per_rule_provenance():
    report = maintain_report(VACUOUS_RECURSIVE)
    db = report.bound_of("Direct")
    assert db.per_rule  # (rule_index, contribution) pairs
    assert all(len(pair) == 2 for pair in db.per_rule)


def test_report_round_trips_and_renders():
    report = maintain_report(REACH, update_size=2)
    payload = report.as_dict()
    assert payload == json.loads(json.dumps(payload))
    assert payload["update_size"] == 2
    assert "Reach" in payload["bounds"]
    text = report.render_text()
    assert "maintainability analysis" in text
    assert "dred" in text


def test_zero_update_on_append_only_means_zero_edb_delta():
    report = maintain_report(
        REACH, update_size=0, append_only=frozenset({"E"})
    )
    assert report.bound_of("E").bound == 0


# ---------------------------------------------------------------------------
# the guard
# ---------------------------------------------------------------------------
def test_guard_sees_clean_rounds_via_the_ambient_hook():
    from repro.ivm import MaterializedView

    base = parse_instance("E('a','b').")
    view = MaterializedView(REACH, base)
    assert "maintain" not in current().audits
    with running(RunConfig(audits={"maintain"})) as run:
        guard = current().audits["maintain"]
        assert isinstance(guard, MaintenanceGuard)
        view.insert([("E", ("b", "c"))])
        view.retract([("E", ("b", "c"))])
    assert "maintain" not in current().audits
    summary = run.summaries()["maintain"]
    assert summary["checks"] == 2
    assert summary["violations"] == []
    assert summary["strategies"]["dred"] >= 1


def test_guard_summary_shape():
    guard = MaintenanceGuard()
    summary = guard.summary()
    assert set(summary) == {
        "checks", "predicates", "strategies", "violations"
    }


# ---------------------------------------------------------------------------
# semantic diagnostics
# ---------------------------------------------------------------------------
def _codes(program, goal=None):
    report = analyze_query(program, goal=goal, semantic=True)
    return {d.code for d in report.diagnostics}


def test_semantic_pass_emits_maintenance_plan_codes():
    codes = _codes(REACH, goal="Reach")
    assert "I210" in codes  # maintenance plan summary
    assert "I212" in codes  # delta bound summary


def test_self_maintainable_stratum_gets_i211():
    codes = _codes(VACUOUS_RECURSIVE, goal="Direct")
    assert "I211" in codes


def test_dred_on_counting_safe_stratum_would_warn_w116():
    codes = _codes(VACUOUS_RECURSIVE, goal="Direct")
    assert "W116" in codes


def test_amplification_risk_warns_w115():
    # recursive DRed stratum whose relation bound (adom^2) exceeds adom
    codes = _codes(REACH, goal="Reach")
    assert "W115" in codes


def test_semantic_report_carries_the_maintain_block():
    report = analyze_query(REACH, goal="Reach", semantic=True)
    assert isinstance(report.maintain, MaintainReport)
    assert "maintain" in report.as_dict()


# ---------------------------------------------------------------------------
# CLI: repro analyze maintain
# ---------------------------------------------------------------------------
def test_cli_analyze_maintain_text(capsys):
    from repro.cli import main

    code = main(["analyze", "maintain", "examples/inputs/reach_query.txt"])
    out = capsys.readouterr().out
    assert code == 0
    assert "maintainability analysis (assumed parameters" in out


def test_cli_analyze_maintain_with_instance(capsys):
    from repro.cli import main

    code = main([
        "analyze", "maintain", "examples/inputs/reach_query.txt",
        "--instance", "examples/inputs/flights_instance.txt",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "measured parameters" in out


def test_cli_analyze_maintain_json_update_size(capsys):
    from repro.cli import main

    code = main([
        "analyze", "maintain", "examples/inputs/reach_query.txt",
        "--format", "json", "--update-size", "4",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["update_size"] == 4
    assert "Reach" in payload["bounds"]


def test_cli_analyze_maintain_append_only(capsys):
    from repro.cli import main

    code = main([
        "analyze", "maintain", "examples/inputs/reach_query.txt",
        "--format", "json", "--append-only", "E",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert "E" not in payload["retraction_sources"]


def test_cli_analyze_maintain_sarif_carries_only_maintain_codes(capsys):
    from repro.cli import main

    code = main([
        "analyze", "maintain", "examples/inputs/reach_query.txt",
        "--format", "sarif",
    ])
    sarif = json.loads(capsys.readouterr().out)
    assert code == 0
    hit = {
        res["ruleId"] for run in sarif["runs"] for res in run["results"]
    }
    assert hit <= {"I210", "I211", "I212", "W115", "W116", "W117"}
    assert "I210" in hit


def test_cli_analyze_maintain_parse_error_exits_2(tmp_path, capsys):
    from repro.cli import main

    bad = tmp_path / "bad.txt"
    bad.write_text("P(x <- R(x).")
    code = main(["analyze", "maintain", str(bad)])
    assert code == 2
    assert "E004" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["cost", "maintain", "shard"])
def test_cli_analyze_binary_query_file_exits_2(command, tmp_path, capsys):
    """A non-UTF-8 query file is an input error with a position, not a
    traceback (the UnicodeDecodeError regression)."""
    from repro.cli import main

    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe\x00P(x) <- R(x).")
    code = main(["analyze", command, str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "not valid UTF-8" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["cost", "maintain", "shard"])
def test_cli_analyze_binary_instance_exits_2(command, tmp_path, capsys):
    from repro.cli import main

    bad = tmp_path / "bad_instance.bin"
    bad.write_bytes(b"\x93\x00\x01binary")
    code = main([
        "analyze", command, "examples/inputs/reach_query.txt",
        "--instance", str(bad),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "not valid UTF-8" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["cost", "maintain", "shard"])
def test_cli_analyze_missing_instance_exits_2(command, capsys):
    from repro.cli import main

    code = main([
        "analyze", command, "examples/inputs/reach_query.txt",
        "--instance", "examples/inputs/does_not_exist.txt",
    ])
    assert code == 2
    assert capsys.readouterr().err.strip()
