"""The shardability analysis: classification, keys, guard, CLI."""

from __future__ import annotations

import json

import pytest

from repro.analysis.shard import (
    COMMUNICATION_FREE,
    EXCHANGE_REQUIRED,
    SEQUENTIAL,
    ShardGuard,
    shard_of,
    shard_report,
)
from repro.core import parse_program
from repro.core.context import RunConfig, current, running
from repro.core.instance import Instance


def _tenant_program():
    return parse_program(
        """
        Reach(g,x,y) <- E(g,x,y).
        Reach(g,x,y) <- E(g,x,z), Reach(g,z,y).
        """
    )


def _tc_program():
    return parse_program(
        """
        Reach(x,y) <- E(x,y).
        Reach(x,y) <- E(x,z), Reach(z,y).
        """
    )


# ---------------------------------------------------------------------------
# routing function
# ---------------------------------------------------------------------------
def test_shard_of_is_deterministic_and_in_range():
    values = [0, 1, "a", None, (1, 2), ("a", None), 3.5, True]
    for shards in (1, 2, 3, 7):
        for value in values:
            owner = shard_of(value, shards)
            assert 0 <= owner < shards
            # stable across calls (unlike salted hash())
            assert owner == shard_of(value, shards)


def test_shard_of_zero_shards_is_zero():
    assert shard_of("anything", 0) == 0


def test_shard_of_distinguishes_values():
    owners = {shard_of(i, 4) for i in range(64)}
    assert len(owners) == 4  # all shards get traffic


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------
def test_tenant_reachability_is_communication_free():
    report = shard_report(_tenant_program())
    plan = report.plan_of("Reach")
    assert plan is not None
    assert plan.classification == COMMUNICATION_FREE
    assert dict(plan.keys) == {"E": 0, "Reach": 0}
    assert report.communication_free == 1
    assert report.exchange_required == 0


def test_plain_transitive_closure_requires_exchange():
    report = shard_report(_tc_program())
    plan = report.plan_of("Reach")
    assert plan is not None
    assert plan.classification == EXCHANGE_REQUIRED
    assert plan.exchange_bound > 0
    assert report.total_exchange_bound >= plan.exchange_bound


def test_exchange_bound_scales_with_workers():
    two = shard_report(_tc_program(), workers=2).plan_of("Reach")
    five = shard_report(_tc_program(), workers=5).plan_of("Reach")
    assert two is not None and five is not None
    # bound is |Reach| * (workers - 1)
    assert five.exchange_bound == 4 * two.exchange_bound


def test_zero_ary_head_is_sequential():
    report = shard_report(parse_program("Hit() <- E(x,y)."))
    plan = report.plan_of("Hit")
    assert plan is not None
    assert plan.classification == SEQUENTIAL
    assert "variable-free head" in plan.shard_basis


def test_cartesian_body_is_sequential():
    report = shard_report(parse_program("P(x,y) <- U(x), V(y)."))
    plan = report.plan_of("P")
    assert plan is not None
    assert plan.classification == SEQUENTIAL


def test_pivot_must_survive_every_body_atom():
    # g reaches the head but is absent from the second body atom, so
    # no consistent key exists
    report = shard_report(parse_program(
        """
        P(g,y) <- E(g,x), F(x,y).
        """
    ))
    plan = report.plan_of("P")
    assert plan is not None
    assert plan.classification == EXCHANGE_REQUIRED


def test_mixed_strata_classify_independently():
    report = shard_report(parse_program(
        """
        Reach(g,x,y) <- E(g,x,y).
        Reach(g,x,y) <- E(g,x,z), Reach(g,z,y).
        Pairs(x,y) <- U(x), V(y).
        """
    ))
    classes = report.classification()
    assert classes["Reach"] == COMMUNICATION_FREE
    assert classes["Pairs"] == SEQUENTIAL
    assert report.sequential == 1


def test_instance_parameters_drive_the_bounds():
    edges = [(i, i + 1) for i in range(9)]
    inst = Instance.from_tuples({"E": edges})
    measured = shard_report(_tc_program(), instance=inst, workers=2)
    assumed = shard_report(_tc_program(), workers=2)
    assert measured.parameters.assumed is False
    m = measured.plan_of("Reach")
    a = assumed.plan_of("Reach")
    assert m is not None and a is not None
    assert m.exchange_bound != a.exchange_bound


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------
def test_render_text_names_every_stratum():
    text = shard_report(_tenant_program(), workers=3).render_text()
    assert "shardability plan for 3 worker(s)" in text
    assert "communication_free" in text
    assert "partition keys: E[0], Reach[0]" in text


def test_as_dict_round_trips_to_json():
    report = shard_report(_tc_program(), workers=2)
    payload = json.loads(json.dumps(report.as_dict()))
    assert payload["workers"] == 2
    assert payload["exchange_required"] == 1
    kinds = {s["classification"] for s in payload["strata"]}
    assert kinds == {EXCHANGE_REQUIRED}


# ---------------------------------------------------------------------------
# guard
# ---------------------------------------------------------------------------
def _commfree_plan():
    return shard_report(_tenant_program(), workers=2).plan_of("Reach")


def test_guard_accepts_conformant_partition():
    plan = _commfree_plan()
    assert plan is not None
    per_worker = {
        shard_of(g, 2): [("Reach", (g, 0, 1))] for g in range(8)
    }
    guard = ShardGuard()
    guard.check_stratum(plan, 2, per_worker)
    summary = guard.summary()
    assert summary["checks"] == 1
    assert summary["strata"] == 1
    assert summary["facts"] == len(per_worker)
    assert summary["violations"] == []


def test_guard_flags_a_fact_on_the_wrong_shard():
    plan = _commfree_plan()
    assert plan is not None
    owner = shard_of(7, 2)
    wrong = 1 - owner
    guard = ShardGuard()
    guard.check_stratum(plan, 2, {wrong: [("Reach", (7, 0, 1))]})
    violations = guard.summary()["violations"]
    assert len(violations) == 1
    assert violations[0]["kind"] == "boundary"
    assert violations[0]["pred"] == "Reach"
    assert violations[0]["worker"] == wrong
    assert violations[0]["owner"] == owner


def test_guard_only_audits_communication_free_strata():
    plan = shard_report(_tc_program(), workers=2).plan_of("Reach")
    assert plan is not None and plan.classification == EXCHANGE_REQUIRED
    guard = ShardGuard()
    guard.check_stratum(plan, 2, {0: [("Reach", (0, 1))]})
    summary = guard.summary()
    assert summary["checks"] == 1
    assert summary["strata"] == 0  # nothing to audit
    assert summary["violations"] == []


def test_sharding_checking_installs_and_restores_the_guard():
    assert "shard" not in current().audits
    with running(RunConfig(audits={"shard"})) as run:
        guard = current().audits["shard"]
        assert isinstance(guard, ShardGuard)
        assert run.audits["shard"] is guard
    assert "shard" not in current().audits


def test_set_shard_guard_returns_previous():
    """A nested run gets its own guard; leaving it restores the
    enclosing run's."""
    with running(RunConfig(audits={"shard"})):
        first = current().audits["shard"]
        with running(RunConfig(audits={"shard"})):
            second = current().audits["shard"]
            assert second is not first
        assert current().audits["shard"] is first


# ---------------------------------------------------------------------------
# CLI: repro analyze shard
# ---------------------------------------------------------------------------
def test_cli_analyze_shard_text(capsys):
    from repro.cli import main

    code = main(["analyze", "shard", "examples/inputs/reach_query.txt"])
    out = capsys.readouterr().out
    assert code == 0
    assert "shardability plan for 4 worker(s)" in out
    assert "exchange_required" in out


def test_cli_analyze_shard_workers_and_instance(capsys):
    from repro.cli import main

    code = main([
        "analyze", "shard", "examples/inputs/reach_query.txt",
        "--instance", "examples/inputs/flights_instance.txt",
        "--workers", "8",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "8 worker(s)" in out
    assert "measured parameters" in out


def test_cli_analyze_shard_json(capsys):
    from repro.cli import main

    code = main([
        "analyze", "shard", "examples/inputs/reach_query.txt",
        "--format", "json",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["workers"] == 4
    assert {s["classification"] for s in payload["strata"]} == {
        COMMUNICATION_FREE, EXCHANGE_REQUIRED,
    }


def test_cli_analyze_shard_sarif_carries_only_shard_codes(capsys):
    from repro.cli import main

    code = main([
        "analyze", "shard", "examples/inputs/reach_query.txt",
        "--format", "sarif",
    ])
    sarif = json.loads(capsys.readouterr().out)
    assert code == 0
    hit = {
        res["ruleId"] for run in sarif["runs"] for res in run["results"]
    }
    assert hit <= {"I213", "I214", "I215", "W118", "W119"}
    assert "I213" in hit


def test_cli_analyze_shard_parse_error_exits_2(tmp_path, capsys):
    from repro.cli import main

    bad = tmp_path / "bad.txt"
    bad.write_text("P(x <- R(x).")
    code = main(["analyze", "shard", str(bad)])
    assert code == 2
    assert "E004" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["cost", "maintain", "shard"])
def test_cli_analyze_subcommands_share_exit_conventions(
    command, tmp_path, capsys
):
    """The shared `cmd_analyze` plumbing must keep the exact exit
    codes for all three subcommands: 0 on success for every format,
    2 on any unreadable input."""
    from repro.cli import main

    for fmt in ("text", "json", "sarif"):
        code = main([
            "analyze", command, "examples/inputs/reach_query.txt",
            "--format", fmt,
        ])
        capsys.readouterr()
        assert code == 0, f"{command} --format {fmt}"
    code = main(["analyze", command, str(tmp_path / "missing.txt")])
    capsys.readouterr()
    assert code == 2
