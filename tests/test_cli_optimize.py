"""CLI surface of the certified optimizer: optimize, lint --format sarif,
decide --optimize."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def reach_workspace(tmp_path):
    (tmp_path / "reach.txt").write_text(
        "# goal: Goal\n"
        "Reach(x,y) <- E(x,y).\n"
        "Reach(x,y) <- E(x,z), Reach(z,y).\n"
        "Goal(y) <- S(x), Reach(x,y).\n"
        "Dead(x) <- Z(x).\n"
    )
    (tmp_path / "q_cq.txt").write_text("Q(x) <- R(x,y), S(y).\n")
    (tmp_path / "views.txt").write_text(
        "# view: VR\nV(x,y) <- R(x,y).\n"
        "# view: VS\nV(y) <- S(y).\n"
    )
    return tmp_path


def test_optimize_text_output(reach_workspace, capsys):
    code = main(["optimize", str(reach_workspace / "reach.txt")])
    out = capsys.readouterr().out
    assert code == 0
    assert "# goal: Goal" in out
    assert "[dead_code]" in out
    assert "magic_" in out  # the rewritten program is printed


def test_optimize_json_output(reach_workspace, capsys):
    code = main([
        "optimize", str(reach_workspace / "reach.txt"), "--format", "json",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["goal"] == "Goal"
    assert payload["changed"] is True
    assert [s["name"] for s in payload["passes"]]
    assert isinstance(payload["diagnostics"], list)


def test_optimize_pass_selection(reach_workspace, capsys):
    code = main([
        "optimize", str(reach_workspace / "reach.txt"),
        "--passes", "dead_code",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "magic_" not in out


def test_optimize_unknown_pass_rejected(reach_workspace, capsys):
    code = main([
        "optimize", str(reach_workspace / "reach.txt"), "--passes", "nope",
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown pass" in err


def test_optimize_rejects_cq_input(reach_workspace, capsys):
    code = main(["optimize", str(reach_workspace / "q_cq.txt")])
    assert code == 2
    assert "Datalog query" in capsys.readouterr().err


def test_optimize_emit_certificate_validates(reach_workspace, capsys):
    cert_path = reach_workspace / "cert.json"
    code = main([
        "optimize", str(reach_workspace / "reach.txt"),
        "--emit-certificate", str(cert_path),
    ])
    err = capsys.readouterr().err
    assert code == 0
    assert "valid" in err
    certificate = json.loads(cert_path.read_text())
    assert certificate["schema"] == 3
    assert all(
        claim["type"] == "program_equivalence"
        for claim in certificate["claims"]
    )
    from repro.certify import check_certificate

    assert check_certificate(certificate).valid


def test_lint_sarif_output(reach_workspace, capsys):
    code = main([
        "lint", str(reach_workspace / "reach.txt"),
        "--format", "sarif", "--semantic",
    ])
    assert code == 2  # the Dead rule warns (W105/W106)
    report = json.loads(capsys.readouterr().out)
    assert report["version"] == "2.1.0"
    (run,) = report["runs"]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert {"I207", "I208", "W111"} <= rule_ids
    result_ids = {r["ruleId"] for r in run["results"]}
    assert "I207" in result_ids  # magic applicable on bound Reach


def test_lint_sarif_syntax_error(reach_workspace, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("P(x <- R(x).\n")
    code = main(["lint", str(bad), "--format", "sarif"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    (run,) = report["runs"]
    (result,) = run["results"]
    assert result["ruleId"] == "E004"
    assert result["level"] == "error"


def test_decide_optimize_flag(reach_workspace, capsys):
    code = main([
        "decide", str(reach_workspace / "q_cq.txt"),
        str(reach_workspace / "views.txt"), "--optimize",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict : yes" in out
