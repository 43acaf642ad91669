"""The command-line interface."""

import pytest

from repro.cli import load_query, load_views, main


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "q_cq.txt").write_text("Q(x) <- R(x,y), S(y).\n")
    (tmp_path / "q_dl.txt").write_text(
        "# goal: Goal\n"
        "P(x) <- U(x).\n"
        "P(x) <- R(x,y), P(y).\n"
        "Goal(x) <- P(x).\n"
    )
    (tmp_path / "views.txt").write_text(
        "# view: VR\nV(x,y) <- R(x,y).\n"
        "# view: VS\nV(y) <- S(y).\n"
    )
    (tmp_path / "views_lossy.txt").write_text(
        "# view: VR\nV(x) <- R(x,y).\n"
        "# view: VS\nV(y) <- S(y).\n"
    )
    (tmp_path / "views_dl.txt").write_text(
        "# view: VR\nV(x,y) <- R(x,y).\n"
        "# view: VU\nV(x) <- U(x).\n"
    )
    (tmp_path / "db.txt").write_text("R('a','b'). S('b').\n")
    (tmp_path / "view_db.txt").write_text("VR('a','b'). VU('b').\n")
    return tmp_path


def test_load_query_cq_and_datalog(workspace):
    cq = load_query(str(workspace / "q_cq.txt"))
    assert cq.arity == 1
    dl = load_query(str(workspace / "q_dl.txt"))
    assert dl.goal == "Goal"


def test_load_views(workspace):
    views = load_views(str(workspace / "views.txt"))
    assert views.names() == ["VR", "VS"]


def test_decide_yes(workspace, capsys):
    code = main([
        "decide", str(workspace / "q_cq.txt"), str(workspace / "views.txt"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict : yes" in out


def test_decide_no_prints_counterexample(workspace, capsys):
    code = main([
        "decide",
        str(workspace / "q_cq.txt"),
        str(workspace / "views_lossy.txt"),
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "verdict : no" in out


def test_rewrite_cq(workspace, capsys):
    code = main([
        "rewrite", str(workspace / "q_cq.txt"), str(workspace / "views.txt"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "VR" in out and "VS" in out


def test_rewrite_datalog(workspace, capsys):
    code = main([
        "rewrite",
        str(workspace / "q_dl.txt"),
        str(workspace / "views_dl.txt"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("# goal:")


def test_rewrite_refuses_lossy(workspace, capsys):
    code = main([
        "rewrite",
        str(workspace / "q_cq.txt"),
        str(workspace / "views_lossy.txt"),
    ])
    assert code == 1
    assert "not rewritable" in capsys.readouterr().err


def test_certain_answers(workspace, capsys):
    code = main([
        "certain",
        str(workspace / "q_dl.txt"),
        str(workspace / "views_dl.txt"),
        str(workspace / "view_db.txt"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "('a',)" in out and "('b',)" in out


def test_eval(workspace, capsys):
    code = main([
        "eval", str(workspace / "q_cq.txt"), str(workspace / "db.txt"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "('a',)" in out


def test_eval_with_stats(workspace, capsys):
    code = main([
        "--stats",
        "eval", str(workspace / "q_dl.txt"), str(workspace / "db.txt"),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "engine stats:" in captured.err
    assert "homomorphism calls" in captured.err
    assert "fixpoint rounds" in captured.err


def test_views_file_without_blocks(workspace, tmp_path):
    empty = tmp_path / "bad.txt"
    empty.write_text("V(x) <- R(x,y).\n")
    with pytest.raises(SystemExit):
        load_views(str(empty))


# ---------------------------------------------------------------------------
# span-aware input errors (decide/rewrite/eval/certain, exit 2)
# ---------------------------------------------------------------------------
def test_decide_syntax_error_reports_position(workspace, tmp_path, capsys):
    bad = tmp_path / "bad_query.txt"
    bad.write_text("Q(x) <- R(x,y).\nS(y) <- T(y,?).\n")
    code = main(["decide", str(bad), str(workspace / "views.txt")])
    err = capsys.readouterr().err
    assert code == 2
    assert "E004" in err
    assert f"{bad}:2:13:" in err  # file coordinates of the bad character
    assert "^" in err             # caret excerpt


def test_eval_broken_instance_reports_position(workspace, tmp_path, capsys):
    bad = tmp_path / "bad_db.txt"
    bad.write_text("R('a','b').\nR('b',.\n")
    code = main(["eval", str(workspace / "q_cq.txt"), str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "E004" in err and f"{bad}:2:" in err


def test_views_error_reports_whole_file_position(workspace, tmp_path, capsys):
    views = tmp_path / "views_bad.txt"
    views.write_text(
        "# view: VR\n"
        "V(x,y) <- R(x,y).\n"
        "# view: VS\n"
        "V(y) <- S(y,\n"
    )
    code = main(["decide", str(workspace / "q_cq.txt"), str(views)])
    err = capsys.readouterr().err
    assert code == 2
    # position is in file coordinates, not block-local: line 4
    assert f"{views}:4:" in err
    assert "^" in err


def test_unsafe_rule_reports_position(workspace, tmp_path, capsys):
    bad = tmp_path / "unsafe.txt"
    bad.write_text("# goal: Q\nQ(x, w) <- R(x, y).\n")
    code = main(["decide", str(bad), str(workspace / "views.txt")])
    err = capsys.readouterr().err
    assert code == 2
    assert "unsafe" in err and f"{bad}:2:" in err


def test_query_without_goal_must_be_single_cq(workspace, tmp_path, capsys):
    bad = tmp_path / "two_rules.txt"
    bad.write_text("Q(x) <- R(x,y).\nP(x) <- R(x,x).\n")
    code = main(["eval", str(bad), str(workspace / "db.txt")])
    err = capsys.readouterr().err
    assert code == 2
    assert "# goal:" in err and f"{bad}:2:" in err


def test_missing_input_file_is_input_error(workspace, capsys):
    code = main([
        "decide", str(workspace / "q_cq.txt"), str(workspace / "ghost.txt"),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert "cannot read" in err and "ghost.txt" in err


def test_undefined_goal_predicate_rejected(workspace, tmp_path, capsys):
    bad = tmp_path / "bad_goal.txt"
    bad.write_text("# goal: Nope\nQ(x) <- R(x,y).\n")
    code = main(["eval", str(bad), str(workspace / "db.txt")])
    err = capsys.readouterr().err
    assert code == 2
    assert "Nope" in err


# ---------------------------------------------------------------------------
# repro lint
# ---------------------------------------------------------------------------
def test_lint_clean_program_exits_zero(workspace, capsys):
    code = main(["lint", str(workspace / "q_dl.txt")])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 error(s), 0 warning(s)" in out
    assert "fragment MDL" in out


def test_lint_broken_example_exits_one(capsys):
    code = main(["lint", "examples/inputs/broken_lint.txt"])
    out = capsys.readouterr().out
    assert code == 1
    # at least two distinct error codes, each with a line:col position
    assert "E001" in out and "E002" in out
    assert ":7:" in out and ":8:" in out


def test_lint_clean_example_file(capsys):
    code = main(["lint", "examples/inputs/reach_query.txt"])
    capsys.readouterr()
    assert code == 0


def test_lint_warning_exit_code_and_strict(tmp_path, capsys):
    query = tmp_path / "warn.txt"
    query.write_text("# goal: Q\nQ(x) <- E(x, y).\nDead(x) <- E(x, x).\n")
    assert main(["lint", str(query)]) == 2
    capsys.readouterr()
    assert main(["lint", str(query), "--strict"]) == 1
    out = capsys.readouterr().out
    assert "W105" in out or "W106" in out


def test_lint_json_is_machine_parseable(capsys):
    import json

    code = main([
        "lint", "examples/inputs/broken_lint.txt", "--format", "json",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["summary"]["errors"] >= 2
    codes = {d["code"] for d in payload["diagnostics"]}
    assert {"E001", "E002"} <= codes
    spanned = [d for d in payload["diagnostics"] if "span" in d]
    assert all(d["span"]["line"] >= 1 for d in spanned)


def test_lint_syntax_error_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("Q(x <- E(x).\n")
    code = main(["lint", str(bad)])
    out = capsys.readouterr().out
    assert code == 1
    assert "E004" in out and ":1:5:" in out


def test_lint_with_views_checks_schema(workspace, tmp_path, capsys):
    views = tmp_path / "views.txt"
    views.write_text("# view: VR\nV(x) <- R(x).\n")  # R/1 vs query's R/2
    code = main([
        "lint", str(workspace / "q_dl.txt"), "--views", str(views),
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "E001" in out


def test_lint_smoke_over_example_inputs(capsys):
    """Every query-shaped example file lints without crashing."""
    from pathlib import Path

    for path in sorted(Path("examples/inputs").glob("*.txt")):
        if "instance" in path.name:
            continue
        code = main(["lint", str(path)])
        capsys.readouterr()
        assert code in (0, 1, 2)


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["evidence", "run", "--shards", "-2"], "--shards"),
        (["analyze", "maintain", "examples/inputs/reach_query.txt",
          "--update-size", "-5"], "--update-size"),
        (["analyze", "shard", "examples/inputs/reach_query.txt",
          "--workers", "-3"], "--workers"),
        (["serve", "--max-delta", "-1", "--once",
          "examples/inputs/serve_session.json"], "--max-delta"),
        (["evidence", "run", "--audit", "cost,vibes"], "--audit"),
        (["evidence", "run", "--timeout", "0"], "--timeout"),
        (["evidence", "run", "--timeout", "-1"], "--timeout"),
        (["evidence", "run", "--timeout", "inf"], "--timeout"),
        (["evidence", "run", "--jobs", "0"], "--jobs"),
        (["evidence", "run", "--jobs", "-3"], "--jobs"),
    ],
)
def test_out_of_range_numbers_and_unknown_audits_exit_2(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err
