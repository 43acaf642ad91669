"""``python -m repro evidence {list,run,report}`` end to end.

The ``run`` tests execute one real (fast) evidence job through the
whole stack — registry → worker process → cache → manifest — twice, so
the cached path is covered at the CLI level too.
"""

from __future__ import annotations

import json

from repro.cli import main


def test_evidence_list_text(capsys):
    code = main(["evidence", "list"])
    out = capsys.readouterr().out
    assert code == 0
    assert "t1-cq-rewriting" in out
    assert "t2-undecidable-reduction" in out
    assert "fig5-lemma3-treewidth" in out
    assert "job(s)" in out


def test_evidence_list_json_filtered(capsys):
    code = main(["evidence", "list", "--filter", "fig4", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    names = {job["name"] for job in payload["jobs"]}
    # fig4 plus its dependency, pulled in for DAG consistency
    assert names == {"fig4-long-row", "fig3-unravelled-counterexample"}
    by_name = {job["name"]: job for job in payload["jobs"]}
    assert by_name["fig4-long-row"]["expected"] == "no-embedding"


def test_evidence_run_and_report_round_trip(tmp_path, capsys):
    out_dir = tmp_path / "out"
    cache_dir = tmp_path / "cache"
    args = [
        "evidence", "run",
        "--filter", "t1-cq-rewriting",
        "--jobs", "1",
        "--timeout", "120",
        "--cache-dir", str(cache_dir),
        "--out-dir", str(out_dir),
    ]
    code = main(args)
    out = capsys.readouterr().out
    assert code == 0
    assert "OK" in out and "t1-cq-rewriting" in out

    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["summary"]["ok"] == manifest["summary"]["total"] == 1
    assert manifest["jobs"]["t1-cq-rewriting"]["verdict"] == "cq-rewriting"
    assert manifest["jobs"]["t1-cq-rewriting"]["matched"] is True
    assert manifest["mismatches"] == []
    assert (out_dir / "events.jsonl").exists()

    # second run: the cache answers, nothing re-executes
    code = main(args)
    out = capsys.readouterr().out
    assert code == 0
    assert "cached" in out
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["summary"]["cached"] == 1

    # report re-renders and re-gates the stored manifest
    code = main(["evidence", "report", str(out_dir)])
    out = capsys.readouterr().out
    assert code == 0
    assert "t1-cq-rewriting" in out and "summary:" in out


def test_evidence_run_json_format(tmp_path, capsys):
    code = main([
        "evidence", "run",
        "--filter", "fig3-chain-and-image",
        "--jobs", "2",
        "--no-cache",
        "--out-dir", str(tmp_path / "out"),
        "--format", "json",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["jobs"]["fig3-chain-and-image"]["status"] == "ok"
    assert payload["cache_used"] is False


def test_evidence_run_unknown_filter_is_usage_error(tmp_path, capsys):
    code = main([
        "evidence", "run",
        "--filter", "no-such-job",
        "--out-dir", str(tmp_path / "out"),
    ])
    assert code == 2
    assert "no jobs match" in capsys.readouterr().err


def test_evidence_report_missing_manifest(tmp_path, capsys):
    code = main(["evidence", "report", str(tmp_path / "nowhere")])
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_evidence_report_rejects_an_older_schema(tmp_path, capsys):
    """A schema-8 manifest kept its audit violations in fields this
    version does not read; reporting it green would hide a red run."""
    manifest = {
        "schema": 8,
        "jobs": {"t1-cq-rewriting": {"status": "ok"}},
        "mismatches": [],
        "cost_violations": [{
            "job": "t1-cq-rewriting",
            "violations": [{
                "pred": "T", "measured": 9, "bound": 4,
                "basis": "head shapes", "recursive": True,
            }],
        }],
        "summary": {
            "total": 1, "ok": 1, "cost_checked": 1, "cost_ok": 0,
        },
    }
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    code = main(["evidence", "report", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "schema 8" in err and "schema 9" in err


def test_evidence_run_optimize_with_baseline(tmp_path, capsys):
    base_dir = tmp_path / "base"
    opt_dir = tmp_path / "opt"
    common = [
        "evidence", "run",
        "--filter", "t1-cq-rewriting",
        "--jobs", "1",
        "--timeout", "120",
        "--no-cache",
    ]
    assert main(common + ["--out-dir", str(base_dir)]) == 0
    capsys.readouterr()
    code = main(common + [
        "--out-dir", str(opt_dir),
        "--optimize",
        "--baseline", str(base_dir),
    ])
    out = capsys.readouterr().out
    assert code == 0
    manifest = json.loads((opt_dir / "manifest.json").read_text())
    assert manifest["optimize"] is True
    baseline = manifest["baseline"]
    assert baseline["optimize"] is False
    assert set(baseline["engine_delta"]) == {
        "hom_calls", "search_steps", "rows_scanned",
        "fixpoint_rounds", "facts_derived",
        "join_build_rows", "join_probe_rows", "join_output_rows",
        "ivm_rounds", "ivm_inserted", "ivm_deleted", "ivm_rederived",
        "maintain_counting_strata", "maintain_dred_strata",
        "maintain_skipped_rederive",
        "shard_workers", "shard_exchanged_rows", "shard_local_rounds",
    }
    assert baseline["backend"] == "interpreted"
    assert manifest["backend"] == "interpreted"
    assert "vs baseline" in out


def test_evidence_run_optimize_salts_the_cache(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    common = [
        "evidence", "run",
        "--filter", "t1-cq-rewriting",
        "--jobs", "1",
        "--timeout", "120",
        "--cache-dir", str(cache_dir),
    ]
    assert main(common + ["--out-dir", str(tmp_path / "a")]) == 0
    capsys.readouterr()
    # an optimized run must not reuse the plain run's cache entries
    assert main(common + ["--out-dir", str(tmp_path / "b"), "--optimize"]) == 0
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert manifest["summary"]["cached"] == 0
    capsys.readouterr()
    # but a second optimized run does hit the (salted) cache
    assert main(common + ["--out-dir", str(tmp_path / "c"), "--optimize"]) == 0
    manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
    assert manifest["summary"]["cached"] == 1


def test_evidence_run_backend_keys_the_cache(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    common = [
        "evidence", "run",
        "--filter", "t1-cq-rewriting",
        "--jobs", "1",
        "--timeout", "120",
        "--cache-dir", str(cache_dir),
    ]
    assert main(common + ["--out-dir", str(tmp_path / "a")]) == 0
    capsys.readouterr()
    # a columnar run must not reuse the interpreted run's entries
    assert main(common + [
        "--out-dir", str(tmp_path / "b"), "--backend", "columnar",
    ]) == 0
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert manifest["summary"]["cached"] == 0
    assert manifest["backend"] == "columnar"
    capsys.readouterr()
    # but a second columnar run hits the columnar-mode entries
    assert main(common + [
        "--out-dir", str(tmp_path / "c"), "--backend", "columnar",
    ]) == 0
    manifest = json.loads((tmp_path / "c" / "manifest.json").read_text())
    assert manifest["summary"]["cached"] == 1
    capsys.readouterr()
    # and the interpreted entries are still intact, not clobbered
    assert main(common + ["--out-dir", str(tmp_path / "d")]) == 0
    manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
    assert manifest["summary"]["cached"] == 1
    assert manifest["backend"] == "interpreted"


def test_evidence_run_columnar_with_certificates(tmp_path, capsys):
    """The columnar backend's verdicts survive the independent checker,
    and its join counters reach the manifest's engine totals."""
    code = main([
        "evidence", "run",
        "--filter", "t1-cq-rewriting",
        "--jobs", "1",
        "--timeout", "120",
        "--no-cache",
        "--out-dir", str(tmp_path / "out"),
        "--backend", "columnar",
        "--check-certificates",
    ])
    assert code == 0
    capsys.readouterr()
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["backend"] == "columnar"
    assert manifest["summary"]["certified"] == manifest["summary"]["total"]


def test_evidence_run_unreadable_baseline_is_usage_error(tmp_path, capsys):
    code = main([
        "evidence", "run",
        "--filter", "t1-cq-rewriting",
        "--out-dir", str(tmp_path / "out"),
        "--baseline", str(tmp_path / "nowhere"),
    ])
    assert code == 2
    assert "baseline" in capsys.readouterr().err


def test_evidence_run_check_cost_end_to_end(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main([
        "evidence", "run",
        "--filter", "t1-cq-rewriting",
        "--jobs", "1",
        "--timeout", "120",
        "--no-cache",
        "--audit", "cost",
        "--out-dir", str(out_dir),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "audit cost:" in out
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["audits"] == ["cost"]
    totals = manifest["summary"]["audits"]["cost"]
    assert totals["jobs"] > 0 and totals["violations"] == 0
    assert manifest["audit_violations"] == []
    for job in manifest["jobs"].values():
        if job["status"] == "ok":
            assert job["audits"]["cost"]["violations"] == []


def test_evidence_run_check_cost_keys_the_cache(tmp_path, capsys):
    cache_dir = tmp_path / "cache"
    common = [
        "evidence", "run",
        "--filter", "t1-cq-rewriting",
        "--jobs", "1",
        "--timeout", "120",
        "--cache-dir", str(cache_dir),
    ]
    assert main(common + ["--out-dir", str(tmp_path / "a")]) == 0
    capsys.readouterr()
    # a cost-audited run must re-execute (cached results carry no audit)
    assert main(common + [
        "--out-dir", str(tmp_path / "b"), "--audit", "cost",
    ]) == 0
    manifest = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert manifest["summary"]["cached"] == 0
    assert manifest["summary"]["audits"]["cost"]["jobs"] > 0
