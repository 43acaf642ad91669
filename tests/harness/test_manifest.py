"""Manifest assembly: verdict diffing, stats merging, exit gating."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.context import RunConfig
from repro.harness.events import EventLog, read_events
from repro.harness.job import Job, JobResult, JobStatus
from repro.harness.manifest import (
    build_manifest,
    load_manifest,
    manifest_exit_code,
    render_manifest,
    write_manifest,
)


def _job(name: str, **kwargs) -> Job:
    kwargs.setdefault("fn", "m:f")
    kwargs.setdefault("claim", f"claim {name}")
    kwargs.setdefault("expected", "fine")
    return Job(name=name, **kwargs)


def _build(jobs, results):
    return build_manifest(
        jobs, results,
        wall_seconds=1.25, workers=2, default_timeout=30.0,
        code_fingerprint="fp", cache_used=True,
    )


def test_manifest_counts_and_mismatch_diff():
    jobs = [_job("a"), _job("b"), _job("c"), _job("d")]
    results = {
        "a": JobResult("a", JobStatus.OK, "fine", verdict="fine"),
        "b": JobResult("b", JobStatus.MISMATCH, "fine", verdict="off"),
        "c": JobResult("c", JobStatus.TIMEOUT, "fine"),
        "d": JobResult("d", JobStatus.SKIPPED, "fine"),
    }
    manifest = _build(jobs, results)
    summary = manifest["summary"]
    assert summary["total"] == 4
    assert summary["ok"] == 1
    assert summary["mismatch"] == 1
    assert summary["timeout"] == 1
    assert summary["skipped"] == 1
    assert manifest["mismatches"] == [{
        "job": "b", "expected": "fine", "measured_verdict": "off",
    }]
    assert manifest_exit_code(manifest) == 1


def test_manifest_green_run_exits_zero():
    jobs = [_job("a")]
    results = {"a": JobResult("a", JobStatus.OK, "fine", verdict="fine")}
    manifest = _build(jobs, results)
    assert manifest_exit_code(manifest) == 0


def test_manifest_merges_engine_stats_across_jobs():
    jobs = [_job("a"), _job("b")]
    results = {
        "a": JobResult(
            "a", JobStatus.OK, "fine", verdict="fine",
            engine={"hom_calls": 3, "phase_seconds": {"x": 0.5}},
        ),
        "b": JobResult(
            "b", JobStatus.OK, "fine", verdict="fine",
            engine={"hom_calls": 4, "phase_seconds": {"x": 0.25}},
        ),
    }
    manifest = _build(jobs, results)
    totals = manifest["engine_totals"]
    assert totals["hom_calls"] == 7
    assert totals["phase_seconds"] == {"x": 0.75}


def test_manifest_carries_claim_tags_deps():
    jobs = [_job("a", tags=("table1",), deps=())]
    results = {"a": JobResult("a", JobStatus.OK, "fine", verdict="fine")}
    manifest = _build(jobs, results)
    entry = manifest["jobs"]["a"]
    assert entry["claim"] == "claim a"
    assert entry["tags"] == ["table1"]


def test_missing_result_is_defensively_skipped():
    manifest = _build([_job("a")], {})
    assert manifest["jobs"]["a"]["status"] == "skipped"
    assert manifest_exit_code(manifest) == 1


def test_render_mentions_statuses_and_summary():
    jobs = [_job("good"), _job("bad")]
    results = {
        "good": JobResult("good", JobStatus.OK, "fine", verdict="fine"),
        "bad": JobResult("bad", JobStatus.MISMATCH, "fine", verdict="off"),
    }
    text = render_manifest(_build(jobs, results))
    assert "OK" in text and "MISMATCH" in text
    assert "expected 'fine', measured 'off'" in text
    assert "1/2 ok" in text


def test_manifest_records_optimize_flag():
    jobs = [_job("a")]
    results = {
        "a": JobResult(
            "a", JobStatus.OK, "fine", verdict="fine",
            engine={"hom_calls": 2},
        ),
    }
    assert _build(jobs, results)["optimize"] is False
    manifest = build_manifest(
        jobs, results,
        wall_seconds=1.0, workers=1, default_timeout=30.0,
        code_fingerprint="fp", cache_used=False,
        run=RunConfig(optimize=True),
    )
    assert manifest["optimize"] is True
    assert "optimized" in render_manifest(manifest)


def test_manifest_baseline_engine_delta():
    jobs = [_job("a")]

    def result(hom):
        return {
            "a": JobResult(
                "a", JobStatus.OK, "fine", verdict="fine",
                engine={"hom_calls": hom, "search_steps": 5},
            ),
        }

    base = build_manifest(
        jobs, result(100),
        wall_seconds=1.0, workers=1, default_timeout=30.0,
        code_fingerprint="fp", cache_used=False,
    )
    tuned = build_manifest(
        jobs, result(40),
        wall_seconds=1.0, workers=1, default_timeout=30.0,
        code_fingerprint="fp", cache_used=False,
        run=RunConfig(optimize=True), baseline=base,
    )
    block = tuned["baseline"]
    assert block["engine_delta"]["hom_calls"] == -60
    assert block["engine_delta"]["search_steps"] == 0
    assert block["optimize"] is False
    text = render_manifest(tuned)
    assert "vs baseline" in text
    assert "hom_calls -60" in text


def test_manifest_json_round_trip(tmp_path):
    jobs = [_job("a")]
    results = {"a": JobResult("a", JobStatus.OK, "fine", verdict="fine")}
    manifest = _build(jobs, results)
    path = tmp_path / "out" / "manifest.json"
    write_manifest(manifest, path)
    assert load_manifest(path) == manifest
    assert "\n" not in path.read_text()  # compact: the C encoder's output


def test_manifest_write_failing_midway_keeps_the_previous_file(
    tmp_path, monkeypatch
):
    manifest = _build(
        [_job("a")],
        {"a": JobResult("a", JobStatus.OK, "fine", verdict="fine")},
    )
    path = tmp_path / "manifest.json"
    write_manifest(manifest, path)
    write_text = Path.write_text

    def half_then_fail(self, data, *args, **kwargs):
        write_text(self, data[: len(data) // 2], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        write_manifest({**manifest, "workers": 9}, path)
    monkeypatch.undo()
    assert load_manifest(path) == manifest
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]


def test_event_log_round_trip(tmp_path):
    path = tmp_path / "events.jsonl"
    with EventLog(path) as log:
        log({"event": "run_start", "jobs": 2})
        log({"event": "job_end", "job": "a", "status": "ok"})
    events = read_events(path)
    assert [e["event"] for e in events] == ["run_start", "job_end"]
    assert all("ts" in e for e in events)
    # bad lines are skipped, not fatal
    path.write_text(path.read_text() + "not json\n")
    assert len(read_events(path)) == 2


def test_manifest_schema_is_nine():
    from repro.harness.manifest import MANIFEST_SCHEMA

    jobs = [_job("a")]
    results = {"a": JobResult("a", JobStatus.OK, "fine", verdict="fine")}
    assert MANIFEST_SCHEMA == 9
    assert _build(jobs, results)["schema"] == 9


def _cost_result(name, violations):
    return JobResult(
        name, JobStatus.OK, "fine", verdict="fine",
        audits={"cost": {
            "checks": 2, "predicates": 3, "violations": violations,
        }},
    )


def test_manifest_cost_summary_green():
    jobs = [_job("a"), _job("b")]
    results = {
        "a": _cost_result("a", []),
        "b": _cost_result("b", []),
    }
    manifest = build_manifest(
        jobs, results,
        wall_seconds=1.0, workers=2, default_timeout=30.0,
        code_fingerprint="fp", cache_used=False,
        run=RunConfig(audits={"cost"}),
    )
    assert manifest["audits"] == ["cost"]
    assert manifest["summary"]["audits"] == {
        "cost": {"jobs": 2, "checks": 4, "violations": 0}
    }
    assert manifest["audit_violations"] == []
    assert manifest_exit_code(manifest) == 0
    rendered = render_manifest(manifest)
    assert "audit cost: 4 check(s) in 2/2 job(s), 0 violation(s)" in rendered
    assert "cost ok (2 checks)" in rendered
    # each job line names its job, not the audit it carries
    job_lines = [line.split() for line in rendered.splitlines()]
    assert [words[1] for words in job_lines if words[0] == "OK"] == ["a", "b"]


def test_manifest_cost_violation_gates_the_exit_code():
    violation = {
        "pred": "T", "measured": 9, "bound": 4,
        "basis": "recursive", "recursive": True,
    }
    jobs = [_job("a")]
    results = {"a": _cost_result("a", [violation])}
    manifest = build_manifest(
        jobs, results,
        wall_seconds=1.0, workers=2, default_timeout=30.0,
        code_fingerprint="fp", cache_used=False,
        run=RunConfig(audits={"cost"}),
    )
    assert manifest["summary"]["audits"]["cost"] == {
        "jobs": 1, "checks": 2, "violations": 1,
    }
    assert manifest["audit_violations"] == [
        {"job": "a", "audit": "cost", "violations": [violation]}
    ]
    assert manifest_exit_code(manifest) == 1
    rendered = render_manifest(manifest)
    assert "cost bound VIOLATED: T measured 9 > bound 4" in rendered


def test_manifest_without_check_cost_has_no_cost_summary():
    jobs = [_job("a")]
    results = {"a": JobResult("a", JobStatus.OK, "fine", verdict="fine")}
    manifest = _build(jobs, results)
    assert manifest["audits"] == []
    assert "audits" not in manifest["summary"]
    assert manifest_exit_code(manifest) == 0


def test_job_result_cost_fields_round_trip():
    result = JobResult(
        "a", JobStatus.OK, "fine", verdict="fine",
        audits={"cost": {"checks": 1, "predicates": 2, "violations": []}},
    )
    thawed = JobResult.from_dict(result.as_dict())
    assert thawed.audits == result.audits


def _ivm_result(name, rounds):
    return JobResult(
        name, JobStatus.OK, "fine", verdict="fine",
        ivm={"rounds": rounds, "inserted": 5, "deleted": 2,
             "rederived": 1, "speedup": 3.4},
    )


def test_job_result_ivm_block_round_trips():
    result = _ivm_result("a", rounds=7)
    thawed = JobResult.from_dict(result.as_dict())
    assert thawed.ivm == result.ivm
    # schema-5 payloads (no ivm key) thaw to None, not a crash
    legacy = result.as_dict()
    del legacy["ivm"]
    assert JobResult.from_dict(legacy).ivm is None


def test_manifest_ivm_summary_and_render():
    jobs = [_job("a"), _job("b"), _job("c")]
    results = {
        "a": _ivm_result("a", rounds=7),
        "b": _ivm_result("b", rounds=3),
        "c": JobResult("c", JobStatus.OK, "fine", verdict="fine"),
    }
    manifest = _build(jobs, results)
    assert manifest["summary"]["ivm_jobs"] == 2
    assert manifest["summary"]["ivm_rounds"] == 10
    rendered = render_manifest(manifest)
    assert "ivm 7 rounds" in rendered
    assert "2 job(s) maintained materializations across 10" in rendered


def test_manifest_without_ivm_jobs_has_no_ivm_summary():
    jobs = [_job("a")]
    results = {"a": JobResult("a", JobStatus.OK, "fine", verdict="fine")}
    manifest = _build(jobs, results)
    assert "ivm_jobs" not in manifest["summary"]
    assert "ivm" not in render_manifest(manifest)


def test_manifest_baseline_delta_covers_ivm_counters():
    jobs = [_job("a")]

    def result(rounds):
        return {
            "a": JobResult(
                "a", JobStatus.OK, "fine", verdict="fine",
                engine={"ivm_rounds": rounds, "ivm_inserted": 4 * rounds},
            ),
        }

    base = build_manifest(
        jobs, result(2),
        wall_seconds=1.0, workers=1, default_timeout=30.0,
        code_fingerprint="fp", cache_used=False,
    )
    incremental = build_manifest(
        jobs, result(10),
        wall_seconds=1.0, workers=1, default_timeout=30.0,
        code_fingerprint="fp", cache_used=False, baseline=base,
    )
    delta = incremental["baseline"]["engine_delta"]
    assert delta["ivm_rounds"] == 8
    assert delta["ivm_inserted"] == 32


def _maintain_result(name, violations):
    return JobResult(
        name, JobStatus.OK, "fine", verdict="fine",
        audits={"maintain": {
            "checks": 4, "predicates": 8,
            "strategies": {"counting": 2, "dred": 2},
            "violations": violations,
        }},
    )


def test_manifest_maintain_summary_green():
    jobs = [_job("a"), _job("b")]
    results = {
        "a": _maintain_result("a", []),
        "b": _maintain_result("b", []),
    }
    manifest = build_manifest(
        jobs, results,
        wall_seconds=1.0, workers=2, default_timeout=30.0,
        code_fingerprint="fp", cache_used=False,
        run=RunConfig(audits={"maintain"}),
    )
    assert manifest["audits"] == ["maintain"]
    assert manifest["summary"]["audits"] == {
        "maintain": {"jobs": 2, "checks": 8, "violations": 0}
    }
    assert manifest["audit_violations"] == []
    assert manifest_exit_code(manifest) == 0
    rendered = render_manifest(manifest)
    assert "audit maintain: 8 check(s) in 2/2 job(s)" in rendered
    assert "maintain ok (4 checks)" in rendered


def test_manifest_maintain_delta_violation_gates_the_exit_code():
    violation = {
        "kind": "delta", "pred": "Reach", "measured": 40,
        "bound": 12, "update_size": 1, "basis": "dred churn",
    }
    jobs = [_job("a")]
    results = {"a": _maintain_result("a", [violation])}
    manifest = build_manifest(
        jobs, results,
        wall_seconds=1.0, workers=2, default_timeout=30.0,
        code_fingerprint="fp", cache_used=False,
        run=RunConfig(audits={"maintain"}),
    )
    assert manifest["summary"]["audits"]["maintain"]["violations"] == 1
    assert manifest["audit_violations"] == [
        {"job": "a", "audit": "maintain", "violations": [violation]}
    ]
    assert manifest_exit_code(manifest) == 1
    rendered = render_manifest(manifest)
    assert "maintain delta VIOLATED" in rendered


def test_manifest_maintain_strategy_violation_renders():
    violation = {
        "kind": "strategy", "pred": "Reach",
        "planned": "dred", "actual": "counting",
    }
    jobs = [_job("a")]
    results = {"a": _maintain_result("a", [violation])}
    manifest = build_manifest(
        jobs, results,
        wall_seconds=1.0, workers=2, default_timeout=30.0,
        code_fingerprint="fp", cache_used=False,
        run=RunConfig(audits={"maintain"}),
    )
    assert manifest_exit_code(manifest) == 1
    rendered = render_manifest(manifest)
    assert "maintain strategy VIOLATED" in rendered


def test_manifest_without_check_maintenance_has_no_maintain_summary():
    jobs = [_job("a")]
    results = {"a": JobResult("a", JobStatus.OK, "fine", verdict="fine")}
    manifest = _build(jobs, results)
    assert "audits" not in manifest["summary"]
    assert manifest_exit_code(manifest) == 0


def test_maintain_block_round_trips_through_job_result():
    result = _maintain_result("a", [])
    clone = JobResult.from_dict(result.as_dict())
    assert clone.audits == result.audits


def _shard_result(name, violations):
    return JobResult(
        name, JobStatus.OK, "fine", verdict="fine",
        audits={"shard": {
            "checks": 3, "strata": 2, "facts": 400,
            "violations": violations,
        }},
    )


def test_manifest_shard_summary_green():
    jobs = [_job("a"), _job("b")]
    results = {
        "a": _shard_result("a", []),
        "b": _shard_result("b", []),
    }
    manifest = build_manifest(
        jobs, results,
        wall_seconds=1.0, workers=2, default_timeout=30.0,
        code_fingerprint="fp", cache_used=False,
        run=RunConfig(shards=4, audits={"shard"}),
    )
    assert manifest["shards"] == 4
    assert manifest["audits"] == ["shard"]
    assert manifest["summary"]["audits"] == {
        "shard": {"jobs": 2, "checks": 6, "violations": 0}
    }
    assert manifest["audit_violations"] == []
    assert manifest_exit_code(manifest) == 0
    text = render_manifest(manifest)
    assert "shard ok (3 checks)" in text
    assert "audit shard: 6 check(s) in 2/2 job(s), 0 violation(s)" in text


def test_manifest_shard_violation_gates_the_exit_code():
    violation = {
        "kind": "boundary", "stratum": 0, "pred": "Reach",
        "fact": "(7, 0, 1)", "worker": 1, "owner": 0,
    }
    jobs = [_job("a")]
    results = {"a": _shard_result("a", [violation])}
    manifest = build_manifest(
        jobs, results,
        wall_seconds=1.0, workers=2, default_timeout=30.0,
        code_fingerprint="fp", cache_used=False,
        run=RunConfig(shards=2, audits={"shard"}),
    )
    assert manifest["summary"]["audits"]["shard"]["violations"] == 1
    assert manifest["audit_violations"] == [
        {"job": "a", "audit": "shard", "violations": [violation]}
    ]
    assert manifest_exit_code(manifest) == 1
    text = render_manifest(manifest)
    assert "shard VIOLATED" in text
    assert "shard boundary VIOLATED" in text
    assert "hashes to 0" in text


def test_manifest_without_check_sharding_has_no_shard_summary():
    jobs = [_job("a")]
    results = {"a": JobResult("a", JobStatus.OK, "fine", verdict="fine")}
    manifest = _build(jobs, results)
    assert manifest["shards"] == 0
    assert manifest["audits"] == []
    assert "audits" not in manifest["summary"]
    assert manifest_exit_code(manifest) == 0


def test_shard_block_round_trips_through_job_result():
    result = _shard_result("a", [])
    clone = JobResult.from_dict(result.as_dict())
    assert clone.audits == result.audits


def test_manifest_baseline_delta_covers_shard_counters():
    jobs = [_job("a")]

    def result(exchanged):
        return {
            "a": JobResult(
                "a", JobStatus.OK, "fine", verdict="fine",
                engine={
                    "shard_workers": 2,
                    "shard_exchanged_rows": exchanged,
                    "shard_local_rounds": exchanged // 10,
                },
            ),
        }

    base = build_manifest(
        jobs, result(100),
        wall_seconds=1.0, workers=1, default_timeout=30.0,
        code_fingerprint="fp", cache_used=False,
    )
    sharded = build_manifest(
        jobs, result(40),
        wall_seconds=1.0, workers=1, default_timeout=30.0,
        code_fingerprint="fp", cache_used=False, baseline=base,
    )
    delta = sharded["baseline"]["engine_delta"]
    assert delta["shard_exchanged_rows"] == -60
    assert delta["shard_local_rounds"] == -6
