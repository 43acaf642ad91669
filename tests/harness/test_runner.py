"""The runner's failure paths: hangs, flakes, crashes, caching."""

from __future__ import annotations

import gc
import time

import pytest

from repro.core.context import RunConfig
from repro.harness.cache import ResultCache
from repro.harness.job import Job, JobStatus
from repro.harness.runner import RunnerConfig, run_jobs

SAMPLES = "tests.harness.sample_jobs"


def _job(name: str, fn: str, **kwargs) -> Job:
    kwargs.setdefault("claim", f"test claim for {name}")
    kwargs.setdefault("expected", "fine")
    return Job(name=name, fn=f"{SAMPLES}:{fn}", **kwargs)


def _config(**kwargs) -> RunnerConfig:
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("default_timeout", 20.0)
    kwargs.setdefault("retry_backoff", 0.01)
    return RunnerConfig(**kwargs)


def test_ok_job_matches_expected():
    results = run_jobs([_job("a", "ok_job")], config=_config())
    assert results["a"].status is JobStatus.OK
    assert results["a"].verdict == "fine"
    assert results["a"].matched
    assert results["a"].attempts == 1


def test_verdict_mismatch_is_not_a_failure():
    job = _job("a", "ok_job", expected="something-else")
    results = run_jobs([job], config=_config())
    assert results["a"].status is JobStatus.MISMATCH
    assert results["a"].verdict == "fine"
    assert results["a"].error is None


def test_hanging_job_is_killed_at_timeout_without_hurting_others():
    events = []
    started = time.monotonic()
    results = run_jobs(
        [
            _job("hang", "hang_job", inputs={"seconds": 60.0},
                 timeout=0.4, retries=0),
            _job("fine", "ok_job"),
        ],
        config=_config(),
        events=events.append,
    )
    wall = time.monotonic() - started
    assert results["hang"].status is JobStatus.TIMEOUT
    assert results["hang"].attempts == 1  # timeouts are not retried
    assert results["fine"].status is JobStatus.OK
    assert wall < 15.0, "the 60s sleep must not run to completion"
    assert any(e["event"] == "job_timeout" for e in events)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    ("fn", "inputs", "status"),
    [
        ("ok_job", {}, JobStatus.OK),
        ("crash_job", {}, JobStatus.FAILED),
        ("hang_job", {"seconds": 60.0}, JobStatus.TIMEOUT),
    ],
)
def test_run_leaves_the_collector_as_it_found_it(fn, inputs, status, enabled):
    """The parent's heap is frozen while a job runs, and thawed after."""
    frozen_at_start = []

    def sink(event: dict) -> None:
        if event["event"] == "job_start":
            frozen_at_start.append(gc.get_freeze_count())

    timeout = 0.4 if status is JobStatus.TIMEOUT else None
    job = _job("a", fn, inputs=inputs, timeout=timeout, retries=0)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        results = run_jobs([job], config=_config(), events=sink)
        assert gc.get_freeze_count() == 0
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert results["a"].status is status
    assert frozen_at_start and all(count > 0 for count in frozen_at_start)


def test_flaky_job_succeeds_on_retry(tmp_path):
    sentinel = tmp_path / "flaky-sentinel"
    events = []
    job = _job(
        "flaky", "flaky_job",
        inputs={"sentinel": str(sentinel)},
        expected="recovered", retries=2,
    )
    results = run_jobs([job], config=_config(), events=events.append)
    assert results["flaky"].status is JobStatus.OK
    assert results["flaky"].attempts == 2
    assert sentinel.exists()
    assert any(e["event"] == "job_retry" for e in events)


def test_crash_poisons_only_its_dependents():
    jobs = [
        _job("bad", "crash_job", retries=1),
        _job("child", "ok_job", deps=("bad",)),
        _job("grandchild", "ok_job", deps=("child",)),
        _job("unrelated", "ok_job"),
    ]
    events = []
    results = run_jobs(jobs, config=_config(), events=events.append)
    assert results["bad"].status is JobStatus.FAILED
    assert results["bad"].attempts == 2  # retried once, then failed
    assert "RuntimeError: boom" in results["bad"].error
    assert results["child"].status is JobStatus.SKIPPED
    assert results["grandchild"].status is JobStatus.SKIPPED
    assert results["unrelated"].status is JobStatus.OK
    skipped = {e["job"] for e in events if e["event"] == "job_skipped"}
    assert skipped == {"child", "grandchild"}


def test_cached_rerun_executes_nothing(tmp_path):
    cache = ResultCache(tmp_path / "cache", fingerprint="test-fp")
    jobs = [
        _job("a", "ok_job"),
        _job("b", "ok_job", deps=("a",)),
    ]
    first_events: list[dict] = []
    first = run_jobs(
        jobs, config=_config(), cache=cache, events=first_events.append
    )
    assert all(r.status is JobStatus.OK for r in first.values())
    assert not any(r.cached for r in first.values())

    second_events: list[dict] = []
    second = run_jobs(
        jobs, config=_config(), cache=cache, events=second_events.append
    )
    assert all(r.status is JobStatus.OK for r in second.values())
    assert all(r.cached for r in second.values())
    assert not any(e["event"] == "job_start" for e in second_events)
    assert sum(
        1 for e in second_events if e["event"] == "job_cached"
    ) == len(jobs)


def test_cache_miss_after_input_change(tmp_path):
    cache = ResultCache(tmp_path / "cache", fingerprint="test-fp")
    run_jobs([_job("a", "ok_job")], config=_config(), cache=cache)
    changed = _job("a", "ok_job", inputs={"verdict": "fine"})
    results = run_jobs([changed], config=_config(), cache=cache)
    assert not results["a"].cached


def test_engine_stats_round_trip_from_worker():
    job = _job("engine", "engine_job", expected="evaluated")
    results = run_jobs([job], config=_config())
    result = results["engine"]
    assert result.status is JobStatus.OK
    assert result.metrics == {"rows": 2}
    assert result.engine["hom_calls"] >= 1
    assert result.engine["rows_scanned"] >= 1


def test_non_dict_return_is_a_failure():
    job = _job("bad", "bad_return_job", retries=0)
    results = run_jobs([job], config=_config())
    assert results["bad"].status is JobStatus.FAILED
    assert "verdict" in results["bad"].error


def test_unknown_dependency_rejected():
    with pytest.raises(ValueError, match="unknown job"):
        run_jobs([_job("a", "ok_job", deps=("ghost",))], config=_config())


def test_dependency_cycle_rejected():
    jobs = [
        _job("a", "ok_job", deps=("b",)),
        _job("b", "ok_job", deps=("a",)),
    ]
    with pytest.raises(ValueError, match="cycle"):
        run_jobs(jobs, config=_config())


def test_duplicate_job_name_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        run_jobs(
            [_job("a", "ok_job"), _job("a", "ok_job")], config=_config()
        )


def test_worker_honors_optimize_config():
    job = _job("probe", "optimize_probe_job", expected="optimized")
    plain = run_jobs([job], config=_config())
    assert plain["probe"].verdict == "plain"
    tuned = run_jobs([job], config=_config(run=RunConfig(optimize=True)))
    assert tuned["probe"].verdict == "optimized"
    assert tuned["probe"].status is JobStatus.OK


def test_worker_honors_backend_config():
    job = _job("probe", "backend_probe_job", expected="columnar")
    plain = run_jobs([job], config=_config())
    assert plain["probe"].verdict == "interpreted"
    tuned = run_jobs([job], config=_config(run=RunConfig(backend="columnar")))
    assert tuned["probe"].verdict == "columnar"
    assert tuned["probe"].status is JobStatus.OK


def test_check_cost_ships_the_guard_summary_back():
    job = _job("fx", "datalog_fixpoint_job", expected="computed")
    results = run_jobs([job], config=_config(run=RunConfig(audits={"cost"})))
    result = results["fx"]
    assert result.status is JobStatus.OK
    assert result.audits is not None
    assert set(result.audits) == {"cost"}
    assert result.audits["cost"]["checks"] >= 1
    assert result.audits["cost"]["predicates"] >= 1
    assert result.audits["cost"]["violations"] == []


def test_cost_payload_absent_without_check_cost():
    job = _job("fx", "datalog_fixpoint_job", expected="computed")
    results = run_jobs([job], config=_config())
    assert results["fx"].audits is None


def test_audit_summary_counts_only_jobs_whose_guard_checked_something():
    """Regression: the summary once counted every job the guard was
    *installed* in, so three jobs with one maintenance workload read
    3/3 instead of 1."""
    from repro.harness.manifest import build_manifest, render_manifest

    jobs = [
        _job("plain", "ok_job"),
        _job("fx", "datalog_fixpoint_job", expected="computed"),
        _job("ivm", "maintenance_job", expected="maintained"),
    ]
    run = RunConfig(audits={"maintain"})
    results = run_jobs(jobs, config=_config(run=run))
    assert all(r.status is JobStatus.OK for r in results.values())
    assert [results[j.name].audits["maintain"]["checks"] for j in jobs] == [
        0, 0, 2,
    ]
    manifest = build_manifest(
        jobs, results, wall_seconds=1.0, workers=2, default_timeout=20.0,
        code_fingerprint="fp", cache_used=False, run=run,
    )
    assert manifest["summary"]["audits"] == {
        "maintain": {"jobs": 1, "checks": 2, "violations": 0}
    }
    assert "audit maintain: 2 check(s) in 1/3 job(s)" in (
        render_manifest(manifest)
    )


def test_auto_backend_resolutions_travel_in_the_result():
    job = _job("fx", "datalog_fixpoint_job", expected="computed")
    results = run_jobs([job], config=_config(run=RunConfig(backend="auto")))
    resolutions = results["fx"].backend_resolution
    assert resolutions  # at least the one fixpoint the job runs
    for entry in resolutions:
        assert entry["backend"] in ("interpreted", "columnar")
        assert entry["volume"] >= 0
        assert entry["threshold"] > 0


def test_backend_resolution_absent_off_auto():
    job = _job("fx", "datalog_fixpoint_job", expected="computed")
    results = run_jobs([job], config=_config(run=RunConfig(backend="columnar")))
    assert results["fx"].backend_resolution is None


def test_check_cost_composes_with_the_auto_backend():
    job = _job("fx", "datalog_fixpoint_job", expected="computed")
    results = run_jobs(
        [job],
        config=_config(run=RunConfig(backend="auto", audits={"cost"})),
    )
    result = results["fx"]
    assert result.status is JobStatus.OK
    assert result.audits["cost"]["violations"] == []
    assert result.backend_resolution
