"""The runner's failure paths: hangs, flakes, crashes, caching, and
the preload that warms job children."""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.core.context import RunConfig
from repro.harness import runner
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


def test_a_job_lingering_after_its_result_is_killed_at_its_deadline():
    """A child that sent its result keeps its slot until it exits; one
    that lingers is killed at its deadline, and its neighbour is never
    held up waiting for that exit."""
    results = run_jobs(
        [
            _job("leaky", "lingering_job", inputs={"seconds": 60.0},
                 timeout=3.0, retries=0),
            _job("quick", "hang_job", inputs={"seconds": 0.3},
                 expected="woke-up"),
        ],
        config=_config(workers=2),
    )
    assert results["quick"].status is JobStatus.OK
    assert results["quick"].duration < 2.0
    assert results["leaky"].status is JobStatus.OK  # its result stands
    assert results["leaky"].duration >= 3.0
    alive = [child.name for child in multiprocessing.active_children()]
    assert "evidence-leaky" not in alive


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


@pytest.mark.parametrize("enabled", [True, False])
def test_the_cache_pass_decodes_with_the_collector_off(tmp_path, enabled):
    """Every hit decodes with the cyclic collector off; the run then
    leaves the collector as it found it, and nothing frozen."""
    cache = ResultCache(tmp_path / "cache", fingerprint="test-fp")
    jobs = [_job("a", "ok_job"), _job("b", "ok_job", deps=("a",))]
    run_jobs(jobs, config=_config(), cache=cache)
    collecting = []
    load = cache.load

    def recording_load(job: Job):
        collecting.append(gc.isenabled())
        return load(job)

    cache.load = recording_load  # type: ignore[method-assign]
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        second = run_jobs(jobs, config=_config(), cache=cache)
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == 0
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert collecting == [False, False]
    assert all(result.cached for result in second.values())


def _fresh_interpreter(script: str, *args: str) -> dict:
    """Run ``script`` in a new interpreter that imports this checkout's
    ``repro`` and ``tests``; its last line of stdout is JSON.  The
    pytest process has imported most of ``repro`` already, which would
    hide what a job child imports."""
    root = Path(__file__).resolve().parents[2]
    src = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(src), str(root))))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        cwd=root, env=env, capture_output=True, text=True, timeout=120,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


#: one ``unloaded_modules_job`` run, with a result cache at ``argv[1]``
PROBE_RUN = """
import json, sys
from repro.harness.cache import ResultCache
from repro.harness.job import Job
from repro.harness.runner import RunnerConfig, run_jobs
cache = ResultCache(sys.argv[1], fingerprint="test-fp") if sys.argv[1:] else None
events = []
results = run_jobs(
    [Job(name="probe", fn="tests.harness.sample_jobs:unloaded_modules_job",
         claim="", expected="warm")],
    RunnerConfig(workers=1, default_timeout=60.0), cache, events.append,
)
probe = results["probe"]
print(json.dumps({
    "status": probe.status.value,
    "cached": probe.cached,
    "missing": probe.metrics.get("missing"),
    "forks": sum(e["event"] == "job_start" for e in events),
    "serve_loaded": "repro.serve.service" in sys.modules,
}))
"""


#: the preload runs only where jobs fork
needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="jobs spawn on this platform",
)


@needs_fork
def test_job_children_start_with_every_repro_module_loaded():
    report = _fresh_interpreter(PROBE_RUN)
    assert report["missing"] == []
    assert report["status"] == "ok"
    assert report["forks"] == 1


def test_a_fully_cached_run_forks_nothing_and_imports_nothing_extra(tmp_path):
    cache_dir = tmp_path / "cache"
    first = _fresh_interpreter(PROBE_RUN, str(cache_dir))
    assert first["forks"] == 1 and not first["cached"]
    second = _fresh_interpreter(PROBE_RUN, str(cache_dir))
    assert second["cached"] and second["status"] == first["status"]
    assert second["forks"] == 0
    assert not second["serve_loaded"]  # no runner path needs it


@needs_fork
def test_a_module_failing_to_preload_spares_jobs_that_do_not_need_it(
    monkeypatch,
):
    attempted = []
    real_import = runner.import_module

    def import_module(name: str):
        attempted.append(name)
        if name == "repro.serve.service":
            raise RuntimeError("broken on import")
        return real_import(name)

    monkeypatch.setattr(runner, "import_module", import_module)
    results = run_jobs([_job("a", "ok_job")], config=_config())
    assert results["a"].status is JobStatus.OK
    assert "repro.serve.service" in attempted
    assert attempted[-1] != "repro.serve.service"  # the walk went on


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
    job = _job("probe", "backend_probe_job", expected="interpreted")
    plain = run_jobs([job], config=_config())
    assert plain["probe"].verdict == "columnar"  # the default engine
    tuned = run_jobs(
        [job], config=_config(run=RunConfig(backend="interpreted"))
    )
    assert tuned["probe"].verdict == "interpreted"
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
