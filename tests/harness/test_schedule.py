"""The evidence runner's launch order: whenever a worker slot frees, a
ready job flagged heavy goes first, the rest in the order given, and no
job starts before its dependencies have ended.

Each run uses one worker, so the event log is the launch order."""

from __future__ import annotations

from repro.harness.job import Job, JobStatus
from repro.harness.runner import RunnerConfig, run_jobs


def job(name: str, **kw) -> Job:
    return Job(
        name=name, fn="tests.harness.sample_jobs:ok_job",
        claim="c", expected="fine", **kw,
    )


def _run(jobs: list[Job]) -> list[dict]:
    events: list[dict] = []
    results = run_jobs(
        jobs, config=RunnerConfig(workers=1, default_timeout=20.0),
        events=events.append,
    )
    assert all(r.status is JobStatus.OK for r in results.values())
    return events


def _started(events: list[dict]) -> list[str]:
    return [e["job"] for e in events if e["event"] == "job_start"]


def test_schedule_puts_the_heaviest_ready_job_first():
    events = _run([job("cheap"), job("wide", heavy=True), job("late")])
    assert _started(events) == ["wide", "cheap", "late"]


def test_schedule_never_reorders_across_dependencies():
    jobs = [
        job("light"),
        job("after-light", deps=("light",), heavy=True),
        job("heavy", heavy=True),
        job("late"),
        job("after-heavy", deps=("heavy",)),
    ]
    events = _run(jobs)
    assert _started(events) == [
        "heavy", "light", "after-light", "late", "after-heavy",
    ]
    deps = {j.name: set(j.deps) for j in jobs}
    ended: set[str] = set()
    for event in events:
        if event["event"] == "job_start":
            assert deps[event["job"]] <= ended, event["job"]
        elif event["event"] == "job_end":
            ended.add(event["job"])
