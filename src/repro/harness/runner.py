"""Parallel, fault-tolerant execution of the evidence job DAG.

Each job runs in its own worker process (not a shared pool) so a
hanging job can be killed at its wall-clock deadline without poisoning
a pool worker.  The runner keeps at most ``workers`` processes
alive, launches jobs as their dependencies reach ``OK`` (ready jobs
flagged ``heavy`` first, the rest in the order given), retries
crashed jobs with linear backoff, and on a terminal failure marks every
transitive dependent ``SKIPPED`` — one bad cell never takes down the
rest of the table.

Where jobs fork, the parent imports every module of the ``repro``
package once, right before its first fork, so each job child starts
with its code already loaded instead of importing it cold (the usual
fork-server preload).  A run whose every job is a cache hit forks
nothing and so imports nothing extra.

Decision procedures here are non-elementary in the worst case
(ROADMAP/PODS 2020), so bounded execution is a correctness feature:
``TIMEOUT`` is a first-class verdict, not a hang.
"""

from __future__ import annotations

import contextlib
import gc
import multiprocessing
from multiprocessing.connection import Connection, wait
import pkgutil
import time
import traceback
from dataclasses import dataclass, field
from importlib import import_module
from typing import Any, Callable, Iterable, Optional, Sequence

import repro
from repro.core.context import RunConfig, running
from repro.core.stats import EngineStats
from repro.harness.cache import ResultCache
from repro.harness.job import Job, JobResult, JobStatus

EventSink = Callable[[dict], None]


@dataclass
class RunnerConfig:
    """Knobs for one run; CLI flags map onto these fields."""

    workers: int = 4
    default_timeout: float = 120.0    # seconds per job attempt
    retry_backoff: float = 0.25       # seconds * attempt number
    run: RunConfig = field(default_factory=RunConfig)  # how jobs evaluate


def _worker(
    fn_ref: str,
    inputs: dict[str, Any],
    conn: Connection,
    run: RunConfig,
) -> None:
    """Child-process entry: resolve the job fn, run it, ship the result.

    Everything crossing the pipe is plain dicts of JSON-ready values;
    :class:`EngineStats` travels as ``to_dict()`` and is merged back in
    the parent (the whole point of the round-trip API).

    The job runs inside one fresh :func:`~repro.core.context.running`
    block for ``run`` — not in the run context a forked child inherits
    from its parent — so every ``fixpoint``/``evaluate`` call inside it
    evaluates with the run's backend, optimizer and shard count, and
    job functions need no signature change.  Each audit the run
    installs ships its guard's tally back under ``audits``, keyed by
    the audit's name.
    """
    try:
        job_fn = Job(
            name="<worker>", fn=fn_ref, claim="", expected=""
        ).resolve()
        stats = EngineStats()
        with running(run, stats) as ctx:
            payload = job_fn(**inputs)
        if not isinstance(payload, dict) or "verdict" not in payload:
            raise TypeError(
                f"job function {fn_ref!r} must return a dict with a "
                f"'verdict' key, got {type(payload).__name__}"
            )
        conn.send({
            "verdict": str(payload["verdict"]),
            "measured": str(payload.get("measured", "")),
            "metrics": payload.get("metrics", {}),
            "engine": stats.to_dict(),
            "certificate": payload.get("certificate"),
            "ivm": payload.get("ivm"),
            "audits": ctx.summaries() or None,
        })
    except BaseException:
        with contextlib.suppress(Exception):
            conn.send({"error": traceback.format_exc()})
    finally:
        conn.close()


def _preload() -> None:
    """Import every module of the :mod:`repro` package, skipping
    ``repro.__main__`` (importing it runs the CLI).

    A module whose import raises is skipped: it then fails only the
    jobs that need it, in their own children.
    """
    for info in pkgutil.walk_packages(
        repro.__path__, "repro.", onerror=lambda name: None
    ):
        if info.name != "repro.__main__":
            with contextlib.suppress(Exception):
                import_module(info.name)


@dataclass
class _Running:
    job: Job
    process: multiprocessing.process.BaseProcess
    conn: Connection
    deadline: float
    started: float
    attempt: int
    payload: Optional[dict[str, Any]] = None  # what the child sent


@dataclass
class _Pending:
    job: Job
    attempt: int = 1
    not_before: float = 0.0
    waiting_on: set[Any] = field(default_factory=set)


class _NullSink:
    def __call__(self, event: dict[str, Any]) -> None:
        pass


def _toposort_check(jobs: Sequence[Job]) -> None:
    """Reject unknown dependencies and cycles up front."""
    by_name = {job.name: job for job in jobs}
    if len(by_name) != len(jobs):
        seen: set[str] = set()
        for job in jobs:
            if job.name in seen:
                raise ValueError(f"duplicate job name {job.name!r}")
            seen.add(job.name)
    for job in jobs:
        for dep in job.deps:
            if dep not in by_name:
                raise ValueError(
                    f"job {job.name!r} depends on unknown job {dep!r}"
                )
    state: dict[str, int] = {}  # 0 = visiting, 1 = done

    def visit(name: str, stack: tuple[str, ...]) -> None:
        mark = state.get(name)
        if mark == 1:
            return
        if mark == 0:
            cycle = " -> ".join((*stack[stack.index(name):], name))
            raise ValueError(f"dependency cycle: {cycle}")
        state[name] = 0
        for dep in by_name[name].deps:
            visit(dep, (*stack, name))
        state[name] = 1

    for job in jobs:
        visit(job.name, ())


def run_jobs(
    jobs: Iterable[Job],
    config: Optional[RunnerConfig] = None,
    cache: Optional[ResultCache] = None,
    events: Optional[EventSink] = None,
) -> dict[str, JobResult]:
    """Execute ``jobs`` respecting dependencies; returns name -> result.

    Never raises for job-level trouble: crashes, timeouts and verdict
    mismatches all land in the returned :class:`JobResult` objects (and
    in the event stream).  Raises only for a malformed DAG.

    Jobs fork where the platform can, else spawn.  When a job is left
    to fork after the cache pass, the parent first imports the whole
    ``repro`` package, once, after the ``run_start`` event (spawned
    children re-import everything anyway, so spawn skips it).  Before
    each fork the parent freezes its heap (the :mod:`gc` docs' recipe
    for fork without exec), so no collector re-walks the modules and
    results it holds; the cache pass decodes with the collector off
    and freezes its hits the same way.  The run unfreezes the heap
    when it ends.

    Ready jobs flagged ``heavy`` launch first; the rest launch in the
    order given.

    A job's slot frees when its child exits, not when its result
    arrives: a child that delivers and lingers is killed at its
    deadline, and the result it sent stands.  ``duration_s`` runs from
    launch to the child's exit.  No child outlives the call.
    """
    jobs = list(jobs)
    _toposort_check(jobs)
    config = config or RunnerConfig()
    emit = events or _NullSink()

    method = (
        "fork" if "fork" in multiprocessing.get_all_start_methods()
        else "spawn"
    )
    ctx = multiprocessing.get_context(method)

    dependents: dict[str, list[str]] = {job.name: [] for job in jobs}
    for job in jobs:
        for dep in job.deps:
            dependents[dep].append(job.name)

    results: dict[str, JobResult] = {}
    # launch order: heavy jobs first, otherwise as given (a stable sort)
    pending: dict[str, _Pending] = {
        job.name: _Pending(job, waiting_on=set(job.deps))
        for job in sorted(jobs, key=lambda job: not job.heavy)
    }
    running: dict[str, _Running] = {}

    def skip_dependents(name: str, reason: str) -> None:
        """Transitively mark everything downstream of ``name`` SKIPPED."""
        frontier = list(dependents[name])
        while frontier:
            child = frontier.pop()
            if child not in pending:
                continue
            entry = pending.pop(child)
            results[child] = JobResult(
                name=child,
                status=JobStatus.SKIPPED,
                expected=entry.job.expected,
                measured=f"skipped: dependency {name} {reason}",
            )
            emit({
                "event": "job_skipped",
                "job": child,
                "cause": name,
                "reason": reason,
            })
            frontier.extend(dependents[child])

    def settle(name: str, result: JobResult) -> None:
        results[name] = result
        if result.status.is_success:
            for child in dependents[name]:
                if child in pending:
                    pending[child].waiting_on.discard(name)
        else:
            skip_dependents(name, result.status.value)

    def launch(entry: _Pending) -> None:
        job = entry.job
        recv, send = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_worker,
            args=(job.fn, dict(job.inputs), send, config.run),
            # not daemonic: a daemonic process may not have children,
            # and sharded fixpoints spawn a worker pool inside the job
            daemon=False,
            name=f"evidence-{job.name}",
        )
        now = time.monotonic()
        timeout = (
            job.timeout if job.timeout is not None
            else config.default_timeout
        )
        gc.freeze()
        process.start()
        send.close()  # parent keeps only the read end
        running[job.name] = _Running(
            job=job,
            process=process,
            conn=recv,
            deadline=now + timeout,
            started=now,
            attempt=entry.attempt,
        )
        emit({
            "event": "job_start",
            "job": job.name,
            "attempt": entry.attempt,
            "timeout_s": timeout,
            "pid": process.pid,
        })

    def kill(entry: _Running) -> None:
        entry.process.terminate()
        entry.process.join(timeout=1.0)
        if entry.process.is_alive():
            entry.process.kill()
            entry.process.join(timeout=1.0)
        entry.conn.close()

    def retry_or_fail(
        entry: _Running, status: JobStatus, error: Optional[str]
    ) -> None:
        job = entry.job
        # a timeout is never retried: a hang usually hangs again
        if status is JobStatus.FAILED and entry.attempt <= job.retries:
            delay = config.retry_backoff * entry.attempt
            pending[job.name] = _Pending(
                job, attempt=entry.attempt + 1,
                not_before=time.monotonic() + delay,
            )
            emit({
                "event": "job_retry",
                "job": job.name,
                "attempt": entry.attempt,
                "backoff_s": delay,
                "status": status.value,
            })
            return
        duration = time.monotonic() - entry.started
        result = JobResult(
            name=job.name,
            status=status,
            expected=job.expected,
            duration=duration,
            attempts=entry.attempt,
            error=error,
            measured=(
                f"killed after {duration:.1f}s"
                if status is JobStatus.TIMEOUT
                else "crashed"
            ),
        )
        emit({
            "event": "job_end",
            "job": job.name,
            "status": status.value,
            "attempt": entry.attempt,
            "duration_s": round(duration, 4),
        })
        settle(job.name, result)

    emit({
        "event": "run_start",
        "jobs": len(jobs),
        "workers": config.workers,
        "start_method": method,
        "cache": cache is not None,
    })

    try:
        # cache pass: settle hits before any process is spawned, in
        # dependency order so a hit can unblock a dependent's hit check.
        # Decoding an entry builds many small containers, each of which
        # would count toward a collection that re-walks all the hits
        # decoded so far: the collector stays off meanwhile, and the
        # hits are frozen out of its later passes
        if cache is not None:
            collecting = gc.isenabled()
            gc.disable()
            try:
                progressed = True
                while progressed:
                    progressed = False
                    for name in list(pending):
                        entry = pending[name]
                        if entry.waiting_on:
                            continue
                        hit = cache.load(entry.job)
                        if hit is None:
                            continue
                        hit.status = (
                            JobStatus.OK if hit.matched
                            else JobStatus.MISMATCH
                        )
                        del pending[name]
                        emit({
                            "event": "job_cached",
                            "job": name,
                            "verdict": hit.verdict,
                            "matched": hit.matched,
                        })
                        settle(name, hit)
                        progressed = True
            finally:
                if collecting:
                    gc.enable()
            gc.freeze()

        if method == "fork" and pending:
            _preload()

        while pending or running:
            now = time.monotonic()
            # launch everything ready while worker slots are free
            for name in list(pending):
                if len(running) >= config.workers:
                    break
                entry = pending[name]
                if entry.waiting_on or entry.not_before > now:
                    continue
                del pending[name]
                launch(entry)

            # block until a worker reports or exits, or until the nearest
            # kill deadline or retry backoff falls due
            wakes = [entry.deadline for entry in running.values()] + [
                entry.not_before for entry in pending.values()
                if not entry.waiting_on and entry.not_before > now
            ]
            timeout = max(0.0, min(wakes) - now)
            if not running:
                time.sleep(timeout)
                continue
            wait(
                [entry.conn for entry in running.values()
                 if entry.payload is None]
                + [entry.process.sentinel for entry in running.values()],
                timeout,
            )
            now = time.monotonic()
            for name in list(running):
                entry = running[name]
                job = entry.job
                if entry.payload is None:
                    try:
                        delivered = entry.conn.poll()
                    except (OSError, EOFError):
                        delivered = False
                    if delivered:
                        try:
                            entry.payload = entry.conn.recv()
                        except (OSError, EOFError):
                            entry.payload = {
                                "error": "worker pipe closed mid-send"
                            }
                        entry.conn.close()
                payload = entry.payload
                if payload is not None:
                    # the slot frees when the child exits; one that
                    # lingers past its deadline is killed, and the result
                    # it sent stands
                    if entry.process.is_alive():
                        if now < entry.deadline:
                            continue
                        kill(entry)
                    del running[name]
                    if "error" in payload:
                        retry_or_fail(
                            entry, JobStatus.FAILED, payload["error"]
                        )
                        continue
                    duration = time.monotonic() - entry.started
                    verdict = payload["verdict"]
                    result = JobResult(
                        name=name,
                        status=(
                            JobStatus.OK if verdict == job.expected
                            else JobStatus.MISMATCH
                        ),
                        expected=job.expected,
                        verdict=verdict,
                        measured=payload.get("measured", ""),
                        metrics=payload.get("metrics", {}),
                        engine=payload.get("engine", {}),
                        duration=duration,
                        attempts=entry.attempt,
                        certificate=payload.get("certificate"),
                        ivm=payload.get("ivm"),
                        audits=payload.get("audits"),
                    )
                    if cache is not None:
                        cache.store(job, result)
                    emit({
                        "event": "job_end",
                        "job": name,
                        "status": result.status.value,
                        "verdict": verdict,
                        "matched": result.matched,
                        "attempt": entry.attempt,
                        "duration_s": round(duration, 4),
                    })
                    settle(name, result)
                elif now >= entry.deadline:
                    del running[name]
                    kill(entry)
                    emit({
                        "event": "job_timeout",
                        "job": name,
                        "attempt": entry.attempt,
                        "after_s": round(now - entry.started, 4),
                    })
                    retry_or_fail(entry, JobStatus.TIMEOUT, None)
                elif not entry.process.is_alive():
                    # died without sending anything (segfault, os.kill)
                    del running[name]
                    entry.conn.close()
                    retry_or_fail(
                        entry,
                        JobStatus.FAILED,
                        f"worker exited with code {entry.process.exitcode} "
                        f"without a result",
                    )
    finally:
        for entry in running.values():
            kill(entry)
        gc.unfreeze()

    emit({
        "event": "run_end",
        "statuses": {
            name: result.status.value for name, result in results.items()
        },
    })
    return results
