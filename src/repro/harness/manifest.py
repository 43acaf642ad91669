"""Run manifest: the machine-readable outcome of an evidence run.

The manifest diffs measured verdicts against the registry's expected
verdicts, merges per-job :class:`~repro.core.stats.EngineStats` from
the worker processes into run totals, and summarizes statuses.  The
CLI exits non-zero whenever ``summary.ok != summary.total`` — any
mismatch, failure, timeout or skip makes the run red.
"""

from __future__ import annotations

import datetime
import json
import os
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

from repro.core.context import RunConfig, guard_class
from repro.core.stats import EngineStats
from repro.harness.job import Job, JobResult, JobStatus

MANIFEST_SCHEMA = 9  # 2: per-job certificate status; 3: optimize flag
                     # + optional baseline engine delta; 4: backend name
                     # + columnar join counters in the delta; 5: per-job
                     # cost-guard blocks + auto-backend resolutions +
                     # cost-audit flag and summary; 6: per-job ivm
                     # maintenance blocks, ivm counters in the delta,
                     # ivm round totals in the summary; 7: per-job
                     # maintain-guard blocks + maintain-audit flag,
                     # maintain counters in the delta, maintain totals
                     # in the summary; 8: shards and shard-audit flags,
                     # per-job shard-guard blocks, shard counters in
                     # the delta, shard totals in the summary; 9: one
                     # ``audits`` list, per-job ``audits`` blocks, one
                     # ``audit_violations`` list and ``summary.audits``
                     # replace the three audit flags and the per-audit
                     # blocks, violation lists and summary counts

#: EngineStats counters diffed against a baseline manifest
_DELTA_FIELDS = (
    "hom_calls",
    "search_steps",
    "rows_scanned",
    "fixpoint_rounds",
    "facts_derived",
    "join_build_rows",
    "join_probe_rows",
    "join_output_rows",
    "ivm_rounds",
    "ivm_inserted",
    "ivm_deleted",
    "ivm_rederived",
    "maintain_counting_strata",
    "maintain_dred_strata",
    "maintain_skipped_rederive",
    "shard_workers",
    "shard_exchanged_rows",
    "shard_local_rounds",
)


def check_result_certificates(
    results: Mapping[str, JobResult],
) -> dict[str, dict[str, Any]]:
    """Validate every result's certificate with the independent checker.

    Returns name -> ``{"status": "valid"|"invalid"|"absent", "claims":
    n, "failures": [...]}``.  Jobs that never produced a result payload
    (failed / timed out / skipped) are reported ``absent`` with a
    reason.  Validation uses :func:`repro.certify.check_certificate`
    only — naive evaluation and direct homomorphism replay, none of the
    engine fast paths the jobs themselves ran on.
    """
    from repro.certify import check_certificate

    checks: dict[str, dict[str, Any]] = {}
    for name, result in results.items():
        if result.certificate is None:
            reason = (
                "job emitted no certificate"
                if result.verdict is not None
                else f"no result payload ({result.status.value})"
            )
            checks[name] = {
                "status": "absent", "claims": 0, "failures": [reason]
            }
            continue
        outcome = check_certificate(result.certificate)
        checks[name] = {
            "status": "valid" if outcome.valid else "invalid",
            "claims": outcome.claims,
            "failures": list(outcome.failures),
        }
    return checks


def run_fields(run: RunConfig) -> dict[str, Any]:
    """The manifest's record of ``run``, one field per setting."""
    return {
        "optimize": run.optimize,
        "backend": run.backend,
        "shards": run.shards,
        "audits": sorted(run.audits),
    }


#: status -> summary key, in render order
_STATUS_KEYS = {
    JobStatus.OK: "ok",
    JobStatus.MISMATCH: "mismatch",
    JobStatus.FAILED: "failed",
    JobStatus.TIMEOUT: "timeout",
    JobStatus.SKIPPED: "skipped",
}


def build_manifest(
    jobs: Sequence[Job],
    results: Mapping[str, JobResult],
    *,
    wall_seconds: float,
    workers: int,
    default_timeout: float,
    code_fingerprint: str,
    cache_used: bool,
    certificate_checks: Optional[Mapping[str, dict]] = None,
    run: Optional[RunConfig] = None,
    baseline: Optional[Mapping[str, Any]] = None,
) -> dict[str, Any]:
    """Assemble the manifest dict for one finished run.

    With ``certificate_checks`` (from
    :func:`check_result_certificates`) each job entry records its
    certificate status, the summary counts ``certified`` jobs, and
    :func:`manifest_exit_code` additionally requires every job's
    certificate to validate.

    ``run`` is the configuration the jobs evaluated under (default: a
    plain run); its fields are recorded by :func:`run_fields`.  Each
    audit it installed (``cost``: every fixpoint against the static
    cardinality bounds; ``maintain``: every maintenance round against
    its delta bound and planned strategy; ``shard``: every
    communication-free stratum for plan conformance) gets one entry in
    ``summary.audits``: ``jobs`` whose guard checked at least one item,
    total ``checks`` and total ``violations``.  Every violation is also
    listed under ``audit_violations`` and makes the run red.

    Jobs that drive a :class:`repro.ivm.MaterializedView` ship an
    ``ivm`` block; when any do, the summary gains ``ivm_jobs`` and
    ``ivm_rounds`` totals (their ``ivm_state`` certificates are
    validated through the same ``certificate_checks`` path as every
    other claim type).
    ``baseline`` is a previously written manifest to
    diff against: the new manifest gains a ``baseline`` block with
    per-counter engine deltas (current − baseline), the before/after
    evidence for the optimizer's or backend's effect on the same jobs.
    """
    if run is None:
        run = RunConfig()
    engine_totals = EngineStats()
    job_entries = {}
    counts = {key: 0 for key in _STATUS_KEYS.values()}
    cached = 0
    certified = 0
    audits = {
        name: {"jobs": 0, "checks": 0, "violations": 0}
        for name in sorted(run.audits)
    }
    ivm_jobs = 0
    ivm_rounds = 0
    mismatches = []
    audit_violations: list[dict[str, Any]] = []
    for job in jobs:
        result = results.get(job.name)
        if result is None:  # defensive: runner always reports every job
            result = JobResult(
                name=job.name,
                status=JobStatus.SKIPPED,
                expected=job.expected,
                measured="no result reported",
            )
        counts[_STATUS_KEYS[result.status]] += 1
        if result.cached:
            cached += 1
        if result.status is JobStatus.MISMATCH:
            mismatches.append({
                "job": job.name,
                "expected": result.expected,
                "measured_verdict": result.verdict,
            })
        for name, tally in sorted((result.audits or {}).items()):
            total = audits.setdefault(
                name, {"jobs": 0, "checks": 0, "violations": 0}
            )
            checks = int(tally.get("checks", 0))
            violations = list(tally.get("violations") or [])
            total["jobs"] += checks > 0
            total["checks"] += checks
            total["violations"] += len(violations)
            if violations:
                audit_violations.append({
                    "job": job.name, "audit": name, "violations": violations,
                })
        if result.ivm is not None:
            ivm_jobs += 1
            ivm_rounds += int(result.ivm.get("rounds", 0))
        if result.engine:
            # report tooling: tolerate counters from a newer schema
            # (e.g. cached results written by a later version)
            engine_totals.merge(
                EngineStats.from_dict(result.engine, allow_unknown=True)
            )
        entry = result.as_dict()
        entry["claim"] = job.claim
        entry["tags"] = list(job.tags)
        entry["deps"] = list(job.deps)
        if certificate_checks is not None:
            check = certificate_checks.get(
                job.name,
                {"status": "absent", "claims": 0,
                 "failures": ["no result reported"]},
            )
            entry["certificate_check"] = check
            if check["status"] == "valid":
                certified += 1
        job_entries[job.name] = entry
    summary: dict[str, Any] = {
        "total": len(jobs),
        **counts,
        "cached": cached,
        "wall_seconds": round(wall_seconds, 3),
    }
    if certificate_checks is not None:
        summary["certified"] = certified
    if audits:
        summary["audits"] = audits
    if ivm_jobs:
        summary["ivm_jobs"] = ivm_jobs
        summary["ivm_rounds"] = ivm_rounds
    manifest: dict[str, Any] = {
        "schema": MANIFEST_SCHEMA,
        "created": datetime.datetime.now(
            datetime.timezone.utc
        ).isoformat(timespec="seconds"),
        "code_fingerprint": code_fingerprint,
        "workers": workers,
        "default_timeout_s": default_timeout,
        "cache_used": cache_used,
        **run_fields(run),
        "jobs": job_entries,
        "mismatches": mismatches,
        "audit_violations": audit_violations,
        "engine_totals": engine_totals.to_dict(),
        "summary": summary,
    }
    if baseline is not None:
        base_engine = baseline.get("engine_totals") or {}
        current = engine_totals.to_dict()
        manifest["baseline"] = {
            "code_fingerprint": baseline.get("code_fingerprint", ""),
            "optimize": bool(baseline.get("optimize", False)),
            "backend": baseline.get("backend", "interpreted"),
            "engine_delta": {
                name: current.get(name, 0) - base_engine.get(name, 0)
                for name in _DELTA_FIELDS
            },
        }
    return manifest


def manifest_exit_code(manifest: dict[str, Any]) -> int:
    """0 iff every job ended OK (matched verdict, no failures/skips),
    when certificate checking ran every certificate validated, and no
    audit recorded a violation."""
    summary = manifest["summary"]
    if summary["ok"] != summary["total"]:
        return 1
    if "certified" in summary and summary["certified"] != summary["total"]:
        return 1
    if manifest.get("audit_violations"):
        return 1
    return 0


def dump_manifest(manifest: dict[str, Any]) -> str:
    """Compact JSON with sorted keys.  No ``indent``: that selects the
    pure-Python encoder, seconds slower on the carried certificates."""
    return json.dumps(manifest, sort_keys=True)


def write_manifest(manifest: dict[str, Any], path: Path) -> None:
    """Write ``manifest`` to ``path`` atomically: a run killed while
    writing leaves the previous file whole."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    try:
        tmp.write_text(dump_manifest(manifest))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_manifest(path: Path) -> dict[str, Any]:
    return json.loads(Path(path).read_text())


def render_manifest(manifest: dict[str, Any], *, verbose: bool = False) -> str:
    """Human-readable run report."""
    lines = []
    summary = manifest["summary"]
    for name, entry in manifest["jobs"].items():
        status = entry["status"]
        flags = []
        if entry.get("cached"):
            flags.append("cached")
        if entry.get("attempts", 1) > 1:
            flags.append(f"attempt {entry['attempts']}")
        check = entry.get("certificate_check")
        if check is not None:
            flags.append(f"cert {check['status']}")
        ivm = entry.get("ivm")
        if ivm is not None:
            flags.append(f"ivm {ivm.get('rounds', 0)} rounds")
        audits = entry.get("audits") or {}
        for audit, tally in sorted(audits.items()):
            violated = tally.get("violations")
            flags.append(
                f"{audit} {'VIOLATED' if violated else 'ok'} "
                f"({tally.get('checks', 0)} checks)"
            )
        flag_text = f" ({', '.join(flags)})" if flags else ""
        lines.append(
            f"  {status.upper():<9} {name:<34} "
            f"{entry.get('duration_s', 0):7.2f}s{flag_text}"
        )
        if check is not None and check["status"] != "valid":
            for failure in check["failures"]:
                lines.append(f"            certificate: {failure}")
        if status == "mismatch":
            lines.append(
                f"            expected {entry['expected']!r}, measured "
                f"{entry['verdict']!r}"
            )
        if verbose and entry.get("measured"):
            lines.append(f"            {entry['measured']}")
        for audit, tally in sorted(audits.items()):
            guard = guard_class(audit)
            for violation in tally.get("violations") or []:
                lines.append(
                    f"            {guard.render_violation(violation)}"
                )
        if status in ("failed", "timeout") and entry.get("error"):
            last = entry["error"].strip().splitlines()[-1]
            lines.append(f"            {last}")
    lines.append(
        f"summary: {summary['ok']}/{summary['total']} ok, "
        f"{summary['mismatch']} mismatch, {summary['failed']} failed, "
        f"{summary['timeout']} timeout, {summary['skipped']} skipped "
        f"({summary['cached']} cached, "
        f"{summary['wall_seconds']:.2f}s wall)"
    )
    if "certified" in summary:
        lines.append(
            f"certificates: {summary['certified']}/{summary['total']} "
            "validated by the independent checker"
        )
    for name, total in summary.get("audits", {}).items():
        lines.append(
            f"audit {name}: {total['checks']} check(s) in "
            f"{total['jobs']}/{summary['total']} job(s), "
            f"{total['violations']} violation(s)"
        )
    if "ivm_jobs" in summary:
        lines.append(
            f"ivm: {summary['ivm_jobs']} job(s) maintained "
            f"materializations across {summary['ivm_rounds']} "
            "incremental rounds"
        )
    engine = manifest.get("engine_totals") or {}
    if engine.get("hom_calls") or engine.get("fixpoint_rounds"):
        tags = []
        backend = manifest.get("backend", "interpreted")
        if backend != RunConfig.backend:
            tags.append(backend)
        if manifest.get("optimize"):
            tags.append("optimized")
        tag_text = f" ({', '.join(tags)})" if tags else ""
        parts = [
            f"{engine['hom_calls']} hom calls",
            f"{engine['rows_scanned']} rows scanned",
            f"{engine['fixpoint_rounds']} fixpoint rounds",
            f"{engine['facts_derived']} facts derived",
        ]
        if engine.get("join_probe_rows"):
            parts.append(f"{engine['join_probe_rows']} join probe rows")
        lines.append(f"engine{tag_text}: " + ", ".join(parts))
    baseline = manifest.get("baseline")
    if baseline is not None:
        delta = baseline.get("engine_delta", {})
        parts = []
        for name in _DELTA_FIELDS:
            value = delta.get(name, 0)
            if value:
                parts.append(f"{name} {value:+d}")
        lines.append(
            "vs baseline: " + (", ".join(parts) if parts else "no change")
        )
    return "\n".join(lines)
