"""``python -m repro evidence {list,run,report}``.

* ``list``   — the registered jobs (name, tags, expected verdict, deps)
* ``run``    — execute the job DAG in parallel; writes
  ``manifest.json`` + ``events.jsonl`` under ``--out-dir`` and exits
  non-zero on any verdict mismatch, failure, timeout or skip
* ``report`` — re-render (and re-gate on) a previously written manifest
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

from repro.core.backend import backend_names
from repro.core.context import RunConfig
from repro.harness.cache import ResultCache, code_fingerprint
from repro.harness.events import EventLog
from repro.harness.manifest import (
    MANIFEST_SCHEMA,
    build_manifest,
    check_result_certificates,
    dump_manifest,
    load_manifest,
    manifest_exit_code,
    render_manifest,
    run_fields,
    write_manifest,
)
from repro.harness.registry import default_registry
from repro.harness.runner import RunnerConfig, run_jobs

DEFAULT_CACHE_DIR = Path(".repro-cache") / "evidence"
DEFAULT_OUT_DIR = Path("evidence-out")


def cmd_evidence_list(args: argparse.Namespace) -> int:
    registry = default_registry()
    jobs = registry.select(args.filter)
    if args.format == "json":
        print(json.dumps(
            {"jobs": [job.as_dict() for job in jobs]},
            indent=2, sort_keys=True,
        ))
        return 0
    for job in jobs:
        deps = f"  <- {', '.join(job.deps)}" if job.deps else ""
        print(f"{job.name:<34} [{', '.join(job.tags)}]{deps}")
        print(f"    claim   : {job.claim}")
        print(f"    expected: {job.expected}")
    print(f"{len(jobs)} job(s)")
    return 0


def cmd_evidence_run(args: argparse.Namespace) -> int:
    registry = default_registry()
    jobs = registry.select(args.filter)
    if not jobs:
        print(f"no jobs match filter {args.filter!r}", file=sys.stderr)
        return 2
    run = RunConfig(
        backend=args.backend,
        optimize=args.optimize,
        shards=args.shards,
        audits=args.audit,
    )
    fingerprint = code_fingerprint()
    # results depend on the evaluation mode, not just the code: key the
    # cache on a structured mode dict so runs in different modes never
    # share entries (and the fingerprint stays pure in the manifest).
    # Settings left at their defaults stay out of the key, so plain
    # cache keys stay byte-identical to earlier schemas
    run_mode = {
        name: value
        for name, value in run_fields(run).items()
        if value or name in ("optimize", "backend")
    }
    cache = (
        None if args.no_cache
        else ResultCache(Path(args.cache_dir), fingerprint, run_mode)
    )
    baseline = None
    if getattr(args, "baseline", None):
        path = Path(args.baseline)
        if path.is_dir():
            path = path / "manifest.json"
        try:
            baseline = load_manifest(path)
        except (OSError, json.JSONDecodeError) as exc:
            print(
                f"cannot read baseline manifest {path}: {exc}",
                file=sys.stderr,
            )
            return 2
    out_dir = Path(args.out_dir)
    config = RunnerConfig(
        workers=args.jobs, default_timeout=args.timeout, run=run
    )
    started = time.perf_counter()
    with EventLog(out_dir / "events.jsonl") as events:
        results = run_jobs(jobs, config=config, cache=cache, events=events)
    certificate_checks = (
        check_result_certificates(results)
        if args.check_certificates
        else None
    )
    manifest = build_manifest(
        jobs,
        results,
        wall_seconds=time.perf_counter() - started,
        workers=config.workers,
        default_timeout=config.default_timeout,
        code_fingerprint=fingerprint,
        cache_used=cache is not None,
        certificate_checks=certificate_checks,
        run=run,
        baseline=baseline,
    )
    write_manifest(manifest, out_dir / "manifest.json")
    if args.format == "json":
        print(dump_manifest(manifest))
    else:
        print(render_manifest(manifest, verbose=args.verbose))
        print(f"manifest: {out_dir / 'manifest.json'}")
    return manifest_exit_code(manifest)


def cmd_evidence_report(args: argparse.Namespace) -> int:
    path = Path(args.manifest)
    if path.is_dir():
        path = path / "manifest.json"
    try:
        manifest = load_manifest(path)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read manifest {path}: {exc}", file=sys.stderr)
        return 2
    # the exit code reads the current schema's fields only: an older
    # manifest's violations would go unseen and a red run read green
    if manifest.get("schema") != MANIFEST_SCHEMA:
        print(
            f"cannot report manifest {path}: schema "
            f"{manifest.get('schema')!r}, this version reads schema "
            f"{MANIFEST_SCHEMA}",
            file=sys.stderr,
        )
        return 2
    if args.format == "json":
        print(dump_manifest(manifest))
    else:
        print(render_manifest(manifest, verbose=True))
    return manifest_exit_code(manifest)


def _audits(text: str) -> frozenset[str]:
    """``--audit cost,shard`` -> names, validated by :class:`RunConfig`."""
    names = frozenset(name.strip() for name in text.split(",") if name.strip())
    try:
        return RunConfig(audits=names).audits
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _seconds(text: str) -> float:
    """``--timeout``: a finite number of seconds above 0."""
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be > 0 and finite, got {text}")
    return value


_seconds.__name__ = "float"  # argparse: "invalid float value: 'x'"


def add_evidence_parser(sub: argparse._SubParsersAction) -> None:
    """Wire the ``evidence`` command family into the main CLI."""
    from repro.cli import at_least

    evidence = sub.add_parser(
        "evidence",
        help="regenerate the paper's tables/figures as a checked job DAG",
    )
    esub = evidence.add_subparsers(dest="evidence_command", required=True)

    elist = esub.add_parser("list", help="list registered evidence jobs")
    elist.add_argument(
        "--filter", default=None,
        help="substring over job names/tags (comma = any-of); "
        "dependencies of matches are included",
    )
    elist.add_argument("--format", choices=("text", "json"), default="text")
    elist.set_defaults(func=cmd_evidence_list)

    erun = esub.add_parser("run", help="run the evidence job DAG")
    erun.add_argument(
        "--jobs", type=at_least(1), default=4, metavar="N",
        help="worker processes (default 4); ready jobs flagged heavy "
        "start first",
    )
    erun.add_argument(
        "--timeout", type=_seconds, default=120.0, metavar="SECONDS",
        help="per-job wall-clock budget; a job over budget is killed "
        "and marked TIMEOUT (default 120)",
    )
    erun.add_argument("--filter", default=None,
                      help="substring over job names/tags (comma = any-of)")
    erun.add_argument(
        "--no-cache", action="store_true",
        help="ignore (and do not write) the content-addressed cache",
    )
    erun.add_argument(
        "--cache-dir", default=str(DEFAULT_CACHE_DIR),
        help=f"result cache directory (default {DEFAULT_CACHE_DIR})",
    )
    erun.add_argument(
        "--out-dir", default=str(DEFAULT_OUT_DIR),
        help="where manifest.json and events.jsonl are written "
        f"(default {DEFAULT_OUT_DIR})",
    )
    erun.add_argument("--format", choices=("text", "json"), default="text")
    erun.add_argument(
        "--verbose", action="store_true",
        help="include each job's measured summary in text output",
    )
    erun.add_argument(
        "--check-certificates", action="store_true",
        help="re-validate every job's certificate with the independent "
        "checker (naive evaluation only) and gate the exit code on "
        "all of them being valid",
    )
    erun.add_argument(
        "--audit", type=_audits, default=frozenset(), metavar="NAMES",
        help="comma-separated analyses to audit at runtime: cost "
        "(fixpoints vs cardinality bounds), maintain (rounds vs delta "
        "bounds and strategy), shard (no tuple on the wrong worker); "
        "any violation makes the run red. Part of the cache's "
        "run-mode key",
    )
    erun.add_argument(
        "--shards", type=at_least(0), default=0, metavar="N",
        help="partition every large-enough fixpoint across N worker "
        "processes per the static shard plan (repro.analysis.shard); "
        "0 = single-process (default). Part of the cache's run-mode "
        "key",
    )
    erun.add_argument(
        "--optimize", action="store_true",
        help="evaluate every job through the certified optimizer "
        "(repro.analysis.optimize); part of the cache's run-mode key, "
        "so optimized and plain runs never share entries",
    )
    erun.add_argument(
        "--backend", choices=backend_names(), default="interpreted",
        help="evaluation engine for every job (default interpreted); "
        "part of the cache's run-mode key",
    )
    erun.add_argument(
        "--baseline", metavar="MANIFEST",
        help="previously written manifest.json (or its directory) to "
        "diff engine totals against; the new manifest records the "
        "per-counter delta",
    )
    erun.set_defaults(func=cmd_evidence_run)

    ereport = esub.add_parser(
        "report", help="render an existing run manifest"
    )
    ereport.add_argument(
        "manifest", nargs="?", default=str(DEFAULT_OUT_DIR),
        help="manifest.json (or its directory)",
    )
    ereport.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    ereport.set_defaults(func=cmd_evidence_report)
