"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``decide``  — monotonic determinacy of a query over views
* ``rewrite`` — compute a rewriting (UCQ for CQ/UCQ queries, inverse
  rules for recursive queries over CQ views)
* ``certain`` — certain answers of a query over a view instance
* ``eval``    — evaluate a query over an instance
* ``lint``    — static analysis: diagnostics with source positions,
  dependency/fragment structure, text, JSON or SARIF 2.1.0 output
* ``optimize``— certified program transformations (dead code,
  specialization, inlining, magic sets) with a transformation log,
  rule diff and optional ``program_equivalence`` certificate
* ``evidence``— regenerate the paper's tables and figures as a
  parallel, cached, verdict-checked job DAG (``repro.harness``)

Inputs are files in the library's text syntax (see
:mod:`repro.core.parser`).  A *query file* contains Datalog rules plus a
directive line ``# goal: <Pred>`` (absent: the file is parsed as a
single CQ).  A *views file* contains blocks separated by ``# view:
<Name>`` directives, each holding one CQ (single rule) or Datalog
program with ``# goal:``.

All parsing goes through the span-aware
:func:`repro.core.parser.parse_program_source` path, so malformed
input to any command reports ``file:line:col`` plus a caret excerpt
(exit status 2), exactly like ``lint`` renders its ``E004``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Optional

from repro.core.backend import backend_names
from repro.core.context import RunConfig, running
from repro.core.stats import active
from repro.core.cq import ConjunctiveQuery
from repro.core.datalog import DatalogQuery
from repro.core.parser import (
    ParseError,
    Span,
    parse_instance,
    parse_program_source,
    source_excerpt,
)
from repro.core.terms import Variable
from repro.views.view import View, ViewSet

#: exit status for malformed input files (decide/rewrite/certain/eval)
INPUT_ERROR = 2


def _shift(span: Optional[Span], offset: int) -> Optional[Span]:
    """Move a block-local span down by ``offset`` file lines."""
    if span is None or offset == 0:
        return span
    return Span(
        span.line + offset, span.col, span.end_line + offset, span.end_col
    )


def _input_error(
    message: str,
    span: Optional[Span],
    *,
    path: Optional[str],
    offset: int = 0,
    full_text: str = "",
) -> ParseError:
    """A ParseError re-anchored to the whole file, carrying its path."""
    span = _shift(span, offset)
    error = ParseError(message, span, source_excerpt(full_text, span))
    error.path = path  # type: ignore[attr-defined]
    return error


def _goal_of(text: str) -> Optional[str]:
    """The predicate named by the last ``# goal: <Pred>`` line, if any."""
    goal = None
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith("# goal:"):
            goal = stripped.split(":", 1)[1].strip()
    return goal


def _parse_query_text(
    text: str,
    *,
    path: Optional[str] = None,
    offset: int = 0,
    full_text: Optional[str] = None,
):
    """Parse a query block through the span-aware parser path.

    ``# goal:`` directives are comments to the tokenizer, so they stay
    in the parsed text and every reported position matches the file as
    written.  ``offset``/``full_text`` re-anchor positions when ``text``
    is a block cut out of a larger file (views files).
    """
    full = full_text if full_text is not None else text
    goal = _goal_of(text)
    try:
        source = parse_program_source(text)
    except ParseError as exc:
        raise _input_error(
            exc.message, exc.span,
            path=path, offset=offset, full_text=full,
        ) from None
    for entry in source.entries:
        if entry.rule is None:
            raise _input_error(
                entry.error or "unsafe rule", entry.head_span,
                path=path, offset=offset, full_text=full,
            )
    if not source.entries:
        raise _input_error(
            "empty program", None,
            path=path, offset=offset, full_text=full,
        )
    program = source.program()
    if goal is not None:
        if goal not in {rule.head.pred for rule in program.rules}:
            raise _input_error(
                f"goal predicate {goal!r} is not defined by any rule",
                None, path=path, offset=offset, full_text=full,
            )
        return DatalogQuery(program, goal)
    if len(source.entries) != 1:
        raise _input_error(
            "a query file without '# goal:' must contain exactly one "
            "CQ rule", source.entries[1].span,
            path=path, offset=offset, full_text=full,
        )
    rule = source.entries[0].rule
    assert rule is not None  # unsafe entries rejected above
    head_vars = []
    for term in rule.head.args:
        if not isinstance(term, Variable):
            raise _input_error(
                "CQ head arguments must be variables",
                source.entries[0].head_span,
                path=path, offset=offset, full_text=full,
            )
        head_vars.append(term)
    return ConjunctiveQuery(tuple(head_vars), rule.body, "Q")


def load_query(path: str):
    return _parse_query_text(Path(path).read_text(), path=path)


def load_views(path: str) -> ViewSet:
    text = Path(path).read_text()
    # (name, 0-based line of the first block line, block lines)
    blocks: list[tuple[str, int, list[str]]] = []
    current: list[str] | None = None
    for lineno, line in enumerate(text.splitlines()):
        stripped = line.strip()
        if stripped.startswith("# view:"):
            name = stripped.split(":", 1)[1].strip()
            current = []
            blocks.append((name, lineno + 1, current))
        elif current is not None:
            current.append(line)
    if not blocks:
        raise SystemExit("views file needs at least one '# view:' block")
    views = []
    for name, start, lines in blocks:
        views.append(View(name, _parse_query_text(
            "\n".join(lines), path=path, offset=start, full_text=text,
        )))
    return ViewSet(views)


def _read_text(path: str) -> str:
    """Read a UTF-8 input file through the span-aware error path.

    A file that is not valid UTF-8 (``UnicodeDecodeError`` is a
    ``ValueError``, so neither the ``ParseError`` nor the ``OSError``
    handler in :func:`main` would catch it) surfaces as the same
    ``file: E004 [error] ...`` + exit 2 the parser errors use, instead
    of a raw traceback.
    """
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        error = ParseError(
            f"file is not valid UTF-8 text "
            f"({exc.reason} at byte {exc.start})"
        )
        error.path = path  # type: ignore[attr-defined]
        raise error from None


def load_instance(path: str):
    try:
        return parse_instance(_read_text(path))
    except ParseError as exc:
        if getattr(exc, "path", None) is None:
            exc.path = path  # type: ignore[attr-defined]
        raise


def cmd_decide(args: argparse.Namespace) -> int:
    from repro.determinacy.checker import decide_monotonic_determinacy

    query = load_query(args.query)
    views = load_views(args.views)
    # ``--backend`` is the run's engine; a caller's collector (``--stats``)
    # keeps counting
    with running(RunConfig(backend=args.backend), active()):
        result = decide_monotonic_determinacy(
            query, views, approx_depth=args.depth,
            optimize=getattr(args, "optimize", False),
        )
    print(f"verdict : {result.verdict.value}")
    print(f"method  : {result.method}")
    print(f"detail  : {result.detail}")
    if result.counterexample is not None:
        print("--- counterexample (failing canonical test) ---")
        print(result.counterexample.describe())
    return 0 if result.verdict.value != "no" else 1


def cmd_rewrite(args: argparse.Namespace) -> int:
    query = load_query(args.query)
    views = load_views(args.views)
    if isinstance(query, ConjunctiveQuery):
        from repro.rewriting.forward_backward import (
            NotRewritableError,
            rewrite_forward_backward,
        )

        try:
            rewriting = rewrite_forward_backward(query, views)
        except NotRewritableError as exc:
            print(f"not rewritable: {exc}", file=sys.stderr)
            return 1
        for disjunct in rewriting.disjuncts:
            print(repr(disjunct))
        return 0
    from repro.rewriting.datalog_rewriting import datalog_rewriting

    rewriting = datalog_rewriting(query, views)
    print(f"# goal: {rewriting.goal}")
    for rule in rewriting.program.rules:
        print(repr(rule))
    return 0


def cmd_certain(args: argparse.Namespace) -> int:
    from repro.views.inverse_rules import certain_answers

    query = load_query(args.query)
    if isinstance(query, ConjunctiveQuery):
        raise SystemExit("certain answers need a Datalog query file")
    views = load_views(args.views)
    view_instance = load_instance(args.instance)
    for row in sorted(
        certain_answers(query, views, view_instance), key=repr
    ):
        print(row)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    query = load_query(args.query)
    instance = load_instance(args.instance)
    with running(RunConfig(backend=args.backend), active()):
        rows = sorted(query.evaluate(instance), key=repr)
    for row in rows:
        print(row)
    return 0


#: ``repro lint`` exit codes.
LINT_OK, LINT_ERRORS, LINT_WARNINGS = 0, 1, 2


def cmd_lint(args: argparse.Namespace) -> int:
    """Lint a query file: diagnostics with positions, text or JSON.

    Exit status: 0 — clean (infos only), 2 — warnings, 1 — errors (or
    any warning under ``--strict``).  ``# goal:`` directives are plain
    comments to the tokenizer, so reported positions match the file
    as written.
    """
    import json

    from repro.analysis import Severity, analyze_query, make
    from repro.core.parser import ParseError, parse_program_source

    text = Path(args.query).read_text()
    goal = _goal_of(text)

    fixes = []
    try:
        views = load_views(args.views) if args.views else None
        if getattr(args, "fix", False):
            from repro.analysis.fixer import fix_source

            result = fix_source(text, goal=goal, views=views)
            if result.changed:
                Path(args.query).write_text(result.text)
                text = result.text
            fixes = list(result.fixes)
        source = parse_program_source(text)
    except ParseError as exc:
        diagnostic = make("E004", exc.message, exc.span)
        if args.format == "json":
            print(json.dumps({
                "diagnostics": [diagnostic.as_dict()],
                "summary": {"errors": 1, "warnings": 0, "infos": 0},
            }, indent=2, sort_keys=True))
        elif args.format == "sarif":
            from repro.analysis import sarif_report

            print(json.dumps(
                sarif_report([diagnostic], args.query),
                indent=2, sort_keys=True,
            ))
        else:
            print(diagnostic.render(getattr(exc, "path", None) or args.query))
            print("1 error(s), 0 warning(s)")
        return LINT_ERRORS

    report = analyze_query(
        source.program(), views=views, source=source, goal=goal,
        semantic=args.semantic,
    )
    if args.format == "json":
        payload = report.as_dict()
        if getattr(args, "fix", False):
            payload["fixes"] = [f.as_dict() for f in fixes]
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.format == "sarif":
        from repro.analysis import sarif_report

        print(json.dumps(
            sarif_report(report.diagnostics, args.query),
            indent=2, sort_keys=True,
        ))
    else:
        for fix in fixes:
            print(f"{args.query}: fixed {fix.render()}")
        print(report.render_text(args.query))
    worst = report.max_severity()
    if worst is Severity.ERROR:
        return LINT_ERRORS
    if worst is Severity.WARNING:
        return LINT_ERRORS if args.strict else LINT_WARNINGS
    return LINT_OK


#: analysis -> the diagnostic codes its lint passes produce
ANALYSIS_CODES = {
    "cost": ("I209", "W112", "W113", "W114"),
    "maintain": ("I210", "I211", "I212", "W115", "W116", "W117"),
    "shard": ("I213", "I214", "I215", "W118", "W119"),
}


def at_least(minimum: int) -> Callable[[str], int]:
    """An argparse ``type`` for integers ``>= minimum``; anything else is
    a usage error naming the flag (exit 2)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}"
            )
        return value

    parse.__name__ = "int"  # argparse: "invalid int value: 'x'"
    return parse


def _load_analyze_query(path: str):
    """Parse an ``analyze`` query file span-aware: (program, source, goal)."""
    text = _read_text(path)
    goal = _goal_of(text)
    try:
        source = parse_program_source(text)
    except ParseError as exc:
        exc.path = path  # type: ignore[attr-defined]
        raise
    return source.program(), source, goal


def cmd_analyze(args: argparse.Namespace) -> int:
    """``repro analyze cost|maintain|shard``: one view of the stratum
    plan (:mod:`repro.analysis.plan`), under the parameters measured
    from ``--instance`` or else assumed (every EDB at 16 facts).
    ``--format sarif`` re-runs the semantic analyzer and keeps only the
    view's own diagnostic codes, next to the full ``lint`` log.
    """
    import json

    from repro.analysis.cost import cost_report
    from repro.analysis.maintain import maintain_report
    from repro.analysis.shard import shard_report

    program, source, goal = _load_analyze_query(args.query)
    instance = load_instance(args.instance) if args.instance else None
    if args.analysis == "maintain":
        report = maintain_report(
            program, goal=goal, instance=instance,
            update_size=args.update_size,
            append_only=frozenset(
                p.strip() for p in (args.append_only or "").split(",") if p.strip()
            ),
        )
    elif args.analysis == "shard":
        report = shard_report(
            program, goal=goal, instance=instance, workers=args.workers
        )
    else:
        report = cost_report(program, goal=goal, instance=instance)

    if args.format == "json":
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    elif args.format == "sarif":
        from repro.analysis import analyze_query, sarif_report

        analysis = analyze_query(
            program, source=source, goal=goal, semantic=True
        )
        codes = ANALYSIS_CODES[args.analysis]
        findings = [d for d in analysis.diagnostics if d.code in codes]
        print(json.dumps(
            sarif_report(findings, args.query), indent=2, sort_keys=True,
        ))
    else:
        print(report.render_text())
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    """Run the certified optimizer over a query file.

    Parses through the span-aware path so every transformation record
    points back at a source position (or, for synthesized rules, at the
    rule it was derived from).  ``--emit-certificate`` additionally
    ships ``program_equivalence`` claims for every applied pass and
    *validates them with the independent checker* before writing — an
    invalid certificate is a bug and exits 1.
    """
    import json

    from repro.analysis import analyze_query
    from repro.analysis.optimize import PASSES, optimize_program

    text = Path(args.query).read_text()
    goal = _goal_of(text)
    query = _parse_query_text(text, path=args.query)
    if not isinstance(query, DatalogQuery):
        print(
            "error: optimize needs a Datalog query file with '# goal:'",
            file=sys.stderr,
        )
        return INPUT_ERROR
    source = parse_program_source(text)
    spans = [
        entry.span for entry in source.entries if entry.rule is not None
    ]

    passes = None
    if args.passes:
        passes = tuple(name.strip() for name in args.passes.split(","))
        unknown = [name for name in passes if name not in PASSES]
        if unknown:
            known = ", ".join(PASSES)
            print(
                f"error: unknown pass(es) {', '.join(unknown)} "
                f"(known: {known})",
                file=sys.stderr,
            )
            return INPUT_ERROR
    certify = args.emit_certificate is not None
    result = optimize_program(
        query.program, goal or query.goal, passes,
        spans=spans, certify=certify,
    )

    if args.format == "json":
        payload = result.as_dict()
        report = analyze_query(
            result.optimized, goal=result.goal, semantic=True,
            provenance=result.provenance,
        )
        payload["diagnostics"] = [d.as_dict() for d in report.diagnostics]
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for stage in result.stages:
            for record in stage.records:
                print(f"{args.query}: {record.render()}")
        removed, added = result.diff()
        if not result.changed:
            print(f"{args.query}: nothing to optimize")
        else:
            for rule in removed:
                print(f"- {rule!r}")
            for rule in added:
                print(f"+ {rule!r}")
        print(f"# goal: {result.goal}")
        for rule in result.optimized.rules:
            print(repr(rule))

    if certify:
        from repro.certify import check_certificate

        certificate = result.certificate
        assert certificate is not None
        outcome = check_certificate(certificate)
        Path(args.emit_certificate).write_text(
            json.dumps(certificate, indent=2, sort_keys=True)
        )
        claims = len(certificate["claims"])
        if not outcome.valid:
            for failure in outcome.failures:
                print(f"certificate INVALID: {failure}", file=sys.stderr)
            return 1
        print(
            f"certificate: {claims} claim(s) checked, valid "
            f"-> {args.emit_certificate}",
            file=sys.stderr,
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="monotonic determinacy & rewritability toolkit",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print engine counters (homomorphism calls, rows scanned, "
        "index rebuilds, phase times) to stderr after the command",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    decide = sub.add_parser("decide", help="decide monotonic determinacy")
    decide.add_argument("query")
    decide.add_argument("views")
    decide.add_argument("--depth", type=int, default=4)
    decide.add_argument(
        "--optimize",
        action="store_true",
        help="run a recursive Datalog query through the certified "
        "optimizer before the canonical-test procedure; applied "
        "transformations ship program_equivalence claims in the "
        "verdict certificate",
    )
    decide.add_argument(
        "--backend", choices=backend_names(), default=RunConfig.backend,
        help="evaluation engine for every fixpoint the procedure runs "
        "(default %(default)s)",
    )
    decide.set_defaults(func=cmd_decide)

    rewrite = sub.add_parser("rewrite", help="compute a rewriting")
    rewrite.add_argument("query")
    rewrite.add_argument("views")
    rewrite.set_defaults(func=cmd_rewrite)

    certain = sub.add_parser("certain", help="certain answers")
    certain.add_argument("query")
    certain.add_argument("views")
    certain.add_argument("instance")
    certain.set_defaults(func=cmd_certain)

    evaluate = sub.add_parser("eval", help="evaluate a query")
    evaluate.add_argument("query")
    evaluate.add_argument("instance")
    evaluate.add_argument(
        "--backend", choices=backend_names(), default=RunConfig.backend,
        help="evaluation engine (default %(default)s)",
    )
    evaluate.set_defaults(func=cmd_eval)

    lint = sub.add_parser(
        "lint", help="analyze a query file and report diagnostics"
    )
    lint.add_argument("query")
    lint.add_argument("--views", help="views file to check against")
    lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="sarif emits a SARIF 2.1.0 log for code-scanning UIs",
    )
    lint.add_argument(
        "--strict",
        action="store_true",
        help="treat warnings as errors (exit 1 instead of 2)",
    )
    lint.add_argument(
        "--fix",
        action="store_true",
        help="rewrite the file in place, deleting safely removable "
        "rules (W101 duplicate rules, W106 unused predicates); "
        "idempotent — a second run is a no-op",
    )
    lint.add_argument(
        "--semantic",
        action="store_true",
        help="also run the semantic passes: capability facts, binding "
        "patterns, boundedness, sort inference (I204-I206, W109-W110)",
    )
    lint.set_defaults(func=cmd_lint)

    optimize = sub.add_parser(
        "optimize",
        help="apply certified analysis-driven program transformations",
    )
    optimize.add_argument("query", help="Datalog query file with '# goal:'")
    optimize.add_argument(
        "--passes",
        help="comma-separated pass names to run, in order "
        "(default: dead_code,specialize,inline,magic_sets)",
    )
    optimize.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    optimize.add_argument(
        "--emit-certificate",
        metavar="PATH",
        help="write a schema-2 certificate with one program_equivalence "
        "claim per applied pass, validated by the independent checker "
        "before writing (invalid -> exit 1)",
    )
    optimize.set_defaults(func=cmd_optimize)

    analyze = sub.add_parser(
        "analyze",
        help="standalone static analyses (cost, maintain, shard)",
    )
    analyze_sub = analyze.add_subparsers(dest="analysis", required=True)
    views = {}
    for name, summary in (
        ("cost", "certified cardinality bounds and join cost estimates"),
        ("maintain",
         "certified maintainability classification and delta bounds"),
        ("shard",
         "certified shardability classification and exchange bounds"),
    ):
        view = analyze_sub.add_parser(name, help=summary)
        view.add_argument("query", help="Datalog query file")
        view.add_argument(
            "--instance",
            help="instance file; its measured relation sizes and active "
            "domain parameterize the bounds (default: assumed "
            "parameters, every EDB at 16 facts)",
        )
        view.add_argument(
            "--format", choices=("text", "json", "sarif"), default="text",
            help=f"sarif emits only the {name} diagnostics "
            f"({', '.join(ANALYSIS_CODES[name])})",
        )
        view.set_defaults(func=cmd_analyze)
        views[name] = view
    views["maintain"].add_argument(
        "--update-size", type=at_least(0), default=1, metavar="N",
        help="base facts one round may change (default 1); delta "
        "bounds are functions of this",
    )
    views["maintain"].add_argument(
        "--append-only", metavar="PREDS",
        help="comma-separated base predicates promised never to be "
        "retracted from (they stop counting as retraction sources)",
    )
    views["shard"].add_argument(
        "--workers", type=at_least(1), default=4, metavar="N",
        help="worker count the plan assumes (default 4); exchange "
        "bounds scale with N-1",
    )

    from repro.harness.cli import add_evidence_parser

    add_evidence_parser(sub)

    from repro.serve.cli import add_serve_parser

    add_serve_parser(sub)
    return parser


def _render_input_error(exc: ParseError) -> None:
    """``file:line:col: E004 [error] message`` + caret excerpt, à la lint."""
    from repro.analysis import make

    path = getattr(exc, "path", None)
    print(make("E004", exc.message, exc.span).render(path), file=sys.stderr)
    if exc.excerpt:
        print(exc.excerpt, file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.stats:
            from repro.core.stats import EngineStats, collecting

            stats = EngineStats()
            with stats.phase("total"), collecting(stats):
                code = args.func(args)
            print(stats.render(), file=sys.stderr)
            return code
        return args.func(args)
    except ParseError as exc:
        _render_input_error(exc)
        return INPUT_ERROR
    except OSError as exc:
        name = exc.filename if exc.filename is not None else ""
        print(f"error: cannot read {name}: {exc.strerror}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
