"""The program analyzer: run registered passes, collect diagnostics.

Entry points:

* :func:`analyze_query` — analyze a :class:`~repro.core.datalog.DatalogQuery`
  (or bare program), optionally against a :class:`~repro.views.view.ViewSet`
  and the :class:`~repro.core.parser.ProgramSource` it was parsed from
  (for source spans);
* :class:`ProgramAnalyzer` — the reusable engine behind it, with a
  ``register`` hook for custom passes.

The result is an :class:`AnalysisReport`: ordered diagnostics plus the
dependency and fragment structure, with renderers for the ``repro lint``
text and JSON outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional, Sequence, Union

from repro.analysis.dependency import (
    DependencyGraph,
    FragmentReport,
    fragment_report,
)
from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.passes import DEFAULT_PASSES, SEMANTIC_PASSES
from repro.analysis.semantics import SemanticReport, semantic_report
from repro.core.datalog import DatalogProgram, DatalogQuery
from repro.core.parser import ProgramSource, Span, SourceRule
from repro.views.view import ViewSet

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.cost import CostReport
    from repro.analysis.maintain import MaintainReport
    from repro.analysis.optimize import RuleProvenance
    from repro.analysis.shard import ShardReport

AnalysisPass = Callable[["AnalysisContext"], Iterable[Diagnostic]]
Analyzable = Union[DatalogQuery, DatalogProgram]


@dataclass
class AnalysisContext:
    """Everything a pass may look at (shared, computed once)."""

    program: DatalogProgram
    goal: Optional[str]
    views: Optional[ViewSet]
    source: Optional[ProgramSource]
    dependency: DependencyGraph
    fragment: FragmentReport
    semantics: Optional[SemanticReport] = None
    cost: Optional["CostReport"] = None
    maintain: Optional["MaintainReport"] = None
    shard: Optional["ShardReport"] = None
    _entries: tuple[Optional[SourceRule], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.source is not None and not self._entries:
            aligned = tuple(
                entry for entry in self.source.entries
                if entry.rule is not None
            )
            if len(aligned) == len(self.program.rules):
                self._entries = aligned
        if not self._entries:
            self._entries = (None,) * len(self.program.rules)

    def rule_span(self, index: int) -> Optional[Span]:
        entry = self._entries[index]
        return entry.span if entry is not None else None

    def head_span(self, index: int) -> Optional[Span]:
        entry = self._entries[index]
        return entry.head_span if entry is not None else None

    def atom_span(self, rule_index: int, atom_index: int) -> Optional[Span]:
        entry = self._entries[rule_index]
        return entry.atom_span(atom_index) if entry is not None else None


@dataclass(frozen=True)
class AnalysisReport:
    """The analyzer's findings for one program (+ optional views)."""

    diagnostics: tuple[Diagnostic, ...]
    fragment: FragmentReport
    dependency: DependencyGraph
    semantics: Optional[SemanticReport] = None
    cost: Optional["CostReport"] = None
    maintain: Optional["MaintainReport"] = None
    shard: Optional["ShardReport"] = None

    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    def infos(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.INFO]

    def has_errors(self) -> bool:
        return bool(self.errors())

    def codes(self) -> set[str]:
        return {d.code for d in self.diagnostics}

    def max_severity(self) -> Optional[Severity]:
        if not self.diagnostics:
            return None
        return max(d.severity for d in self.diagnostics)

    def render_text(self, path: Optional[str] = None) -> str:
        lines = [d.render(path) for d in self.diagnostics]
        errors, warnings = len(self.errors()), len(self.warnings())
        lines.append(
            f"{errors} error(s), {warnings} warning(s), "
            f"fragment {self.fragment.label}"
        )
        return "\n".join(lines)

    def as_dict(self) -> dict[str, Any]:
        out = {
            "diagnostics": [d.as_dict() for d in self.diagnostics],
            "summary": {
                "errors": len(self.errors()),
                "warnings": len(self.warnings()),
                "infos": len(self.infos()),
            },
            "fragment": self.fragment.as_dict(),
            "sccs": [
                {
                    "predicates": sorted(scc.predicates),
                    "recursive": scc.recursive,
                    "linear": scc.linear,
                    "rules": list(scc.rule_indices),
                }
                for scc in self.dependency.sccs
            ],
        }
        if self.semantics is not None:
            out["semantics"] = self.semantics.as_dict()
        if self.cost is not None:
            out["cost"] = self.cost.as_dict()
        if self.maintain is not None:
            out["maintain"] = self.maintain.as_dict()
        if self.shard is not None:
            out["shard"] = self.shard.as_dict()
        return out


class ProgramAnalyzer:
    """Runs a pipeline of analysis passes over a program."""

    def __init__(self, passes: Optional[Iterable[AnalysisPass]] = None) -> None:
        self._passes: list[AnalysisPass] = list(
            DEFAULT_PASSES if passes is None else passes
        )

    def register(self, analysis_pass: AnalysisPass) -> None:
        """Append a custom pass to the pipeline."""
        self._passes.append(analysis_pass)

    def analyze(
        self,
        target: Analyzable,
        views: Optional[ViewSet] = None,
        source: Optional[ProgramSource] = None,
        goal: Optional[str] = None,
        semantic: bool = False,
        provenance: Optional[Sequence["RuleProvenance"]] = None,
    ) -> AnalysisReport:
        if isinstance(target, DatalogQuery):
            program, goal = target.program, target.goal
        else:
            program = target
        dependency = DependencyGraph(program)
        fragment = fragment_report(program, dependency)
        ctx = AnalysisContext(
            program=program,
            goal=goal,
            views=views,
            source=source,
            dependency=dependency,
            fragment=fragment,
        )
        if semantic:
            ctx.semantics = semantic_report(
                program,
                goal=goal,
                dependency=dependency,
                fragment=fragment,
                span_of=ctx.rule_span,
            )
            from repro.analysis.cost import CostParameters, CostReport
            from repro.analysis.maintain import MaintainReport
            from repro.analysis.plan import program_plan
            from repro.analysis.shard import ShardReport
            from repro.core import stats as _stats

            # one stratum plan, peeled by the boundedness report the
            # semantic pipeline already computed, feeds all three views
            with _stats.suspended():
                plan = program_plan(
                    program, goal, dependency, ctx.semantics.boundedness
                ).evaluate(CostParameters.assumed_for(program))
            ctx.cost = CostReport.of(plan)
            ctx.maintain = MaintainReport.of(plan)
            ctx.shard = ShardReport.of(plan)
        found: list[Diagnostic] = []
        passes = self._passes + (
            list(SEMANTIC_PASSES) if semantic else []
        )
        for analysis_pass in passes:
            found.extend(analysis_pass(ctx))
        # a duplicate rule is trivially subsumed by its twin: keep the
        # specific W101 and drop the redundant W102 for the same rule
        duplicated = {
            d.rule_index
            for d in found
            if d.code == "W101" and d.rule_index is not None
        }
        found = [
            d
            for d in found
            if not (d.code == "W102" and d.rule_index in duplicated)
        ]
        # optimizer provenance: diagnostics about synthesized rules
        # (no source span) inherit the originating rule's position as
        # ``derived_from`` instead of rendering with no location at all
        if provenance is not None:
            relocated = []
            for diagnostic in found:
                index = diagnostic.rule_index
                if (
                    diagnostic.span is None
                    and index is not None
                    and 0 <= index < len(provenance)
                ):
                    origin = provenance[index]
                    if origin.span is not None:
                        diagnostic = replace(diagnostic, span=origin.span)
                    elif origin.derived_from is not None:
                        diagnostic = replace(
                            diagnostic, derived_from=origin.derived_from
                        )
                relocated.append(diagnostic)
            found = relocated
        found.sort(key=Diagnostic.sort_key)
        return AnalysisReport(
            tuple(found), fragment, dependency, ctx.semantics, ctx.cost,
            ctx.maintain, ctx.shard,
        )


def analyze_query(
    target: Analyzable,
    views: Optional[ViewSet] = None,
    source: Optional[ProgramSource] = None,
    goal: Optional[str] = None,
    semantic: bool = False,
    provenance: Optional[Sequence["RuleProvenance"]] = None,
) -> AnalysisReport:
    """Analyze with the default pass pipeline.

    ``goal`` names the goal predicate when ``target`` is a bare program
    (a :class:`DatalogQuery` carries its own); it need not be an IDB —
    an unknown goal is reported as E003 rather than raised.  With
    ``semantic=True`` the :mod:`repro.analysis.semantics` pipeline also
    runs: the report carries a :class:`SemanticReport` and the
    ``I204``–``I208``/``W109``–``W111`` diagnostics.  ``provenance``
    (per-rule :class:`~repro.analysis.optimize.RuleProvenance`, e.g.
    from :func:`~repro.analysis.optimize.optimize_program`) relocates
    findings about synthesized rules onto their originating source rule
    via the diagnostics' ``derived_from`` field.
    """
    return ProgramAnalyzer().analyze(
        target,
        views=views,
        source=source,
        goal=goal,
        semantic=semantic,
        provenance=provenance,
    )


class ProgramAnalysisError(ValueError):
    """A procedure refused its input because analysis found errors."""

    def __init__(self, report: AnalysisReport, context: str) -> None:
        self.report = report
        details = "; ".join(d.render() for d in report.errors())
        super().__init__(f"{context}: {details}")
