"""The built-in analysis passes.

Each pass is a plain function ``(AnalysisContext) -> Iterable[Diagnostic]``;
:class:`~repro.analysis.analyzer.ProgramAnalyzer` runs every registered
pass and merges the findings.  Passes never mutate the program.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Iterator, Optional

from repro.analysis.cost import BOUND_CAP, fmt_bound
from repro.analysis.dependency import rule_body_components
from repro.analysis.diagnostics import Diagnostic, make
from repro.core.atoms import Atom
from repro.core.cq import ConjunctiveQuery
from repro.core.datalog import Rule
from repro.core.optimize import rule_subsumes
from repro.core.parser import Span
from repro.core.terms import Variable
from repro.core.ucq import UCQ

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.analyzer import AnalysisContext


def _view_atoms(definition: Any) -> Iterator[Atom]:
    """Every atom of a view definition (CQ, UCQ or Datalog)."""
    if isinstance(definition, ConjunctiveQuery):
        yield from definition.atoms
    elif isinstance(definition, UCQ):
        for disjunct in definition.disjuncts:
            yield from disjunct.atoms
    else:
        for rule in definition.program.rules:
            yield rule.head
            yield from rule.body


def check_safety(ctx: "AnalysisContext") -> Iterable[Diagnostic]:
    """E002 — rules whose head variables do not all occur in the body.

    Safe rules are enforced by :class:`~repro.core.datalog.Rule` itself,
    so violations can only come from lenient source parsing
    (:func:`~repro.core.parser.parse_program_source`).
    """
    if ctx.source is None:
        return
    for entry in ctx.source.entries:
        if entry.rule is None:
            yield make("E002", entry.error or "unsafe rule", entry.head_span)


def check_empty(ctx: "AnalysisContext") -> Iterable[Diagnostic]:
    """E005 — a program with no (safe) rules cannot derive anything."""
    if not ctx.program.rules:
        yield make("E005", "program contains no rules")


def check_goal(ctx: "AnalysisContext") -> Iterable[Diagnostic]:
    """E003 — the goal must be an IDB (the head of some rule)."""
    if ctx.goal is None:
        return
    if ctx.goal not in ctx.dependency.idb:
        known = ", ".join(sorted(ctx.dependency.idb)) or "none"
        yield make(
            "E003",
            f"goal predicate {ctx.goal} is not the head of any rule "
            f"(IDBs: {known})",
        )


def check_arity_consistency(ctx: "AnalysisContext") -> Iterable[Diagnostic]:
    """E001 — every predicate must be used with one arity everywhere.

    Covers rule heads, rule bodies, and (when views are supplied) the
    base-schema atoms of every view definition, so a query/view pair
    that disagrees on a shared base relation is flagged before any
    decision procedure runs.
    """
    seen: dict[str, tuple[int, Optional[Span], str]] = {}

    def visit(
        atom: Atom, span: Optional[Span], where: str
    ) -> Iterator[Diagnostic]:
        first = seen.get(atom.pred)
        if first is None:
            seen[atom.pred] = (atom.arity, span, where)
        elif first[0] != atom.arity:
            origin = f"first used with arity {first[0]} ({first[2]}"
            if first[1] is not None:
                origin += f" at {first[1].label()}"
            origin += ")"
            yield make(
                "E001",
                f"{atom.pred} used with arity {atom.arity} in {where}, "
                f"{origin}",
                span,
            )

    for index, rule in enumerate(ctx.program.rules):
        yield from visit(
            rule.head, ctx.head_span(index), f"head of rule #{index}"
        )
        for position, atom in enumerate(rule.body):
            yield from visit(
                atom,
                ctx.atom_span(index, position),
                f"body of rule #{index}",
            )
    if ctx.views is not None:
        for view in ctx.views:
            for atom in _view_atoms(view.definition):
                yield from visit(atom, None, f"definition of view {view.name}")


def check_duplicate_rules(ctx: "AnalysisContext") -> Iterable[Diagnostic]:
    """W101 — rules identical up to a renaming of variables."""

    def canonical(rule: Rule) -> tuple[Any, ...]:
        renaming: dict[Variable, str] = {}

        def key(atom: Atom) -> tuple[Any, ...]:
            parts = []
            for term in atom.args:
                if isinstance(term, Variable):
                    name = renaming.setdefault(term, f"_{len(renaming)}")
                    parts.append(("var", name))
                else:
                    parts.append(("const", term))
            return (atom.pred, tuple(parts))

        return (key(rule.head), tuple(key(a) for a in rule.body))

    first_of: dict[tuple, int] = {}
    for index, rule in enumerate(ctx.program.rules):
        shape = canonical(rule)
        original = first_of.setdefault(shape, index)
        if original != index:
            yield make(
                "W101",
                f"rule #{index} duplicates rule #{original} "
                f"({ctx.program.rules[original]!r})",
                ctx.rule_span(index),
                rule_index=index,
            )


def check_subsumed_rules(ctx: "AnalysisContext") -> Iterable[Diagnostic]:
    """W102 — rules made redundant by a more general rule.

    Uses the sound syntactic subsumption of
    :func:`repro.core.optimize.rule_subsumes` (IDB body atoms treated as
    opaque), so a flagged rule can be dropped without changing the
    query on any instance.
    """
    rules = ctx.program.rules
    for index, rule in enumerate(rules):
        for other_index, other in enumerate(rules):
            if other_index == index:
                continue
            if not rule_subsumes(other, rule):
                continue
            # mutual subsumption: keep the earlier rule, flag the later
            if other_index > index and rule_subsumes(rule, other):
                continue
            yield make(
                "W102",
                f"rule #{index} is subsumed by rule #{other_index} "
                f"({other!r})",
                ctx.rule_span(index),
                rule_index=index,
            )
            break


def check_constant_in_head(ctx: "AnalysisContext") -> Iterable[Diagnostic]:
    """W103 — non-fact rules whose head contains a constant.

    Ground facts (empty body) are normal data; a *derivation* rule with
    a constant head position usually indicates a typo (an upper-case
    variable name becomes a constant in the text syntax).
    """
    for index, rule in enumerate(ctx.program.rules):
        if not rule.body:
            continue
        constants = sorted(map(repr, rule.head.constants()))
        if constants:
            yield make(
                "W103",
                f"head of rule #{index} contains constant(s) "
                f"{', '.join(constants)}",
                ctx.head_span(index),
                rule_index=index,
            )


def check_cartesian_body(ctx: "AnalysisContext") -> Iterable[Diagnostic]:
    """W104 — rule bodies that join variable-disjoint parts.

    Such a body is a cartesian product: the engine enumerates the full
    cross product of the parts' matches each time the rule fires.  Only
    flagged when at least two parts bind variables (nullary markers are
    harmless).
    """
    for index, rule in enumerate(ctx.program.rules):
        components = rule_body_components(rule)
        meaningful = [
            comp
            for comp in components
            if any(rule.body[i].variables() for i in comp)
        ]
        if len(meaningful) > 1:
            shaped = " / ".join(
                "{" + ", ".join(repr(rule.body[i]) for i in comp) + "}"
                for comp in meaningful
            )
            yield make(
                "W104",
                f"body of rule #{index} is a cartesian product of "
                f"{shaped}",
                ctx.rule_span(index),
                rule_index=index,
            )


def check_unreachable_rules(ctx: "AnalysisContext") -> Iterable[Diagnostic]:
    """W105 — rules the goal does not depend on (dead under the goal)."""
    if ctx.goal is None or ctx.goal not in ctx.dependency.idb:
        return
    for index in ctx.dependency.unreachable_rule_indices(ctx.goal):
        rule = ctx.program.rules[index]
        yield make(
            "W105",
            f"rule #{index} for {rule.head.pred} is unreachable from "
            f"goal {ctx.goal} and never contributes to the answer",
            ctx.rule_span(index),
            rule_index=index,
        )


def check_unused_predicates(ctx: "AnalysisContext") -> Iterable[Diagnostic]:
    """W106 — IDBs that are defined but never read (and are not the goal)."""
    unused = ctx.dependency.unused_predicates(ctx.goal)
    for pred in sorted(unused):
        index = next(
            i
            for i, rule in enumerate(ctx.program.rules)
            if rule.head.pred == pred
        )
        yield make(
            "W106",
            f"predicate {pred} is defined (rule #{index}) but never "
            "used in any rule body",
            ctx.head_span(index),
            rule_index=index,
        )


def check_view_shadowing(ctx: "AnalysisContext") -> Iterable[Diagnostic]:
    """W108 — a view whose name collides with a query IDB."""
    if ctx.views is None:
        return
    for view in ctx.views:
        if view.name in ctx.dependency.idb:
            yield make(
                "W108",
                f"view {view.name} shadows an IDB predicate of the "
                "query program",
            )


def check_fragment(ctx: "AnalysisContext") -> Iterable[Diagnostic]:
    """I201/I202/I203 — fragment label, witnesses, recursion structure."""
    report = ctx.fragment
    shape = []
    if report.recursive:
        shape.append("linear" if report.linear else "nonlinear")
    if not report.connected:
        shape.append("disconnected bodies")
    suffix = f" ({', '.join(shape)})" if shape else ""
    yield make("I201", f"program fragment: {report.label}{suffix}")
    for reason in report.explanations():
        yield make("I202", reason)
    recursive_sccs = [s for s in ctx.dependency.sccs if s.recursive]
    if recursive_sccs:
        described = "; ".join(
            "{%s}%s" % (
                ", ".join(sorted(s.predicates)),
                "" if s.linear else " (nonlinear)",
            )
            for s in recursive_sccs
        )
        yield make(
            "I203",
            f"{len(recursive_sccs)} recursive SCC(s): {described}",
        )


def check_binding_patterns(ctx: "AnalysisContext") -> Iterable[Diagnostic]:
    """I204 — the adornments each IDB is called with from the goal."""
    if ctx.semantics is None:
        return
    for pred, patterns in ctx.semantics.adornments.items():
        yield make(
            "I204",
            f"{pred} is called with binding pattern(s) "
            f"{', '.join(patterns)}",
        )


def check_boundedness(ctx: "AnalysisContext") -> Iterable[Diagnostic]:
    """I205/W110 — boundedness verdict and vacuous recursive rules."""
    if ctx.semantics is None:
        return
    report = ctx.semantics.boundedness
    for dropped, subsuming in report.vacuous_rules:
        yield make(
            "W110",
            f"recursive rule #{dropped} is subsumed by rule "
            f"#{subsuming} ({ctx.program.rules[subsuming]!r}) and can "
            "be dropped without changing the query",
            ctx.rule_span(dropped),
            rule_index=dropped,
        )
    if report.bounded and ctx.fragment.recursive:
        suffix = (
            f"; equivalent to a UCQ with {len(report.ucq.disjuncts)} "
            "disjunct(s)"
            if report.ucq is not None
            else ""
        )
        yield make("I205", f"program is bounded: {report.reason}{suffix}")


def check_sorts(ctx: "AnalysisContext") -> Iterable[Diagnostic]:
    """I206/W109 — inferred column sorts and kind conflicts."""
    if ctx.semantics is None:
        return
    report = ctx.semantics.sorts
    for sort in report.conflicts():
        yield make(
            "W109",
            f"columns of one sort carry mixed constant kinds: "
            f"{sort.describe()}",
        )
    if report.classes:
        yield make(
            "I206",
            f"{len(report.classes)} column sort(s) inferred"
            + (
                f", {len(report.conflicts())} conflicting"
                if report.conflicts()
                else ""
            ),
        )


def check_magic_applicable(ctx: "AnalysisContext") -> Iterable[Diagnostic]:
    """I207 — recursive IDBs the magic-sets transformation would restrict.

    Fires when the goal reaches a recursive predicate with at least one
    bound argument under left-to-right sideways information passing —
    exactly the opportunity ``repro optimize`` (pass ``magic_sets``)
    exploits.
    """
    if ctx.semantics is None or ctx.goal is None:
        return
    if ctx.goal not in ctx.dependency.idb:
        return
    from repro.analysis.optimize import magic_opportunities

    opportunities = magic_opportunities(
        ctx.program, ctx.goal, ctx.dependency, ctx.semantics.adornments
    )
    for pred in sorted(opportunities):
        patterns = ", ".join(opportunities[pred])
        yield make(
            "I207",
            f"recursive predicate {pred} is called with bound "
            f"pattern(s) {patterns}; magic-sets transformation "
            "applicable (repro optimize)",
        )


def check_inlinable(ctx: "AnalysisContext") -> Iterable[Diagnostic]:
    """I208 — non-recursive single-use predicates worth inlining."""
    if ctx.semantics is None:
        return
    from repro.analysis.optimize import inline_candidates

    for pred in inline_candidates(ctx.program, ctx.goal, ctx.dependency):
        index = next(
            i
            for i, rule in enumerate(ctx.program.rules)
            if rule.head.pred == pred
        )
        yield make(
            "I208",
            f"predicate {pred} is non-recursive and used by exactly "
            "one body atom; inlining applicable (repro optimize)",
            ctx.head_span(index),
            rule_index=index,
        )


def check_dead_body_atoms(ctx: "AnalysisContext") -> Iterable[Diagnostic]:
    """W111 — body atoms removable without changing the rule's output."""
    if ctx.semantics is None:
        return
    from repro.analysis.optimize import dead_body_atoms

    for rule_index, atom_index, atom in dead_body_atoms(ctx.program):
        yield make(
            "W111",
            f"body atom {atom!r} of rule #{rule_index} is redundant: "
            "dropping it derives exactly the same facts",
            ctx.atom_span(rule_index, atom_index),
            rule_index=rule_index,
        )


def _cost_anchor(
    ctx: "AnalysisContext", rule_indices: tuple[int, ...]
) -> Optional[Span]:
    """The first anchorable source span among ``rule_indices``."""
    for index in rule_indices:
        span = ctx.rule_span(index)
        if span is not None:
            return span
    return None


def check_cardinality_summary(ctx: "AnalysisContext") -> Iterable[Diagnostic]:
    """I209 — one-line summary of the static cost analysis."""
    if ctx.cost is None:
        return
    report = ctx.cost
    mode = "assumed" if report.parameters.assumed else "measured"
    yield make(
        "I209",
        f"predicted <= {report.total_bound} fact(s) across "
        f"{len(report.bounds)} IDB predicate(s), total join cost <= "
        f"{report.total_join_cost} ({mode} parameters, adom "
        f"{report.parameters.adom}); `repro analyze cost` prints the "
        "full table",
    )


def check_cardinality_blowup(ctx: "AnalysisContext") -> Iterable[Diagnostic]:
    """W112 — joins forced through a large cartesian step.

    Sharper than W104 (which flags every variable-disjoint body): this
    fires only when the cost model predicts the cross product actually
    blows up past the active-domain width, and quantifies the risk.
    """
    if ctx.cost is None:
        return
    adom = ctx.cost.parameters.adom
    for rc in ctx.cost.rules:
        if rc.cartesian and rc.join_cost > adom:
            yield make(
                "W112",
                f"rule #{rc.rule_index} joins variable-disjoint parts: "
                f"up to {rc.join_cost} intermediate tuple(s) for an "
                f"output bound of {rc.output_bound}",
                ctx.rule_span(rc.rule_index),
                rule_index=rc.rule_index,
            )


def check_cardinality_recursion(ctx: "AnalysisContext") -> Iterable[Diagnostic]:
    """W113 — recursive predicates whose bound is super-linear in adom."""
    if ctx.cost is None:
        return
    adom = ctx.cost.parameters.adom
    for pred in sorted(ctx.cost.bounds):
        pb = ctx.cost.bounds[pred]
        if pb.recursive and pb.bound > adom:
            yield make(
                "W113",
                f"recursive predicate {pred}/{pb.arity} can grow to "
                f"{pb.bound} fact(s) ({pb.basis}); goal binding or "
                "magic sets (repro optimize) restrict the demand",
                _cost_anchor(ctx, pb.rule_indices),
            )


def check_cardinality_unbindable(ctx: "AnalysisContext") -> Iterable[Diagnostic]:
    """W114 — rules whose cost is pinned by a join-order-immune atom.

    The dominant atom shares no variable with the rest of the body, so
    no join order can use earlier bindings to shrink its scan — the
    predicted bound is structural, not a planning artifact.
    """
    if ctx.cost is None:
        return
    for rc in ctx.cost.rules:
        dom = rc.dominant
        if (
            dom is not None
            and not dom.bindable
            and len(rc.atoms) > 1
            and dom.bound > 1
        ):
            yield make(
                "W114",
                f"rule #{rc.rule_index} is dominated by {dom.atom} "
                f"(<= {dom.bound} row(s)), which shares no variable "
                "with the rest of the body and cannot be shrunk by "
                "any join order",
                ctx.rule_span(rc.rule_index),
                rule_index=rc.rule_index,
            )


def check_maintain_summary(ctx: "AnalysisContext") -> Iterable[Diagnostic]:
    """I210 — the maintenance plan in one line."""
    if ctx.maintain is None:
        return
    report = ctx.maintain
    yield make(
        "I210",
        f"maintenance plan: {report.counting_strata} counting / "
        f"{report.dred_strata} DRed stratum(era) over "
        f"{len(report.strata)} SCC(s); `repro analyze maintain` "
        "prints the full classification",
    )


def check_maintain_self(ctx: "AnalysisContext") -> Iterable[Diagnostic]:
    """I211 — strata maintainable without touching the base.

    Reported only where it is news: insert-monotone strata (no
    retraction can reach them) and recursive strata the analysis
    proves counting-safe; plain non-recursive counting strata are
    self-maintainable by construction and stay quiet.
    """
    if ctx.maintain is None:
        return
    for stratum in ctx.maintain.strata:
        if not stratum.self_maintainable:
            continue
        if not (stratum.insert_monotone
                or (stratum.recursive and stratum.counting_safe)):
            continue
        traits = []
        if stratum.insert_monotone:
            traits.append("insert-monotone: no retraction reaches it")
        if stratum.recursive and stratum.counting_safe:
            traits.append("recursive but counting-safe")
        yield make(
            "I211",
            f"stratum [{', '.join(stratum.predicates)}] is "
            f"self-maintainable ({'; '.join(traits)})",
            _cost_anchor(ctx, stratum.rule_indices),
        )


def check_maintain_delta(ctx: "AnalysisContext") -> Iterable[Diagnostic]:
    """I212 — the predicted update impact at unit update size."""
    if ctx.maintain is None:
        return
    report = ctx.maintain
    yield make(
        "I212",
        f"predicted |delta| <= {fmt_bound(report.total_delta_bound)} "
        f"fact(s) per {report.update_size}-fact update across "
        f"{len(report.bounds)} predicate(s)",
    )


def check_maintain_amplification(
    ctx: "AnalysisContext",
) -> Iterable[Diagnostic]:
    """W115 — retractions can cascade super-linearly.

    Fires on DRed strata a retraction can actually reach whose
    relation bound exceeds the active-domain width: one deleted base
    fact may change up to the whole relation.  (The message keeps its
    overdelete/rederive wording, which the pinned plan output carries,
    until the ``dred`` label is renamed.)
    """
    if ctx.maintain is None:
        return
    adom = ctx.maintain.parameters.adom
    for stratum in ctx.maintain.strata:
        if stratum.strategy != "dred" or stratum.insert_monotone:
            continue
        risky: dict[str, int] = {}
        for pred in stratum.predicates:
            bound = ctx.maintain.bound_of(pred)
            if bound is not None and bound.relation_bound > adom:
                risky[pred] = bound.bound
        if risky:
            yield make(
                "W115",
                f"retraction amplification risk in stratum "
                f"[{', '.join(stratum.predicates)}]: deleting one base "
                f"fact may churn up to {max(risky.values())} fact(s) "
                f"of {', '.join(sorted(risky))} through "
                "overdelete/rederive",
                _cost_anchor(ctx, stratum.rule_indices),
            )


def check_maintain_dred_on_safe(
    ctx: "AnalysisContext",
) -> Iterable[Diagnostic]:
    """W116 — recursion that only *looks* like it needs DRed.

    A recursive stratum whose same-SCC rules are all provably vacuous
    is counting-safe; maintaining it as DRed recomputes the stratum on
    every retraction for recursion that cannot derive anything new.
    """
    if ctx.maintain is None:
        return
    for stratum in ctx.maintain.strata:
        if stratum.recursive and stratum.counting_safe:
            vacuous = (
                len(stratum.rule_indices)
                - len(stratum.effective_rule_indices)
            )
            yield make(
                "W116",
                f"stratum [{', '.join(stratum.predicates)}] is recursive "
                f"only through {vacuous} vacuous rule(s); DRed would be "
                "wasted — counting maintenance applies",
                _cost_anchor(ctx, stratum.rule_indices),
            )


def check_maintain_unbounded(ctx: "AnalysisContext") -> Iterable[Diagnostic]:
    """W117 — delta bounds that saturate: no useful growth guarantee."""
    if ctx.maintain is None:
        return
    saturated = sorted(
        pred
        for pred, bound in ctx.maintain.bounds.items()
        if bound.bound >= BOUND_CAP
    )
    if saturated:
        yield make(
            "W117",
            f"delta bound saturated for {', '.join(saturated)}: a "
            "single update's impact cannot be usefully bounded "
            "(admission control degrades to accept-all)",
        )


def check_shard_summary(ctx: "AnalysisContext") -> Iterable[Diagnostic]:
    """I213 — the shard plan in one line."""
    if ctx.shard is None:
        return
    report = ctx.shard
    yield make(
        "I213",
        f"shard plan for {report.workers} worker(s): "
        f"{report.communication_free} communication-free, "
        f"{report.exchange_required} exchange-required, "
        f"{report.sequential} sequential stratum(a); "
        "`repro analyze shard` prints the full plan",
    )


def check_shard_commfree(ctx: "AnalysisContext") -> Iterable[Diagnostic]:
    """I214 — strata that parallelize with zero tuple exchange."""
    if ctx.shard is None:
        return
    for stratum in ctx.shard.strata:
        if stratum.classification != "communication_free":
            continue
        keys = ", ".join(
            f"{pred}[{pos}]" for pred, pos in sorted(stratum.keys.items())
        )
        yield make(
            "I214",
            f"stratum [{', '.join(stratum.predicates)}] is "
            f"communication-free: hash-partition {keys} and workers "
            "never exchange tuples",
            _cost_anchor(ctx, stratum.rule_indices),
        )


def check_shard_exchange(ctx: "AnalysisContext") -> Iterable[Diagnostic]:
    """I215 — the predicted per-round exchange volume."""
    if ctx.shard is None:
        return
    report = ctx.shard
    if not report.exchange_required:
        return
    yield make(
        "I215",
        "predicted exchange volume <= "
        f"{fmt_bound(report.total_exchange_bound)} row transfer(s) per "
        f"round across {report.exchange_required} exchange-required "
        f"stratum(a) on {report.workers} worker(s)",
    )


def check_shard_exchange_heavy(
    ctx: "AnalysisContext",
) -> Iterable[Diagnostic]:
    """W118 — strata whose exchange bound dwarfs the relation bound.

    Fires when re-shuffling the deltas may move more rows per round
    than the active domain is wide — the parallel speedup is then easy
    to lose to communication, and a goal binding (magic sets) that
    shrinks the deltas matters more than more workers.
    """
    if ctx.shard is None:
        return
    adom = ctx.shard.parameters.adom
    for stratum in ctx.shard.strata:
        if stratum.classification != "exchange_required":
            continue
        if stratum.exchange_bound > adom:
            yield make(
                "W118",
                f"stratum [{', '.join(stratum.predicates)}] re-shuffles "
                f"up to {fmt_bound(stratum.exchange_bound)} row(s) "
                "between every semi-naive round; no common partition "
                "key survives its rules",
                _cost_anchor(ctx, stratum.rule_indices),
            )


def check_shard_sequential(ctx: "AnalysisContext") -> Iterable[Diagnostic]:
    """W119 — strata no worker count can help."""
    if ctx.shard is None:
        return
    for stratum in ctx.shard.strata:
        if stratum.classification != "sequential":
            continue
        yield make(
            "W119",
            f"stratum [{', '.join(stratum.predicates)}] is a sequential "
            f"bottleneck under sharding: {stratum.shard_basis}",
            _cost_anchor(ctx, stratum.rule_indices),
        )


#: Extra passes run only under ``analyze(..., semantic=True)``.
SEMANTIC_PASSES = (
    check_binding_patterns,
    check_boundedness,
    check_sorts,
    check_magic_applicable,
    check_inlinable,
    check_dead_body_atoms,
    check_cardinality_summary,
    check_cardinality_blowup,
    check_cardinality_recursion,
    check_cardinality_unbindable,
    check_maintain_summary,
    check_maintain_self,
    check_maintain_delta,
    check_maintain_amplification,
    check_maintain_dred_on_safe,
    check_maintain_unbounded,
    check_shard_summary,
    check_shard_commfree,
    check_shard_exchange,
    check_shard_exchange_heavy,
    check_shard_sequential,
)


#: The analyzer's default pipeline, in reporting order.
DEFAULT_PASSES = (
    check_safety,
    check_empty,
    check_goal,
    check_arity_consistency,
    check_duplicate_rules,
    check_subsumed_rules,
    check_constant_in_head,
    check_cartesian_body,
    check_unreachable_rules,
    check_unused_predicates,
    check_view_shadowing,
    check_fragment,
)
