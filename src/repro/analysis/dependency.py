"""Predicate dependency analysis: SCC condensation, recursion shape,
fragment classification with explanations, and evaluation strata.

The predicate dependency graph has an edge ``P -> R`` when some rule
with head ``P`` uses ``R`` in its body.  Its strongly connected
components, listed dependencies-first, give the *evaluation strata* the
stratified fixpoint engine (:func:`repro.core.evaluation.
stratified_fixpoint`) runs one at a time; per-SCC we also classify
recursive vs. nonrecursive and linear vs. nonlinear recursion.

:func:`fragment_report` reproduces the fragment tests of
:class:`~repro.core.datalog.DatalogProgram` (§2, Tables 1–2 of the
paper) but keeps *witnesses*: which rule, and why, breaks MDL,
frontier-guardedness, or body connectivity — today's
``is_frontier_guarded`` only returns a bare bool.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Optional

import networkx as nx

from repro.core.datalog import DatalogProgram, DatalogQuery, Rule
from repro.core.terms import Variable


@dataclass(frozen=True)
class SCC:
    """One strongly connected component of the dependency graph."""

    index: int
    predicates: frozenset[str]
    rule_indices: tuple[int, ...]
    rules: tuple[Rule, ...]
    recursive: bool
    linear: bool

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = (
            ("linear " if self.linear else "nonlinear ") + "recursive"
            if self.recursive
            else "nonrecursive"
        )
        return f"SCC({sorted(self.predicates)}, {kind}, {len(self.rules)} rules)"


class DependencyGraph:
    """Dependency structure of a Datalog program.

    ``sccs`` lists the condensation in *evaluation order*: a component
    appears after every component it depends on, so evaluating the
    components left to right never revisits a finished one.
    """

    def __init__(self, program: DatalogProgram) -> None:
        self.program = program
        self.idb = program.idb_predicates()
        self.edb = program.edb_predicates()
        graph = nx.DiGraph()
        graph.add_nodes_from(sorted(self.idb))
        for rule in program.rules:
            for atom in rule.body:
                if atom.pred in self.idb:
                    graph.add_edge(rule.head.pred, atom.pred)
        self.graph = graph

    @cached_property
    def sccs(self) -> tuple[SCC, ...]:
        condensation = nx.condensation(self.graph)
        members = condensation.graph["mapping"]  # pred -> component id
        rules_of: dict[int, list[int]] = {}
        for index, rule in enumerate(self.program.rules):
            rules_of.setdefault(members[rule.head.pred], []).append(index)
        out = []
        # Condensation edges point from dependent to dependency, so the
        # *reversed* topological order lists dependencies first.
        order = list(reversed(list(nx.topological_sort(condensation))))
        for position, comp_id in enumerate(order):
            preds = frozenset(condensation.nodes[comp_id]["members"])
            indices = tuple(rules_of.get(comp_id, ()))
            rules = tuple(self.program.rules[i] for i in indices)
            recursive = len(preds) > 1 or any(
                self.graph.has_edge(p, p) for p in preds
            )
            linear = all(
                sum(1 for atom in rule.body if atom.pred in preds) <= 1
                for rule in rules
            )
            out.append(
                SCC(position, preds, indices, rules, recursive, linear)
            )
        return tuple(out)

    def scc_of(self, pred: str) -> SCC:
        for scc in self.sccs:
            if pred in scc.predicates:
                return scc
        raise KeyError(pred)

    def recursive_predicates(self) -> set[str]:
        out: set[str] = set()
        for scc in self.sccs:
            if scc.recursive:
                out |= scc.predicates
        return out

    def is_linear(self) -> bool:
        """Every recursive SCC uses at most one same-SCC body atom per rule."""
        return all(scc.linear for scc in self.sccs if scc.recursive)

    def reachable_from(self, goal: str) -> set[str]:
        """IDB predicates the goal transitively depends on (goal included)."""
        if goal not in self.graph:
            return set()
        return {goal} | nx.descendants(self.graph, goal)

    def unreachable_rule_indices(self, goal: str) -> list[int]:
        needed = self.reachable_from(goal)
        return [
            index
            for index, rule in enumerate(self.program.rules)
            if rule.head.pred not in needed
        ]

    def unused_predicates(self, goal: Optional[str] = None) -> set[str]:
        """IDBs never used in any body and distinct from the goal."""
        used = {
            atom.pred
            for rule in self.program.rules
            for atom in rule.body
        }
        return {
            pred
            for pred in self.idb
            if pred not in used and pred != goal
        }

    def prune_unreachable(self, goal: str) -> DatalogProgram:
        """The subprogram of rules the goal transitively depends on.

        A goal that is not an IDB head of this program — typically one
        defined only by views layered on top of it — depends on *every*
        rule for all this graph can tell, so the program is returned
        unchanged rather than emptied.  (``reachable_from`` returns the
        empty set for such a goal; pruning against it would silently
        drop the whole program and make downstream evaluation
        vacuously empty.)
        """
        if goal not in self.graph:
            return self.program
        needed = self.reachable_from(goal)
        kept = tuple(
            rule for rule in self.program.rules if rule.head.pred in needed
        )
        if len(kept) == len(self.program.rules):
            return self.program
        return DatalogProgram(kept)


def evaluation_strata(program: DatalogProgram) -> list[SCC]:
    """The SCCs of ``program`` in evaluation (dependencies-first) order."""
    return list(DependencyGraph(program).sccs)


def prune_unreachable(query: DatalogQuery) -> DatalogQuery:
    """Drop every rule whose head the goal does not depend on.

    Sound for fixpoint evaluation: removed rules can only derive facts
    for predicates the goal never reads (directly or transitively), so
    the goal relation of the fixpoint is unchanged.  Delegates to
    :meth:`DependencyGraph.prune_unreachable`, which keeps the program
    intact when the goal is not an IDB head.
    """
    pruned = DependencyGraph(query.program).prune_unreachable(query.goal)
    if pruned is query.program:
        return query
    return DatalogQuery(pruned, query.goal, query.name)


# ---------------------------------------------------------------------------
# fragment classification with explanations
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FragmentViolation:
    """Why one rule keeps the program out of a fragment."""

    rule_index: int
    rule: Rule
    reason: str


@dataclass(frozen=True)
class FragmentReport:
    """Fragment membership of a program with per-rule witnesses."""

    label: str
    recursive: bool
    monadic: bool
    frontier_guarded: bool
    linear: bool
    connected: bool
    monadic_violations: tuple[FragmentViolation, ...]
    guard_violations: tuple[FragmentViolation, ...]
    connectivity_violations: tuple[FragmentViolation, ...]

    def explanations(self) -> list[str]:
        """Human-readable reasons for every failed fragment test."""
        out = []
        for violation in self.monadic_violations:
            out.append(f"not MDL: {violation.reason}")
        if not self.monadic:
            for violation in self.guard_violations:
                out.append(f"not frontier-guarded: {violation.reason}")
        for violation in self.connectivity_violations:
            out.append(f"not connected: {violation.reason}")
        return out

    def as_dict(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "recursive": self.recursive,
            "monadic": self.monadic,
            "frontier_guarded": self.frontier_guarded,
            "linear": self.linear,
            "connected": self.connected,
            "explanations": self.explanations(),
        }


def _body_components(rule: Rule) -> list[list[int]]:
    """Connected components of the body's variable-sharing graph.

    Each atom is joined to the first atom of each of its variables:
    the same components as joining every pair that shares one, with
    O(n) edges instead of n² pair tests.
    """
    graph = nx.Graph()
    graph.add_nodes_from(range(len(rule.body)))
    first_atom: dict[Variable, int] = {}
    for i, atom in enumerate(rule.body):
        for var in atom.variables():
            graph.add_edge(i, first_atom.setdefault(var, i))
    return [sorted(c) for c in nx.connected_components(graph)]


def rule_body_components(rule: Rule) -> list[list[int]]:
    """Public alias used by the cartesian-product diagnostic pass."""
    return _body_components(rule)


def fragment_report(
    program: DatalogProgram, dependency: Optional[DependencyGraph] = None
) -> FragmentReport:
    """Classify ``program`` with explanations (cf. §2 and Tables 1–2).

    The label follows :meth:`DatalogProgram.fragment`, including the
    paper's convention that every MDL program counts as
    frontier-guarded; the violation lists say which rule breaks which
    test and why.
    """
    dependency = dependency or DependencyGraph(program)
    edb = dependency.edb

    monadic_violations = []
    guard_violations = []
    connectivity_violations = []
    for index, rule in enumerate(program.rules):
        if rule.head.arity > 1:
            monadic_violations.append(
                FragmentViolation(
                    index,
                    rule,
                    f"rule #{index} defines {rule.head.pred}/"
                    f"{rule.head.arity}, but MDL IDBs must be unary",
                )
            )
        if not rule.is_frontier_guarded(edb):
            frontier = ", ".join(
                sorted(v.name for v in rule.frontier())
            )
            guard_violations.append(
                FragmentViolation(
                    index,
                    rule,
                    f"head variables {{{frontier}}} of rule #{index} do "
                    "not co-occur in any extensional body atom",
                )
            )
        components = _body_components(rule)
        if len(components) > 1:
            shaped = " / ".join(
                "{" + ", ".join(repr(rule.body[i]) for i in comp) + "}"
                for comp in components
            )
            connectivity_violations.append(
                FragmentViolation(
                    index,
                    rule,
                    f"body of rule #{index} splits into independent "
                    f"parts {shaped}",
                )
            )

    recursive = any(scc.recursive for scc in dependency.sccs)
    monadic = not monadic_violations
    frontier_guarded = monadic or not guard_violations
    if not recursive:
        label = "nonrecursive"
    elif monadic:
        label = "MDL"
    elif frontier_guarded:
        label = "FGDL"
    else:
        label = "Datalog"
    return FragmentReport(
        label=label,
        recursive=recursive,
        monadic=monadic,
        frontier_guarded=frontier_guarded,
        linear=dependency.is_linear(),
        connected=not connectivity_violations,
        monadic_violations=tuple(monadic_violations),
        guard_violations=tuple(guard_violations),
        connectivity_violations=tuple(connectivity_violations),
    )
