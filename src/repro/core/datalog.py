"""Datalog: rules, programs, queries and fragment classification (§2).

* :class:`Rule` — ``P(x̄) ← φ(x̄, ȳ)`` with the safety condition.
* :class:`DatalogProgram` — a finite set of rules; knows its IDB/EDB split,
  dependency graph, recursion, and the fragments the paper studies:
  Monadic Datalog (all IDBs unary) and Frontier-Guarded Datalog (head
  variables co-occur in a single *extensional* body atom).
* :class:`DatalogQuery` — a program plus a distinguished goal predicate.

Evaluation lives in :mod:`repro.core.evaluation`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Iterable, Mapping, Optional, Sequence

import networkx as nx

from repro.core.atoms import Atom, atoms_variables
from repro.core.instance import Instance
from repro.core.terms import Variable
from repro.util.fresh import FreshNames


def _hash_once(self: Any) -> int:
    """The dataclass hash of the fields, computed once per object.

    Every per-rule and per-program cache hashes its key, and hashing a
    rule or program walks every atom in it.
    """
    try:
        value: int = self._hash
    except AttributeError:
        value = hash(tuple(getattr(self, f.name) for f in fields(self)))
        object.__setattr__(self, "_hash", value)
    return value


def _fields_only(self: Any) -> dict[str, Any]:
    """Pickled state without the cached hash: a process started by
    ``spawn`` hashes strings with another seed."""
    return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class Rule:
    """A Datalog rule ``head ← body``.

    Safety: every head variable occurs in the body.  An empty body is
    permitted only for ground heads (unconditional facts).
    """

    head: Atom
    body: tuple[Atom, ...]

    def __init__(self, head: Atom, body: Iterable[Atom]) -> None:
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "body", tuple(body))
        body_vars = atoms_variables(self.body)
        for var in head.variables():
            if var not in body_vars:
                raise ValueError(f"unsafe rule: {var} not in body of {self!r}")

    __hash__ = _hash_once
    __getstate__ = _fields_only

    def variables(self) -> set[Variable]:
        return self.head.variables() | atoms_variables(self.body)

    def frontier(self) -> set[Variable]:
        """The head variables (the rule's frontier)."""
        return self.head.variables()

    def body_predicates(self) -> set[str]:
        return {a.pred for a in self.body}

    def is_frontier_guarded(self, edb: set[str]) -> bool:
        """All head variables co-occur in one extensional body atom.

        Rules with at most one head variable... still need a guard atom
        unless the frontier is empty.  Following the paper's convention,
        any MDL program counts as frontier-guarded; callers should check
        :meth:`DatalogProgram.is_frontier_guarded` which applies it.
        """
        front = self.frontier()
        if not front:
            return True
        return any(
            a.pred in edb and front <= a.variables() for a in self.body
        )

    def substitute(self, mapping: Mapping) -> "Rule":
        return Rule(
            self.head.substitute(mapping),
            tuple(a.substitute(mapping) for a in self.body),
        )

    def rename_apart(self, fresh: Optional[FreshNames] = None) -> "Rule":
        fresh = fresh or FreshNames("r")
        renaming = {v: Variable(fresh()) for v in self.variables()}
        return self.substitute(renaming)

    def relabel_predicates(self, renaming: Mapping[str, str]) -> "Rule":
        head = Atom(renaming.get(self.head.pred, self.head.pred), self.head.args)
        body = tuple(
            Atom(renaming.get(a.pred, a.pred), a.args) for a in self.body
        )
        return Rule(head, body)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        body = ", ".join(map(repr, self.body))
        return f"{self.head!r} <- {body}"


@dataclass(frozen=True)
class DatalogProgram:
    """A finite set of Datalog rules."""

    rules: tuple[Rule, ...]

    def __init__(self, rules: Iterable[Rule]) -> None:
        object.__setattr__(self, "rules", tuple(rules))

    __hash__ = _hash_once
    __getstate__ = _fields_only

    # ------------------------------------------------------------------
    # signature split
    # ------------------------------------------------------------------
    def idb_predicates(self) -> set[str]:
        """Relation symbols occurring in some rule head."""
        return {r.head.pred for r in self.rules}

    def edb_predicates(self) -> set[str]:
        """Body relations that never occur in a head."""
        idb = self.idb_predicates()
        out: set[str] = set()
        for rule in self.rules:
            out |= {p for p in rule.body_predicates() if p not in idb}
        return out

    def predicates(self) -> set[str]:
        out = self.idb_predicates()
        for rule in self.rules:
            out |= rule.body_predicates()
        return out

    def rules_for(self, pred: str) -> list[Rule]:
        return [r for r in self.rules if r.head.pred == pred]

    def arity_of(self, pred: str) -> int:
        for rule in self.rules:
            if rule.head.pred == pred:
                return rule.head.arity
            for atom in rule.body:
                if atom.pred == pred:
                    return atom.arity
        raise KeyError(pred)

    # ------------------------------------------------------------------
    # classification
    # ------------------------------------------------------------------
    def dependency_graph(self) -> nx.DiGraph:
        """IDB dependency graph: edge P → R when P's rule body uses R."""
        idb = self.idb_predicates()
        graph = nx.DiGraph()
        graph.add_nodes_from(idb)
        for rule in self.rules:
            for atom in rule.body:
                if atom.pred in idb:
                    graph.add_edge(rule.head.pred, atom.pred)
        return graph

    def is_recursive(self) -> bool:
        graph = self.dependency_graph()
        return not nx.is_directed_acyclic_graph(graph)

    def is_monadic(self) -> bool:
        """Monadic Datalog: every IDB is unary."""
        return all(r.head.arity <= 1 for r in self.rules)

    def is_frontier_guarded(self) -> bool:
        """Frontier-guarded Datalog, with the paper's MDL convention.

        Every MDL program counts as frontier-guarded (§2: "we declare, as a
        convention, that any MDL program is Frontier-guarded").
        """
        if self.is_monadic():
            return True
        edb = self.edb_predicates()
        return all(r.is_frontier_guarded(edb) for r in self.rules)

    def fragment(self) -> str:
        """A human-readable fragment label."""
        if not self.is_recursive():
            return "nonrecursive"
        if self.is_monadic():
            return "MDL"
        if self.is_frontier_guarded():
            return "FGDL"
        return "Datalog"

    def max_body_size(self) -> int:
        return max((len(r.body) for r in self.rules), default=0)

    def max_rule_variables(self) -> int:
        return max((len(r.variables()) for r in self.rules), default=0)

    # ------------------------------------------------------------------
    # transformation
    # ------------------------------------------------------------------
    def relabel_idbs(self, suffix: str) -> "DatalogProgram":
        """Rename every IDB predicate with a suffix (disjointness, Thm 1)."""
        renaming = {p: f"{p}{suffix}" for p in self.idb_predicates()}
        return DatalogProgram(
            tuple(r.relabel_predicates(renaming) for r in self.rules)
        )

    def union(self, other: "DatalogProgram") -> "DatalogProgram":
        return DatalogProgram(self.rules + other.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "\n".join(map(repr, self.rules))


@dataclass(frozen=True)
class DatalogQuery:
    """A Datalog query ``(Π, Goal)`` (§2)."""

    program: DatalogProgram
    goal: str
    name: str = "Q"

    def __init__(
        self, program: DatalogProgram, goal: str, name: str = "Q"
    ) -> None:
        if goal not in program.idb_predicates():
            raise ValueError(f"goal {goal} is not an IDB of the program")
        object.__setattr__(self, "program", program)
        object.__setattr__(self, "goal", goal)
        object.__setattr__(self, "name", name)

    @property
    def arity(self) -> int:
        return self.program.arity_of(self.goal)

    def is_boolean(self) -> bool:
        return self.arity == 0

    def fragment(self) -> str:
        return self.program.fragment()

    def evaluate(
        self,
        instance: Instance,
        optimize: Optional[bool] = None,
        backend: Optional[str] = None,
    ) -> set[tuple]:
        """``Output(Q, I)``: the goal tuples of the least fixpoint.

        Evaluation is goal-directed: rules the goal does not depend on
        are pruned first (they cannot contribute goal tuples), then the
        SCC-stratified engine runs the rest dependencies-first.
        ``backend`` selects the evaluation engine and ``optimize`` the
        optimizer; ``None`` takes the current run's
        :class:`~repro.core.context.RunConfig` value.

        With ``optimize`` on, the full :mod:`repro.analysis.optimize`
        pipeline runs first — dead code, specialization, inlining and
        magic sets — which is only goal-preserving on *extensional*
        instances; when ``instance`` supplies facts for an intensional
        predicate we fall back to the plain goal-directed path and
        record the retreat on the active collector's
        ``optimize_fallbacks`` counter, so callers comparing
        optimized/plain runs can tell the optimizer was skipped rather
        than ineffective.
        """
        from repro.core import stats as _stats
        from repro.core.context import current
        from repro.core.evaluation import fixpoint, goal_directed_program

        if optimize is None:
            optimize = current().config.optimize
        if optimize and (
            instance.predicates() & self.program.idb_predicates()
        ):
            # IDB facts in the input make magic sets/inlining unsound;
            # retreat to the plain path, but *say so*.
            optimize = False
            collector = _stats.active()
            if collector is not None:
                collector.optimize_fallbacks += 1
        if optimize:
            from repro.analysis.optimize import (
                OPTIMIZE_RULE_LIMIT,
                optimized_query_program,
            )

            if len(self.program.rules) > OPTIMIZE_RULE_LIMIT:
                program = goal_directed_program(self.program, self.goal)
                return set(
                    fixpoint(
                        program, instance, optimize=False, backend=backend
                    ).tuples(self.goal)
                )
            from repro.core.stats import suspended

            # analysis-side subsumption searches stay out of the
            # caller's evaluation counters
            with suspended():
                program = optimized_query_program(self.program, self.goal)
            return set(
                fixpoint(
                    program, instance, optimize=True, backend=backend
                ).tuples(self.goal)
            )
        program = goal_directed_program(self.program, self.goal)
        return set(
            fixpoint(
                program, instance, optimize=False, backend=backend
            ).tuples(self.goal)
        )

    def holds(self, instance: Instance, answer: Sequence = ()) -> bool:
        return tuple(answer) in self.evaluate(instance)

    def boolean(self, instance: Instance) -> bool:
        """Truth of a Boolean query (``Goal() ∈ FPEval``)."""
        return () in self.evaluate(instance)

    def relabel_idbs(self, suffix: str) -> "DatalogQuery":
        return DatalogQuery(
            self.program.relabel_idbs(suffix), f"{self.goal}{suffix}", self.name
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DatalogQuery({self.name}, goal={self.goal})\n{self.program!r}"


def program_from_rules(*rules: Rule) -> DatalogProgram:
    """Varargs convenience constructor."""
    return DatalogProgram(rules)
