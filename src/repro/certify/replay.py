"""The independent evaluator behind the certificate checker.

Deliberately *not* the engine: no semi-naive deltas, no stratified
schedules, no join-plan caches, and no index the engine builds or
keeps.  Claims are validated with exactly two primitives —

* :func:`match` — a direct backtracking search for homomorphisms of an
  atom list into plain relation data (``dict[str, set[tuple]]``),
  joining through hash indexes that each call builds from that data
  and drops when it returns;
* :func:`naive_fixpoint` — round-based naive Datalog evaluation on top
  of :func:`match`.

Independence means this module shares no code path with the engine:
nothing here reads :mod:`repro.core.instance` indexes, the evaluators
or the columnar store, and every candidate row an index yields is
still checked term by term.  If the engine's fast paths were wrong,
certificates checked here would fail; that independence is the point
of the subsystem.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, Iterator, Optional, Sequence, Union

from repro.core.atoms import Atom
from repro.core.cq import CanonConst, ConjunctiveQuery
from repro.core.datalog import DatalogQuery, Rule
from repro.core.terms import Variable
from repro.core.ucq import UCQ
from repro.certify.serialize import Relations

if TYPE_CHECKING:  # pragma: no cover - types only, keeps replay engine-free
    from repro.views.view import View

QueryLike = Union[ConjunctiveQuery, UCQ, DatalogQuery]
Binding = dict[Variable, object]


def _bind(atom: Atom, row: tuple[Any, ...], binding: Binding) -> Optional[Binding]:
    """Extend ``binding`` so that ``atom`` maps onto ``row``, or None."""
    if len(row) != len(atom.args):
        return None
    out = dict(binding)
    for term, value in zip(atom.args, row):
        if isinstance(term, Variable):
            if out.setdefault(term, value) != value:
                return None
        elif term != value:
            return None
    return out


def match(
    atoms: Sequence[Atom],
    relations: Relations,
    binding: Optional[Binding] = None,
) -> Iterator[Binding]:
    """All homomorphisms of ``atoms`` into ``relations`` extending
    ``binding``.  Plain backtracking; atoms are picked most-bound-first.

    An atom with bound positions reads only the rows that agree on
    them, through a hash index over the relation that this call builds
    the first time it needs it; an atom with none scans the relation.
    :func:`_bind` still checks every candidate row, so an index only
    narrows the scan."""
    # (predicate, arity, bound positions) -> bound values -> rows
    indexes: dict[tuple, dict[tuple, list[tuple]]] = {}

    def unbound(atom: Atom, current: Binding) -> int:
        return sum(
            1
            for term in atom.args
            if isinstance(term, Variable) and term not in current
        )

    def candidates(
        atom: Atom, current: Binding
    ) -> Iterable[tuple[Any, ...]]:
        rows = relations.get(atom.pred, ())
        positions: list[int] = []
        key: list[object] = []
        for position, term in enumerate(atom.args):
            if isinstance(term, Variable):
                if term not in current:
                    continue
                term = current[term]
            positions.append(position)
            key.append(term)
        if not positions:
            return rows
        arity = len(atom.args)
        slot = (atom.pred, arity, tuple(positions))
        index = indexes.get(slot)
        if index is None:
            index = indexes[slot] = {}
            for row in rows:
                if len(row) == arity:
                    index.setdefault(
                        tuple(row[p] for p in positions), []
                    ).append(row)
        return index.get(tuple(key), ())

    def search(
        current: Binding, rest: tuple[Atom, ...]
    ) -> Iterator[Binding]:
        if not rest:
            yield current
            return
        pick = min(
            range(len(rest)), key=lambda i: unbound(rest[i], current)
        )
        atom, remaining = rest[pick], rest[:pick] + rest[pick + 1:]
        for row in candidates(atom, current):
            extended = _bind(atom, row, current)
            if extended is not None:
                yield from search(extended, remaining)

    yield from search(dict(binding or {}), tuple(atoms))


def has_match(
    atoms: Sequence[Atom],
    relations: Relations,
    binding: Optional[Binding] = None,
) -> bool:
    return next(match(atoms, relations, binding), None) is not None


def check_mapping(
    atoms: Sequence[Atom], mapping: Binding, relations: Relations
) -> Optional[str]:
    """Replay a shipped homomorphism; the first violation, or None."""
    for atom in atoms:
        row = []
        for term in atom.args:
            if isinstance(term, Variable):
                if term not in mapping:
                    return f"variable {term!r} of {atom!r} is unmapped"
                row.append(mapping[term])
            else:
                row.append(term)
        if tuple(row) not in relations.get(atom.pred, set()):
            return (
                f"image {atom.pred}{tuple(row)!r} of {atom!r} is not a "
                "fact of the target"
            )
    return None


# ---------------------------------------------------------------------------
# naive Datalog
# ---------------------------------------------------------------------------
def _head_row(rule: Rule, binding: Binding) -> tuple[Any, ...]:
    return tuple(
        binding[term] if isinstance(term, Variable) else term
        for term in rule.head.args
    )


def naive_fixpoint(
    rules: Sequence[Rule], relations: Relations
) -> Relations:
    """Round-based naive evaluation until nothing new is derivable."""
    state: Relations = {
        pred: set(rows) for pred, rows in relations.items()
    }
    changed = True
    while changed:
        changed = False
        for rule in rules:
            # materialize before inserting: match() reads state's sets
            derived = [
                _head_row(rule, binding)
                for binding in match(rule.body, state)
            ]
            rows = state.setdefault(rule.head.pred, set())
            for row in derived:
                if row not in rows:
                    rows.add(row)
                    changed = True
    return state


def closure_violation(
    rules: Sequence[Rule], relations: Relations
) -> Optional[str]:
    """The first rule instantiation ``relations`` is not closed under."""
    for index, rule in enumerate(rules):
        rows = relations.get(rule.head.pred, set())
        for binding in match(rule.body, relations):
            row = _head_row(rule, binding)
            if row not in rows:
                return (
                    f"rule #{index} derives {rule.head.pred}{row!r} "
                    "which the claimed model is missing"
                )
    return None


# ---------------------------------------------------------------------------
# query evaluation
# ---------------------------------------------------------------------------
def eval_cq(
    cq: ConjunctiveQuery, relations: Relations
) -> set[tuple[Any, ...]]:
    return {
        tuple(binding[var] for var in cq.head_vars)
        for binding in match(cq.atoms, relations)
    }


def eval_query(
    query: QueryLike, relations: Relations
) -> set[tuple[Any, ...]]:
    """Evaluate any query shape with the naive primitives only."""
    if isinstance(query, ConjunctiveQuery):
        return eval_cq(query, relations)
    if isinstance(query, UCQ):
        out: set[tuple] = set()
        for disjunct in query.disjuncts:
            out |= eval_cq(disjunct, relations)
        return out
    state = naive_fixpoint(query.program.rules, relations)
    return set(state.get(query.goal, set()))


def holds(query: QueryLike, relations: Relations, answer: tuple[Any, ...]) -> bool:
    if isinstance(query, ConjunctiveQuery):
        if len(answer) != len(query.head_vars):
            return False
        binding: Binding = {}
        for var, value in zip(query.head_vars, answer):
            if binding.setdefault(var, value) != value:
                return False  # repeated head variable, conflicting values
        return has_match(query.atoms, relations, binding)
    if isinstance(query, UCQ):
        return any(
            holds(disjunct, relations, answer)
            for disjunct in query.disjuncts
        )
    return answer in eval_query(query, relations)


def view_image(views: Iterable["View"], relations: Relations) -> Relations:
    """``V(I)`` recomputed naively for every view definition shape."""
    out: Relations = {}
    for view in views:
        out[view.name] = eval_query(view.definition, relations)
    return out


def relations_subset(
    left: Relations, right: Relations
) -> Optional[str]:
    """The first fact of ``left`` missing from ``right``, or None."""
    for pred in sorted(left):
        missing = left[pred] - right.get(pred, set())
        if missing:
            sample = min(missing, key=repr)
            return f"fact {pred}{sample!r} of the left instance is missing"
    return None


# ---------------------------------------------------------------------------
# canonical databases (the checker's own freezing)
# ---------------------------------------------------------------------------
def canonical_relations(cq: ConjunctiveQuery) -> Relations:
    """``canondb(Q)``: variables frozen to :class:`CanonConst`."""
    frozen: Relations = {}
    for atom in cq.atoms:
        row = tuple(
            CanonConst(term.name) if isinstance(term, Variable) else term
            for term in atom.args
        )
        frozen.setdefault(atom.pred, set()).add(row)
    return frozen


def frozen_head(cq: ConjunctiveQuery) -> tuple[Any, ...]:
    return tuple(CanonConst(var.name) for var in cq.head_vars)
