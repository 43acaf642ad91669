"""Certified program transformations driven by the static analyses.

A *pass* is a pure function ``ProgramState -> (ProgramState, records)``:
it never mutates its input, and every change it makes is written down as
a :class:`TransformRecord` carrying the source span of the rule it came
from.  The passes only apply transformations justified by an analysis
this package already performs:

* ``dead_code`` — rules unreachable from the goal
  (:class:`~repro.analysis.dependency.DependencyGraph`), body atoms
  whose removal keeps the rule equivalent, and subsumed rules
  (:func:`repro.core.optimize.rule_subsumes`);
* ``specialize`` — constant propagation: IDB predicates defined only by
  ground facts are folded into their call sites;
* ``inline`` — non-recursive IDBs used by exactly one body atom (read
  off the SCC condensation) are unfolded into that call site;
* ``magic_sets`` — the demand transformation, driven by the same
  left-to-right sideways-information-passing adornments
  :func:`repro.analysis.semantics.binding_patterns` computes: recursion
  reached with bound arguments is restricted to the demanded tuples
  instead of being computed in full and filtered post-hoc.

Join order is no pass: each engine orders joins at runtime, against
the relations it meets.

Equivalence contract: every pass preserves the *goal relation on
instances over the extensional schema* (the only instances the decision
procedures and the evidence harness ever evaluate on).  ``dead_code``
is an equivalence on arbitrary instances; the renaming passes
(``specialize``/``inline``/``magic_sets``) are not semantics-preserving
on instances that smuggle in facts for intensional predicates, which
is why :meth:`repro.core.datalog.DatalogQuery.evaluate`
guards the optimized path against such instances.

With ``certify=True``, :func:`optimize_program` emits one
``program_equivalence`` claim per changed pass — independently
validated by :mod:`repro.certify.checker` with naive replay evaluation
on targeted witnesses plus a seeded random-instance stream, so a wrong
transformation cannot certify itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Optional, Sequence

from repro.analysis.dependency import DependencyGraph
from repro.analysis.semantics import binding_patterns
from repro.core.atoms import Atom
from repro.core.cq import CanonConst
from repro.core.datalog import DatalogProgram, Rule
from repro.core.optimize import (
    drop_subsumed_rules,
    minimize_rule_bodies,
    rule_subsumes,
)
from repro.core.parser import Span
from repro.core.terms import Variable

#: cap on the rule blow-up one constant-propagation site may cause
_SPECIALIZE_LIMIT = 64

#: witness instances shipped per equivalence claim (plus their union)
_WITNESS_LIMIT = 16

#: ambient optimization (``fixpoint(optimize=True)`` / the evaluation
#: default) steps aside for programs above this many rules: the
#: subsumption-based passes are quadratic in the rule count with a
#: homomorphism search per pair, which is fine for human-written
#: programs but pathological on machine-generated ones (the Thm 8
#: witness program has ~2k rules).  Explicit ``optimize_program`` calls
#: are not limited — the caller asked.
OPTIMIZE_RULE_LIMIT = 200


# ---------------------------------------------------------------------------
# records and state
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RuleProvenance:
    """Where a rule came from.

    ``span`` locates the rule in the original source (``None`` for
    synthesized rules); ``derived_from`` points at the source rule a
    synthesized rule was derived from, so diagnostics on generated
    programs can still be anchored to real source positions.
    """

    span: Optional[Span] = None
    derived_from: Optional[Span] = None

    def origin(self) -> Optional[Span]:
        """The best source anchor available for this rule."""
        return self.span if self.span is not None else self.derived_from


@dataclass(frozen=True)
class TransformRecord:
    """One change performed by one pass."""

    pass_name: str
    action: str
    detail: str
    rule_index: Optional[int] = None
    span: Optional[Span] = None
    derived_from: Optional[Span] = None

    def render(self) -> str:
        where = ""
        if self.span is not None:
            where = f" at {self.span.label()}"
        elif self.derived_from is not None:
            where = f" (derived from rule at {self.derived_from.label()})"
        return f"[{self.pass_name}] {self.action}: {self.detail}{where}"

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "pass": self.pass_name,
            "action": self.action,
            "detail": self.detail,
        }
        if self.rule_index is not None:
            out["rule"] = self.rule_index
        if self.span is not None:
            out["span"] = self.span.as_dict()
        if self.derived_from is not None:
            out["derived_from"] = self.derived_from.as_dict()
        return out


@dataclass(frozen=True)
class ProgramState:
    """A program mid-pipeline, with per-rule provenance kept aligned."""

    program: DatalogProgram
    goal: str
    provenance: tuple[RuleProvenance, ...] = ()

    def __post_init__(self) -> None:
        rules = len(self.program.rules)
        prov = tuple(self.provenance)[:rules]
        prov += (RuleProvenance(),) * (rules - len(prov))
        object.__setattr__(self, "provenance", prov)

    def entries(self) -> list[tuple[Rule, RuleProvenance]]:
        return list(zip(self.program.rules, self.provenance))


def _state_from(
    goal: str, entries: Sequence[tuple[Rule, RuleProvenance]]
) -> ProgramState:
    return ProgramState(
        DatalogProgram(rule for rule, _ in entries),
        goal,
        tuple(prov for _, prov in entries),
    )


#: a pass: pure ``state -> (state, records)``
OptimizerPass = Callable[
    [ProgramState], "tuple[ProgramState, tuple[TransformRecord, ...]]"
]


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------
def _freeze(term: object) -> object:
    return CanonConst(term.name) if isinstance(term, Variable) else term


def _unify(
    pairs: Sequence[tuple[object, object]],
) -> Optional[dict[Variable, object]]:
    """Flat-term unification; returns a fully resolved substitution."""
    mapping: dict[Variable, object] = {}

    def resolve(term: object) -> object:
        while isinstance(term, Variable) and term in mapping:
            term = mapping[term]
        return term

    for left, right in pairs:
        left, right = resolve(left), resolve(right)
        if left == right:
            continue
        if isinstance(left, Variable):
            mapping[left] = right
        elif isinstance(right, Variable):
            mapping[right] = left
        else:
            return None
    return {var: resolve(var) for var in mapping}


def _adorn(atom: Atom, bound: set[Variable]) -> str:
    """The adornment of one call: ``b`` per constant-or-bound argument.

    Identical to the per-atom step of
    :func:`repro.analysis.semantics.binding_patterns`.
    """
    return "".join(
        "f" if isinstance(term, Variable) and term not in bound else "b"
        for term in atom.args
    )


def _head_bound(rule: Rule, adornment: str) -> set[Variable]:
    return {
        arg
        for arg, mark in zip(rule.head.args, adornment)
        if mark == "b" and isinstance(arg, Variable)
    }


# ---------------------------------------------------------------------------
# detectors (shared with the lint passes: I207 / I208 / W111)
# ---------------------------------------------------------------------------
def magic_opportunities(
    program: DatalogProgram,
    goal: str,
    dependency: Optional[DependencyGraph] = None,
    adornments: Optional[dict[str, tuple[str, ...]]] = None,
) -> dict[str, tuple[str, ...]]:
    """Recursive IDBs called *only* with bound arguments (I207).

    These are exactly the predicates the magic-sets pass restricts: the
    engine would otherwise compute them in full and filter afterwards.
    A predicate whose reachable adornments include the all-free pattern
    is excluded — its free copy's demand is the full extension, so the
    transformation could not restrict anything (the recursive self-call
    of a chain rule always contributes a bound pattern, which would
    otherwise make this detector fire on every recursive program).
    """
    dependency = dependency or DependencyGraph(program)
    if adornments is None:
        adornments = binding_patterns(program, goal, dependency)
    recursive = dependency.recursive_predicates()
    out: dict[str, tuple[str, ...]] = {}
    for pred, patterns in adornments.items():
        if pred not in recursive:
            continue
        bound = tuple(p for p in patterns if "b" in p)
        if bound and len(bound) == len(patterns):
            out[pred] = bound
    return out


def inline_candidates(
    program: DatalogProgram,
    goal: Optional[str] = None,
    dependency: Optional[DependencyGraph] = None,
) -> tuple[str, ...]:
    """Non-recursive, non-goal IDBs used by exactly one body atom (I208)."""
    dependency = dependency or DependencyGraph(program)
    recursive = dependency.recursive_predicates()
    idb = program.idb_predicates()
    uses: dict[str, int] = {}
    for rule in program.rules:
        for atom in rule.body:
            if atom.pred in idb:
                uses[atom.pred] = uses.get(atom.pred, 0) + 1
    return tuple(sorted(
        pred
        for pred, n in uses.items()
        if n == 1 and pred != goal and pred not in recursive
    ))


def dead_body_atoms(
    program: DatalogProgram,
) -> tuple[tuple[int, int, Atom], ...]:
    """``(rule, atom, Atom)`` triples removable without changing the rule.

    An atom is *dead* when the rule without it still derives exactly the
    same facts (mutual subsumption with the head fixed) — the W111 lint
    finding and the atom-level step of the ``dead_code`` pass.
    """
    out: list[tuple[int, int, Atom]] = []
    for rule_index, rule in enumerate(program.rules):
        for atom_index in range(len(rule.body)):
            reduced = _droppable_atom(rule, atom_index)
            if reduced is not None:
                out.append((rule_index, atom_index, rule.body[atom_index]))
    return tuple(out)


def _droppable_atom(rule: Rule, atom_index: int) -> Optional[Rule]:
    """The rule without ``atom_index`` when the removal is an equivalence."""
    body = rule.body[:atom_index] + rule.body[atom_index + 1:]
    vars_left: set[Variable] = set()
    for atom in body:
        vars_left |= atom.variables()
    if not rule.head.variables() <= vars_left:
        return None
    candidate = Rule(rule.head, body)
    if rule_subsumes(candidate, rule) and rule_subsumes(rule, candidate):
        return candidate
    return None


# ---------------------------------------------------------------------------
# pass: dead_code
# ---------------------------------------------------------------------------
def pass_dead_code(
    state: ProgramState,
) -> tuple[ProgramState, tuple[TransformRecord, ...]]:
    """Drop unreachable rules, dead body atoms, and subsumed rules."""
    records: list[TransformRecord] = []
    entries = state.entries()

    unreachable = set(
        DependencyGraph(state.program).unreachable_rule_indices(state.goal)
    )
    kept: list[tuple[Rule, RuleProvenance]] = []
    for index, (rule, prov) in enumerate(entries):
        if index in unreachable:
            records.append(TransformRecord(
                "dead_code", "drop-rule",
                f"rule {rule!r} is unreachable from goal {state.goal}",
                index, prov.span, prov.derived_from,
            ))
        else:
            kept.append((rule, prov))

    minimized: list[tuple[Rule, RuleProvenance]] = []
    for index, (rule, prov) in enumerate(kept):
        changed = True
        while changed:
            changed = False
            for atom_index in range(len(rule.body)):
                reduced = _droppable_atom(rule, atom_index)
                if reduced is not None:
                    records.append(TransformRecord(
                        "dead_code", "drop-atom",
                        f"body atom {rule.body[atom_index]!r} of "
                        f"{rule!r} is dead (removal preserves the rule)",
                        index, prov.span, prov.derived_from,
                    ))
                    rule = reduced
                    changed = True
                    break
        minimized.append((rule, prov))

    surviving: list[tuple[Rule, RuleProvenance]] = []
    for index, (rule, prov) in enumerate(minimized):
        subsumer = next(
            (other for other, _ in surviving if rule_subsumes(other, rule)),
            None,
        )
        if subsumer is not None:
            records.append(TransformRecord(
                "dead_code", "drop-rule",
                f"rule {rule!r} is subsumed by {subsumer!r}",
                index, prov.span, prov.derived_from,
            ))
            continue
        kept_so_far: list[tuple[Rule, RuleProvenance]] = []
        for other, other_prov in surviving:
            if rule_subsumes(rule, other):
                records.append(TransformRecord(
                    "dead_code", "drop-rule",
                    f"rule {other!r} is subsumed by {rule!r}",
                    None, other_prov.span, other_prov.derived_from,
                ))
            else:
                kept_so_far.append((other, other_prov))
        surviving = kept_so_far
        surviving.append((rule, prov))

    return _state_from(state.goal, surviving), tuple(records)


# ---------------------------------------------------------------------------
# pass: specialize (constant propagation)
# ---------------------------------------------------------------------------
def pass_specialize(
    state: ProgramState,
) -> tuple[ProgramState, tuple[TransformRecord, ...]]:
    """Fold IDBs defined only by ground facts into their call sites."""
    program = state.program
    idb = program.idb_predicates()
    fact_preds = {
        pred
        for pred in idb
        if pred != state.goal
        and all(not rule.body for rule in program.rules_for(pred))
    }
    if not fact_preds:
        return state, ()

    facts: dict[str, list[tuple[object, ...]]] = {
        pred: [rule.head.args for rule in program.rules_for(pred)]
        for pred in fact_preds
    }

    def expand_rule(rule: Rule) -> Optional[list[Rule]]:
        """All ground-fact expansions of ``rule`` (None past the cap)."""
        done: list[Rule] = []
        work = [rule]
        while work:
            current = work.pop()
            position = next(
                (
                    i
                    for i, a in enumerate(current.body)
                    if a.pred in fact_preds
                ),
                None,
            )
            if position is None:
                done.append(current)
                continue
            call = current.body[position]
            reduced = current.body[:position] + current.body[position + 1:]
            for row in facts[call.pred]:
                theta = _unify(list(zip(call.args, row)))
                if theta is None:
                    continue
                work.append(Rule(
                    current.head.substitute(theta),
                    tuple(a.substitute(theta) for a in reduced),
                ))
            if len(work) + len(done) > _SPECIALIZE_LIMIT:
                return None
        return done

    records: list[TransformRecord] = []
    expanded: list[tuple[Rule, RuleProvenance]] = []
    blocked: set[str] = set()
    for index, (rule, prov) in enumerate(state.entries()):
        sites = {a.pred for a in rule.body if a.pred in fact_preds}
        if rule.head.pred in fact_preds or not sites:
            expanded.append((rule, prov))
            continue
        variants = expand_rule(rule)
        if variants is None:
            blocked |= sites
            expanded.append((rule, prov))
            continue
        records.append(TransformRecord(
            "specialize", "expand",
            f"propagated facts of {', '.join(sorted(sites))} into "
            f"{rule!r} ({len(variants)} specialised rule(s))",
            index, prov.span, prov.derived_from,
        ))
        origin = prov.origin()
        expanded.extend(
            (variant, RuleProvenance(None, origin)) for variant in variants
        )
    if not records:
        return state, ()

    still_used = {
        atom.pred
        for rule, _ in expanded
        for atom in rule.body
    } | blocked
    final: list[tuple[Rule, RuleProvenance]] = []
    for rule, prov in expanded:
        pred = rule.head.pred
        if pred in fact_preds and pred not in still_used:
            records.append(TransformRecord(
                "specialize", "drop-rule",
                f"fact {rule!r} fully propagated; predicate {pred} "
                "is no longer referenced",
                None, prov.span, prov.derived_from,
            ))
            continue
        final.append((rule, prov))
    return _state_from(state.goal, final), tuple(records)


# ---------------------------------------------------------------------------
# pass: inline
# ---------------------------------------------------------------------------
def pass_inline(
    state: ProgramState,
) -> tuple[ProgramState, tuple[TransformRecord, ...]]:
    """Unfold single-use non-recursive IDBs into their one call site."""
    records: list[TransformRecord] = []
    entries = state.entries()
    for _ in range(len(state.program.idb_predicates()) + 1):
        program = DatalogProgram(rule for rule, _ in entries)
        candidates = inline_candidates(program, state.goal)
        applied = False
        for pred in candidates:
            host_index, atom_index = next(
                (i, j)
                for i, (rule, _) in enumerate(entries)
                for j, atom in enumerate(rule.body)
                if atom.pred == pred
            )
            host, host_prov = entries[host_index]
            call = host.body[atom_index]
            replacements: list[Rule] = []
            ok = True
            for defining in program.rules_for(pred):
                renamed = defining
                clash = defining.variables() & host.variables()
                if clash:
                    renamed = defining.substitute({
                        var: Variable(f"_inl_{pred}_{var.name}")
                        for var in defining.variables()
                    })
                theta = _unify(list(zip(renamed.head.args, call.args)))
                if theta is None:
                    continue
                try:
                    replacements.append(Rule(
                        host.head.substitute(theta),
                        tuple(
                            a.substitute(theta)
                            for a in host.body[:atom_index]
                            + renamed.body
                            + host.body[atom_index + 1:]
                        ),
                    ))
                except ValueError:  # pragma: no cover - defensive
                    ok = False
                    break
            if not ok:
                continue
            records.append(TransformRecord(
                "inline", "inline",
                f"unfolded single-use non-recursive predicate {pred} "
                f"into {host!r} ({len(replacements)} expansion(s))",
                host_index, host_prov.span, host_prov.derived_from,
            ))
            origin = host_prov.origin()
            rebuilt: list[tuple[Rule, RuleProvenance]] = []
            for index, (rule, prov) in enumerate(entries):
                if rule.head.pred == pred:
                    records.append(TransformRecord(
                        "inline", "drop-rule",
                        f"definition {rule!r} of {pred} absorbed into "
                        "its call site",
                        index, prov.span, prov.derived_from,
                    ))
                    continue
                if index == host_index:
                    rebuilt.extend(
                        (replacement, RuleProvenance(None, origin))
                        for replacement in replacements
                    )
                    continue
                rebuilt.append((rule, prov))
            entries = rebuilt
            applied = True
            break
        if not applied:
            break
    if not records:
        return state, ()
    return _state_from(state.goal, entries), tuple(records)


# ---------------------------------------------------------------------------
# pass: magic_sets
# ---------------------------------------------------------------------------
def pass_magic_sets(
    state: ProgramState,
) -> tuple[ProgramState, tuple[TransformRecord, ...]]:
    """The demand transformation over the binding-pattern adornments.

    Applies only when some *recursive* predicate is reached with a
    bound argument (otherwise there is no demand to propagate and the
    rewrite would only add overhead).  The goal keeps its name at its
    initial all-free adornment, so the transformed program answers the
    same goal predicate.
    """
    program = state.program
    goal = state.goal
    if not magic_opportunities(program, goal):
        return state, ()
    idb = program.idb_predicates()
    initial = "f" * program.arity_of(goal)

    adorned: list[tuple[str, str]] = [(goal, initial)]
    seen = {(goal, initial)}
    cursor = 0
    while cursor < len(adorned):
        pred, adornment = adorned[cursor]
        cursor += 1
        for rule in program.rules_for(pred):
            bound = _head_bound(rule, adornment)
            for atom in rule.body:
                if atom.pred in idb:
                    key = (atom.pred, _adorn(atom, bound))
                    if key not in seen:
                        seen.add(key)
                        adorned.append(key)
                bound |= atom.variables()

    taken = set(program.predicates())

    def fresh(base: str) -> str:
        name = base
        while name in taken:
            name = "_" + name
        taken.add(name)
        return name

    names: dict[tuple[str, str], str] = {}
    magic: dict[tuple[str, str], str] = {}
    for key in adorned:
        pred, adornment = key
        names[key] = (
            pred if key == (goal, initial) else fresh(f"{pred}_{adornment}")
        )
        magic[key] = fresh(f"magic_{pred}_{adornment}")

    prov_of = dict(enumerate(state.provenance))
    index_of = {id(rule): i for i, rule in enumerate(program.rules)}
    out: list[tuple[Rule, RuleProvenance]] = []
    emitted: set[Rule] = set()

    def emit(rule: Rule, origin: Optional[Span]) -> None:
        if rule not in emitted:
            emitted.add(rule)
            out.append((rule, RuleProvenance(None, origin)))

    goal_rules = program.rules_for(goal)
    seed_origin = (
        prov_of[index_of[id(goal_rules[0])]].origin() if goal_rules else None
    )
    emit(Rule(Atom(magic[(goal, initial)], ()), ()), seed_origin)

    records: list[TransformRecord] = [TransformRecord(
        "magic_sets", "seed",
        f"seeded demand {magic[(goal, initial)]}() for goal {goal}",
        None, None, seed_origin,
    )]
    for key in adorned:
        pred, adornment = key
        for rule in program.rules_for(pred):
            rule_index = index_of[id(rule)]
            origin = prov_of[rule_index].origin()
            bound = _head_bound(rule, adornment)
            guard_args = tuple(
                arg
                for arg, mark in zip(rule.head.args, adornment)
                if mark == "b"
            )
            new_body: list[Atom] = [Atom(magic[key], guard_args)]
            for atom in rule.body:
                if atom.pred in idb:
                    call = (atom.pred, _adorn(atom, bound))
                    demand_args = tuple(
                        term
                        for term, mark in zip(atom.args, call[1])
                        if mark == "b"
                    )
                    emit(
                        Rule(Atom(magic[call], demand_args), tuple(new_body)),
                        origin,
                    )
                    new_body.append(Atom(names[call], atom.args))
                else:
                    new_body.append(atom)
                bound |= atom.variables()
            emit(
                Rule(Atom(names[key], rule.head.args), tuple(new_body)),
                origin,
            )
        records.append(TransformRecord(
            "magic_sets", "adorn",
            f"{pred} with pattern {adornment} evaluated as {names[key]} "
            f"under demand {magic[key]}",
            None, None, None,
        ))
    return _state_from(goal, out), tuple(records)


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------
#: registered passes, in default application order
PASSES: dict[str, OptimizerPass] = {
    "dead_code": pass_dead_code,
    "specialize": pass_specialize,
    "inline": pass_inline,
    "magic_sets": pass_magic_sets,
}

DEFAULT_PIPELINE: tuple[str, ...] = tuple(PASSES)


@dataclass(frozen=True)
class OptimizationStage:
    """One pass application: the program before and after."""

    name: str
    before: DatalogProgram
    after: DatalogProgram
    records: tuple[TransformRecord, ...] = ()

    @property
    def changed(self) -> bool:
        return self.before.rules != self.after.rules


@dataclass(frozen=True)
class OptimizationResult:
    """The outcome of running a pass pipeline over one query program."""

    original: DatalogProgram
    optimized: DatalogProgram
    goal: str
    provenance: tuple[RuleProvenance, ...] = ()
    stages: tuple[OptimizationStage, ...] = ()
    certificate: Optional[dict[str, Any]] = field(default=None)

    @property
    def changed(self) -> bool:
        return self.original.rules != self.optimized.rules

    @property
    def records(self) -> tuple[TransformRecord, ...]:
        return tuple(
            record for stage in self.stages for record in stage.records
        )

    def diff(self) -> tuple[tuple[Rule, ...], tuple[Rule, ...]]:
        """``(removed, added)`` rules between original and optimized."""
        before = list(self.original.rules)
        after = list(self.optimized.rules)
        removed = tuple(rule for rule in before if rule not in after)
        added = tuple(rule for rule in after if rule not in before)
        return removed, added

    def as_dict(self) -> dict[str, Any]:
        removed, added = self.diff()
        return {
            "goal": self.goal,
            "changed": self.changed,
            "rules_before": len(self.original.rules),
            "rules_after": len(self.optimized.rules),
            "passes": [
                {
                    "name": stage.name,
                    "changed": stage.changed,
                    "records": [r.as_dict() for r in stage.records],
                }
                for stage in self.stages
            ],
            "removed": [repr(rule) for rule in removed],
            "added": [repr(rule) for rule in added],
            "optimized": [repr(rule) for rule in self.optimized.rules],
        }


#: naive-replay relations: predicate -> set of rows
WitnessRelations = dict[str, set[tuple[object, ...]]]


def equivalence_witnesses(
    program: DatalogProgram,
) -> list[WitnessRelations]:
    """Targeted witness instances: each rule's frozen extensional body.

    Canonical-database style: evaluating on the frozen body of a rule
    exercises exactly that rule's firing pattern, so a transformation
    that breaks one rule is caught without relying on random sampling.
    """
    idb = program.idb_predicates()
    witnesses: list[WitnessRelations] = []
    union: WitnessRelations = {}
    for rule in program.rules[:_WITNESS_LIMIT]:
        relations: WitnessRelations = {}
        for atom in rule.body:
            if atom.pred in idb:
                continue
            row = tuple(_freeze(term) for term in atom.args)
            relations.setdefault(atom.pred, set()).add(row)
            union.setdefault(atom.pred, set()).add(row)
        if relations:
            witnesses.append(relations)
    if union:
        witnesses.append(union)
    return witnesses


def optimize_program(
    program: DatalogProgram,
    goal: str,
    passes: Optional[Sequence[str]] = None,
    *,
    spans: Optional[Sequence[Optional[Span]]] = None,
    certify: bool = False,
    trials: int = 12,
    seed: int = 0,
) -> OptimizationResult:
    """Run the pass pipeline over ``(program, goal)``.

    ``spans`` (parallel to ``program.rules``) anchor records and derived
    rules to source positions; ``certify=True`` emits one
    ``program_equivalence`` claim per changed pass, wrapped in a
    certificate envelope ready for
    :func:`repro.certify.check_certificate`.
    """
    if goal not in program.idb_predicates():
        raise ValueError(f"goal {goal} is not an IDB of the program")
    names = tuple(passes) if passes is not None else DEFAULT_PIPELINE
    unknown = [name for name in names if name not in PASSES]
    if unknown:
        known = ", ".join(PASSES)
        raise ValueError(
            f"unknown pass(es) {', '.join(unknown)}; known passes: {known}"
        )
    provenance = tuple(
        RuleProvenance(span)
        for span in (spans if spans is not None else ())
    )
    state = ProgramState(program, goal, provenance)
    stages: list[OptimizationStage] = []
    claims: list[dict[str, Any]] = []
    for name in names:
        before = state.program
        new_state, records = PASSES[name](state)
        if (
            records
            and goal not in new_state.program.idb_predicates()
        ):  # pragma: no cover - guard against a pass dropping the goal
            records = (TransformRecord(
                name, "revert",
                "pass dropped the goal predicate; its output was discarded",
            ),)
            new_state = state
        stages.append(OptimizationStage(
            name, before, new_state.program, records
        ))
        if certify and new_state.program.rules != before.rules:
            from repro.certify.emit import claim_program_equivalence

            claims.append(claim_program_equivalence(
                before,
                new_state.program,
                goal,
                witnesses=equivalence_witnesses(before),
                trials=trials,
                seed=seed,
                pass_name=name,
            ))
        state = new_state
    cert: Optional[dict[str, Any]] = None
    if certify and claims:
        from repro.certify.emit import certificate

        cert = certificate(claims, meta={
            "component": "analysis.optimize",
            "goal": goal,
            "passes": list(names),
        })
    return OptimizationResult(
        program, state.program, goal, state.provenance, tuple(stages), cert
    )


# ---------------------------------------------------------------------------
# cached entry points for the evaluation engine
# ---------------------------------------------------------------------------
@lru_cache(maxsize=256)
def optimized_query_program(
    program: DatalogProgram, goal: str
) -> DatalogProgram:
    """The default pipeline's output, cached."""
    return optimize_program(program, goal).optimized


@lru_cache(maxsize=256)
def syntactic_fixpoint_program(program: DatalogProgram) -> DatalogProgram:
    """Goal-free syntactic minimization (safe for any program).

    Without a goal predicate only the universally sound rewrites apply:
    per-rule body minimization and subsumed-rule removal, both of which
    preserve every IDB relation on every instance.
    """
    return drop_subsumed_rules(minimize_rule_bodies(program))
