"""One stratum plan per SCC, shared by the cost, maintain and shard analyses.

The engine evaluates a program stratum by stratum over its dependency
condensation (:class:`repro.analysis.dependency.DependencyGraph`), and
one walk of that condensation gives every SCC a :class:`StratumPlan`:
its predicates' cardinality bounds (:mod:`repro.analysis.cost`), its
maintenance class with delta bounds (:mod:`repro.analysis.maintain`),
and its shard class with keys and exchange bound
(:mod:`repro.analysis.shard`).

:func:`program_plan` builds the part that depends on the program alone,
once: the dependency graph, the vacuous-rule peel, and per SCC a
:class:`ProgramStratum` with counting-safety and the shard keys.
:meth:`ProgramPlan.evaluate` adds the part that depends on the
parameters: cardinality bounds (plain and update-inflated), retraction
sources, delta bounds and exchange bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generic, Iterable, Mapping, Optional, TypeVar

from repro.analysis.cost import (
    RULE_LIMIT,
    CostParameters,
    PredicateBound,
    _head_shape_bound,
    _sat_add,
    _sat_mul,
    _sat_pow,
    atom_match_bound,
    cardinality_bounds,
    unreachable_from,
)
from repro.analysis.dependency import SCC, DependencyGraph, rule_body_components
from repro.core.datalog import DatalogProgram, Rule
from repro.core.terms import Variable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.semantics import BoundednessReport

#: default update size the plan is evaluated at (one changed base
#: fact); callers re-evaluate for larger batches
DEFAULT_UPDATE_SIZE = 1

#: workers the exchange bounds assume when the caller does not say
DEFAULT_SHARD_WORKERS = 4

#: backtracking budget of the key-assignment search; blown budget
#: degrades the stratum to exchange_required (safe, never unsound)
_CSP_STEP_LIMIT = 10_000

COUNTING = "counting"
DRED = "dred"

COMMUNICATION_FREE = "communication_free"
EXCHANGE_REQUIRED = "exchange_required"
SEQUENTIAL = "sequential"


@dataclass(frozen=True)
class DeltaBound:
    """A sound bound on |plus| + |minus| for one predicate per round.

    ``bound`` is the per-round delta bound at the plan's update size;
    ``relation_bound`` is the full-relation bound under the
    update-inflated parameters (the quantity DRed churn is measured
    against).  ``per_rule`` carries the provenance: each effective
    rule's contribution to the delta, as ``(rule_index, contribution)``
    pairs over *original* program rule indices.
    """

    pred: str
    arity: int
    bound: int
    relation_bound: int
    recursive: bool
    basis: str
    per_rule: tuple[tuple[int, int], ...] = ()

    def as_dict(self) -> dict[str, object]:
        return {
            "pred": self.pred,
            "arity": self.arity,
            "bound": self.bound,
            "relation_bound": self.relation_bound,
            "recursive": self.recursive,
            "basis": self.basis,
            "per_rule": [list(pair) for pair in self.per_rule],
        }


@dataclass(frozen=True)
class ProgramStratum:
    """What the program alone says about one SCC: its maintenance class
    and its shard class.  ``keys`` maps every predicate the stratum's
    rules mention to its partition position (communication-free strata
    only)."""

    index: int
    predicates: tuple[str, ...]
    recursive: bool
    rule_indices: tuple[int, ...]
    #: rule indices surviving vacuous-rule peeling — the rules a
    #: counting maintainer actually has to fire
    effective_rule_indices: tuple[int, ...]
    counting_safe: bool
    maintain_basis: str
    classification: str
    keys: Mapping[str, int]
    shard_basis: str

    @property
    def strategy(self) -> str:
        return COUNTING if self.counting_safe else DRED


@dataclass(frozen=True)
class StratumPlan(ProgramStratum):
    """What the cost, maintain and shard analyses say about one SCC
    under one set of parameters (:meth:`ProgramPlan.evaluate`): its
    predicates' cardinality bounds, whether a retraction can reach it,
    its delta bounds, and the row transfers per round of an
    exchange-required stratum."""

    bounds: Mapping[str, PredicateBound]
    insert_monotone: bool
    deltas: Mapping[str, DeltaBound]
    delta_bound: int
    exchange_bound: int

    @property
    def self_maintainable(self) -> bool:
        """Deletions are answerable from the view plus the delta: the
        stored counts decide survival, or no deletion can occur."""
        return self.counting_safe or self.insert_monotone


S = TypeVar("S", bound=ProgramStratum)


class Strata(Generic[S]):
    """Anything holding one stratum record per SCC."""

    strata: tuple[S, ...]

    def plan_of(self, pred: str) -> Optional[S]:
        for stratum in self.strata:
            if pred in stratum.predicates:
                return stratum
        return None

    def per_predicate(self, attr: str) -> dict[str, str]:
        """``pred -> stratum.<attr>`` over every IDB predicate."""
        return {
            pred: getattr(stratum, attr)
            for stratum in self.strata
            for pred in stratum.predicates
        }


@dataclass(frozen=True)
class ProgramPlan(Strata[ProgramStratum]):
    """The program-only part of the plan; see :func:`program_plan`."""

    program: DatalogProgram
    dependency: DependencyGraph
    #: the program without the rules boundedness peeling proves
    #: vacuous; ``kept[j]`` is the original index of its rule ``j``
    peeled: DatalogProgram
    peeled_dependency: DependencyGraph
    kept: tuple[int, ...]
    dropped: tuple[int, ...]
    #: IDB predicates the goal cannot reach
    unreachable: frozenset[str]
    strata: tuple[ProgramStratum, ...]

    def bounds(self, params: CostParameters) -> dict[str, PredicateBound]:
        """Cardinality bounds of the peeled program under ``params``."""
        return cardinality_bounds(
            self.peeled, self.peeled_dependency, params, self.kept,
            self.unreachable,
        )

    def evaluate(
        self,
        params: CostParameters,
        update_size: int = DEFAULT_UPDATE_SIZE,
        append_only: frozenset[str] = frozenset(),
        workers: int = DEFAULT_SHARD_WORKERS,
    ) -> "Plan":
        """Every stratum's parameter part under ``params``, for rounds
        of ``update_size`` base changes that never retract from the
        ``append_only`` predicates, on ``workers`` shard workers."""
        program, dep = self.program, self.dependency
        u = max(0, update_size)
        workers = max(1, workers)
        bounds = self.bounds(params)
        inflated = _inflated(params, program, u)
        relation = self.bounds(inflated)
        # base predicates a round may retract from: every EDB predicate
        # not promised append-only, plus every base-seeded IDB predicate
        # (the view accepts direct base updates to IDB predicates too)
        retractable = (frozenset(dep.edb) - append_only) | frozenset(
            params.idb_seeds
        )
        reached: set[str] = set()  # IDB predicates a retraction reaches
        sizes = {
            pred: inflated.edb_sizes.get(pred, inflated.default_edb_size)
            for pred in dep.edb
        }
        deltas = {
            pred: DeltaBound(
                pred, program.arity_of(pred), u, sizes[pred], False,
                f"base relation: at most {u} direct change(s)/round",
            )
            for pred in sorted(dep.edb)
        }
        base_deltas = dict(deltas)
        strata = []
        for stratum in self.strata:
            # strata run dependencies first: ``reached`` is final here
            insert_monotone = not any(
                atom.pred in retractable or atom.pred in reached
                for index in stratum.rule_indices
                for atom in (
                    program.rules[index].head, *program.rules[index].body
                )
            )
            if not insert_monotone:
                reached.update(stratum.predicates)
            own: dict[str, DeltaBound] = {}
            delta_total = exchange = 0
            for pred in stratum.predicates:
                rel = relation[pred].bound
                own[pred] = deltas[pred] = _delta_bound(
                    program, stratum, pred, rel, deltas, sizes, inflated, u
                )
                sizes[pred] = rel
                delta_total = _sat_add(delta_total, own[pred].bound)
                if stratum.classification == EXCHANGE_REQUIRED:
                    # every derived fact may travel to every other worker
                    exchange = _sat_add(
                        exchange, _sat_mul(bounds[pred].bound, workers - 1)
                    )
            strata.append(StratumPlan(
                **vars(stratum),
                bounds={pred: bounds[pred] for pred in stratum.predicates},
                insert_monotone=insert_monotone,
                deltas=own,
                delta_bound=delta_total,
                exchange_bound=exchange,
            ))
        return Plan(
            self, params, u, workers, retractable, base_deltas, tuple(strata)
        )


@dataclass(frozen=True)
class Plan(Strata[StratumPlan]):
    """A :class:`ProgramPlan` evaluated under one set of parameters."""

    program_plan: ProgramPlan
    parameters: CostParameters
    update_size: int
    workers: int
    retraction_sources: frozenset[str]
    #: delta bounds of the base (EDB) predicates, which no stratum holds
    base_deltas: Mapping[str, DeltaBound]
    strata: tuple[StratumPlan, ...]


def program_plan(
    program: DatalogProgram,
    goal: Optional[str] = None,
    dependency: Optional[DependencyGraph] = None,
    boundedness: Optional["BoundednessReport"] = None,
) -> ProgramPlan:
    """Build the program-only part of the plan.

    ``dependency`` and ``boundedness`` reuse a graph and a peel the
    caller already has (the semantic lint computes both).  A program
    over :data:`~repro.analysis.cost.RULE_LIMIT` rules skips the peel
    and the key search.
    """
    dep = dependency if dependency is not None else DependencyGraph(program)
    within = bool(program.rules) and len(program.rules) <= RULE_LIMIT
    dropped: frozenset[int] = frozenset()
    if within:
        if boundedness is None:
            from repro.analysis import semantics

            boundedness = semantics.boundedness_report(
                program, dependency=dep
            )
        dropped = frozenset(pair[0] for pair in boundedness.vacuous_rules)
    kept = tuple(i for i in range(len(program.rules)) if i not in dropped)
    peeled, peeled_dep = program, dep
    if dropped:
        peeled = DatalogProgram(program.rules[i] for i in kept)
        peeled_dep = DependencyGraph(peeled)
    return ProgramPlan(
        program, dep, peeled, peeled_dep, kept, tuple(sorted(dropped)),
        unreachable_from(peeled_dep, goal),
        tuple(_stratum(program, scc, dropped, within) for scc in dep.sccs),
    )


def _stratum(
    program: DatalogProgram,
    scc: SCC,
    dropped: frozenset[int],
    within: bool,
) -> ProgramStratum:
    """The program-only part of one SCC's plan."""
    effective = tuple(i for i in scc.rule_indices if i not in dropped)
    if not scc.recursive:
        counting_safe = True
        basis = "non-recursive: bounded derivation multiplicity"
    elif len(scc.predicates) == 1 and not any(
        atom.pred in scc.predicates
        for index in effective
        for atom in program.rules[index].body
    ):
        counting_safe = True
        basis = (
            f"recursive but provably bounded: "
            f"{len(scc.rule_indices) - len(effective)} vacuous "
            f"recursive rule(s) subsumed, effective rules are "
            f"non-recursive"
        )
    else:
        counting_safe = False
        basis = "genuine recursion: deletions need overdelete/rederive"
    classification, keys, shard_basis = _shard_class(program, scc, within)
    return ProgramStratum(
        index=scc.index,
        predicates=tuple(sorted(scc.predicates)),
        recursive=scc.recursive,
        rule_indices=tuple(scc.rule_indices),
        effective_rule_indices=effective,
        counting_safe=counting_safe,
        maintain_basis=basis,
        classification=classification,
        keys=keys,
        shard_basis=shard_basis,
    )


def _shard_class(
    program: DatalogProgram, scc: SCC, within: bool
) -> tuple[str, dict[str, int], str]:
    """``(classification, keys, basis)`` of one SCC."""
    for index in scc.rule_indices:
        reason = _sequential_reason(program.rules[index])
        if reason is not None:
            return SEQUENTIAL, {}, f"rule {index}: {reason}"
    if not within:
        return EXCHANGE_REQUIRED, {}, (
            f"program exceeds RULE_LIMIT ({len(program.rules)} > "
            f"{RULE_LIMIT}); key search skipped"
        )
    rules = tuple(program.rules[i] for i in scc.rule_indices)
    keys = _solve_keys(rules)
    if keys is None:
        return EXCHANGE_REQUIRED, {}, (
            "no common pivot position survives every rule; "
            "deltas re-shuffled between semi-naive rounds"
        )
    return COMMUNICATION_FREE, keys, (
        f"pivot co-occurrence admits a consistent key for all "
        f"{len(keys)} predicate(s) across {len(rules)} rule(s)"
    )


def _inflated(params: CostParameters, program: DatalogProgram,
              update_size: int) -> CostParameters:
    """Parameters covering every instance within ``update_size`` base
    changes of the analyzed one: each relation gains at most ``u``
    facts and the active domain at most ``u * max_arity`` values."""
    if update_size <= 0:
        return params
    max_arity = 1
    for rule in program.rules:
        for atom in (rule.head, *rule.body):
            max_arity = max(max_arity, len(atom.args))
    return CostParameters(
        edb_sizes={
            pred: _sat_add(size, update_size)
            for pred, size in params.edb_sizes.items()
        },
        idb_seeds={
            pred: _sat_add(size, update_size)
            for pred, size in params.idb_seeds.items()
        },
        adom=_sat_add(params.adom, _sat_mul(update_size, max_arity)),
        default_edb_size=_sat_add(params.default_edb_size, update_size),
        assumed=params.assumed,
    )


def _delta_bound(
    program: DatalogProgram,
    stratum: ProgramStratum,
    pred: str,
    relation_bound: int,
    deltas: Mapping[str, DeltaBound],
    sizes: Mapping[str, int],
    inflated: CostParameters,
    u: int,
) -> DeltaBound:
    """|Δpred| per round of at most ``u`` base changes (soundness
    argument: :mod:`repro.analysis.maintain`)."""
    arity = program.arity_of(pred)
    churn_cap = min(
        _sat_mul(2, relation_bound),
        _sat_mul(2, _sat_pow(inflated.adom, arity)),
    )
    if not stratum.counting_safe:
        return DeltaBound(
            pred, arity, churn_cap, relation_bound, stratum.recursive,
            "DRed churn: |minus| <= old state, |plus| <= new state",
            tuple(
                (index, _head_shape_bound(program.rules[index], inflated))
                for index in stratum.rule_indices
                if program.rules[index].head.pred == pred
            ),
        )
    per_rule: list[tuple[int, int]] = []
    total = u
    for index in stratum.effective_rule_indices:
        rule = program.rules[index]
        if rule.head.pred != pred:
            continue
        contribution = 0
        for i, delta_atom in enumerate(rule.body):
            delta_in = deltas.get(delta_atom.pred)
            term = delta_in.bound if delta_in is not None else u
            bound_vars = delta_atom.variables()
            for j, atom in enumerate(rule.body):
                if j == i:
                    continue
                term = _sat_mul(term, atom_match_bound(
                    atom, bound_vars, sizes, inflated.adom,
                    inflated.default_edb_size,
                ))
                bound_vars |= atom.variables()
            contribution = _sat_add(contribution, term)
        per_rule.append((index, contribution))
        total = _sat_add(total, contribution)
    return DeltaBound(
        pred, arity, min(total, churn_cap), relation_bound,
        stratum.recursive,
        f"telescoped delta rules over {len(per_rule)} effective rule(s)",
        tuple(per_rule),
    )


# ----------------------------------------------------------------------
# the shard key search
# ----------------------------------------------------------------------
def _rule_pivots(rule: Rule) -> frozenset[Variable]:
    """Variables occurring in the head *and* in every body atom."""
    if not rule.body:
        return frozenset()
    pivots = {t for t in rule.head.args if isinstance(t, Variable)}
    for atom in rule.body:
        pivots &= atom.variables()
        if not pivots:
            break
    return frozenset(pivots)


def _sequential_reason(rule: Rule) -> Optional[str]:
    """Why ``rule`` forces its stratum onto one process, or None."""
    if not any(isinstance(t, Variable) for t in rule.head.args):
        return "variable-free head funnels every derivation into one fact"
    if not rule.body:
        return "empty body derives unconditionally on every shard"
    if len(rule_body_components(rule)) > 1:
        return "cartesian body joins unrelated partitions"
    return None


def _candidate_positions(
    rules: Iterable[Rule],
) -> Optional[dict[str, frozenset[int]]]:
    """Per-predicate candidate key positions from pivot co-occurrence.

    For every occurrence of a predicate (head or body) in some rule,
    the positions where one of that rule's pivot variables sits; the
    candidate set is the intersection over all occurrences.  ``None``
    (or any empty per-predicate set) means no consistent assignment
    can exist and the caller classifies exchange_required.
    """
    candidates: dict[str, frozenset[int]] = {}
    for rule in rules:
        pivots = _rule_pivots(rule)
        if not pivots:
            return None
        for atom in (rule.head, *rule.body):
            here = frozenset(
                i for i, t in enumerate(atom.args) if t in pivots
            )
            if atom.pred in candidates:
                candidates[atom.pred] &= here
            else:
                candidates[atom.pred] = here
            if not candidates[atom.pred]:
                return None
    return candidates


def _rule_admits(rule: Rule, keys: Mapping[str, int]) -> bool:
    """Does some pivot sit at the chosen key position everywhere?"""
    head_key = keys.get(rule.head.pred)
    if head_key is None or head_key >= len(rule.head.args):
        return False
    pivot = rule.head.args[head_key]
    if not isinstance(pivot, Variable):
        return False
    for atom in rule.body:
        key = keys.get(atom.pred)
        if key is None or key >= len(atom.args):
            return False
        if atom.args[key] != pivot:
            return False
    return True


def _solve_keys(rules: tuple[Rule, ...]) -> Optional[dict[str, int]]:
    """Backtracking search for a consistent key-position assignment,
    verified rule by rule and capped at :data:`_CSP_STEP_LIMIT` steps;
    ``None`` (always safe) degrades the stratum to exchange_required."""
    candidates = _candidate_positions(rules)
    if candidates is None:
        return None
    preds = sorted(candidates, key=lambda p: (len(candidates[p]), p))
    steps = 0

    def consistent(keys: dict[str, int]) -> bool:
        # only rules whose every predicate is already assigned can be
        # checked; unassigned ones are re-checked deeper in the search
        for rule in rules:
            involved = {rule.head.pred, *rule.body_predicates()}
            if involved <= keys.keys() and not _rule_admits(rule, keys):
                return False
        return True

    def search(position: int, keys: dict[str, int]) -> Optional[dict[str, int]]:
        nonlocal steps
        if position == len(preds):
            return dict(keys)
        pred = preds[position]
        for key in sorted(candidates[pred]):
            steps += 1
            if steps > _CSP_STEP_LIMIT:
                return None
            keys[pred] = key
            if consistent(keys):
                found = search(position + 1, keys)
                if found is not None:
                    return found
            del keys[pred]
        return None

    return search(0, {})
