"""Certified static maintainability analysis for materialized views.

An abstract interpretation over the SCC condensation
(:class:`repro.analysis.dependency.DependencyGraph`) that classifies
every stratum for *update* behavior and extends the PR-7 cost model
(:mod:`repro.analysis.cost`) from full-relation bounds to bounds on
|Δ| as a function of the update size, with per-rule provenance.

Per stratum the analysis decides:

* **counting-safe** — the stratum can be maintained with derivation
  counts: it is non-recursive, or it is a single-predicate SCC whose
  recursion is entirely *vacuous* (every same-SCC rule is subsumed per
  :func:`repro.analysis.semantics.boundedness_report`), so dropping
  the recursive rules preserves the fixpoint and the remaining rules
  have bounded derivation multiplicity;
* **DRed-required** — genuinely recursive: deletions need the
  overdelete/rederive protocol (Gupta–Mumick–Subrahmanian);
* **insert-monotone** — no retraction can reach the stratum: neither
  its predicates nor anything they transitively read is retractable
  (by default every EDB predicate and every base-seeded IDB predicate
  is retractable; ``append_only`` narrows the set), so no deletion
  machinery is ever needed;
* **self-maintainable** — deletions are answerable from the view plus
  the delta without re-reading the base (Gupta–Jagadish–Mumick): true
  for counting strata (the stored counts decide survival) and for
  insert-monotone strata (deletions cannot occur).

Delta bounds are sound for *any* round that changes at most ``u`` base
facts against the analyzed parameters:

* an EDB (or base-seeded IDB) predicate changes by at most ``u`` facts;
* a counting stratum's delta telescopes through the signed delta-rule
  expansion Δ(A₁⋈…⋈Aₙ) = Σᵢ old(…)⋈ΔAᵢ⋈new(…): each body atom's delta
  bound times the match bounds of its siblings, where sibling relations
  are measured under parameters inflated by ``u`` (covering both the
  old and the new state), summed over effective rules and capped at
  twice the relation bound;
* a DRed stratum may overdelete its entire old state and rederive its
  entire new state, so |Δ| ≤ old + new ≤ 2× the inflated relation
  bound — loose but sound, which is what admission control and the
  runtime :class:`MaintenanceGuard` need.

All arithmetic saturates at :data:`~repro.analysis.cost.BOUND_CAP`;
saturating *up* keeps every bound sound.  ``evidence run
--check-maintenance`` re-checks the bounds and the strategy claims
against every measured :class:`~repro.ivm.materialized.MaintenanceRound`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional

from repro.core.datalog import DatalogProgram
from repro.core.terms import Variable

from repro.analysis.cost import (
    BOUND_CAP,
    COST_RULE_LIMIT,
    CostParameters,
    CostReport,
    _sat_add,
    _sat_mul,
    _sat_pow,
    atom_match_bound,
    cost_report,
)
from repro.analysis.dependency import DependencyGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.instance import Instance
    from repro.ivm.materialized import MaintenanceRound, MaterializedView

#: maintainability analysis is skipped above this rule count (mirrors
#: COST_RULE_LIMIT: generated mega-programs pay more for the analysis
#: than any maintenance round could save)
MAINTAIN_RULE_LIMIT = COST_RULE_LIMIT

#: default update size the static report is rendered at (one changed
#: base fact); callers re-derive bounds for larger batches
DEFAULT_UPDATE_SIZE = 1

_COUNTING = "counting"
_DRED = "dred"


@dataclass(frozen=True)
class DeltaBound:
    """A sound bound on |plus| + |minus| for one predicate per round.

    ``bound`` is the per-round delta bound at the report's update
    size; ``relation_bound`` is the full-relation bound under the
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
class StratumPlan:
    """The maintenance classification of one SCC."""

    index: int
    predicates: tuple[str, ...]
    recursive: bool
    strategy: str
    counting_safe: bool
    insert_monotone: bool
    self_maintainable: bool
    basis: str
    rule_indices: tuple[int, ...]
    #: rule indices surviving vacuous-rule peeling — the rules a
    #: counting maintainer actually has to fire
    effective_rule_indices: tuple[int, ...]
    delta_bound: int

    def as_dict(self) -> dict[str, object]:
        return {
            "index": self.index,
            "predicates": list(self.predicates),
            "recursive": self.recursive,
            "strategy": self.strategy,
            "counting_safe": self.counting_safe,
            "insert_monotone": self.insert_monotone,
            "self_maintainable": self.self_maintainable,
            "basis": self.basis,
            "rule_indices": list(self.rule_indices),
            "effective_rule_indices": list(self.effective_rule_indices),
            "delta_bound": self.delta_bound,
        }


@dataclass(frozen=True)
class MaintainReport:
    """Everything the maintainability analysis derived."""

    parameters: CostParameters
    update_size: int
    strata: tuple[StratumPlan, ...]
    bounds: Mapping[str, DeltaBound]
    retraction_sources: frozenset[str]
    counting_strata: int
    dred_strata: int
    total_delta_bound: int
    cost: Optional[CostReport] = field(default=None, compare=False)

    def plan_of(self, pred: str) -> Optional[StratumPlan]:
        for stratum in self.strata:
            if pred in stratum.predicates:
                return stratum
        return None

    def bound_of(self, pred: str) -> Optional[DeltaBound]:
        return self.bounds.get(pred)

    def strategies(self) -> dict[str, str]:
        """``pred -> "counting" | "dred"`` over every IDB predicate."""
        out: dict[str, str] = {}
        for stratum in self.strata:
            for pred in stratum.predicates:
                out[pred] = stratum.strategy
        return out

    def classification(self) -> dict[str, object]:
        """The instance-independent claims a certificate can carry.

        Strategy, insert-monotonicity and counting-safety depend only
        on the program text (vacuous-rule subsumption is instance-free)
        and the retractable-predicate assumption, so an independent
        checker can re-derive this dict from the program alone.
        """
        strategies = self.strategies()
        return {
            "strategies": {p: strategies[p] for p in sorted(strategies)},
            "insert_monotone": sorted(
                pred
                for stratum in self.strata
                if stratum.insert_monotone
                for pred in stratum.predicates
            ),
            "counting_safe": sorted(
                pred
                for stratum in self.strata
                if stratum.counting_safe
                for pred in stratum.predicates
            ),
        }

    def as_dict(self) -> dict[str, object]:
        return {
            "parameters": {
                "edb_sizes": dict(self.parameters.edb_sizes),
                "idb_seeds": dict(self.parameters.idb_seeds),
                "adom": self.parameters.adom,
                "assumed": self.parameters.assumed,
            },
            "update_size": self.update_size,
            "strata": [stratum.as_dict() for stratum in self.strata],
            "bounds": {
                pred: self.bounds[pred].as_dict()
                for pred in sorted(self.bounds)
            },
            "retraction_sources": sorted(self.retraction_sources),
            "counting_strata": self.counting_strata,
            "dred_strata": self.dred_strata,
            "total_delta_bound": self.total_delta_bound,
        }

    def render_text(self) -> str:
        lines = [
            "maintainability analysis "
            + ("(assumed parameters)" if self.parameters.assumed
               else "(measured parameters)"),
            f"  update size: {self.update_size} base fact(s)/round",
            f"  strata: {self.counting_strata} counting, "
            f"{self.dred_strata} DRed",
            f"  total delta bound: {_fmt(self.total_delta_bound)}",
            "",
        ]
        for stratum in self.strata:
            traits = [stratum.strategy]
            if stratum.insert_monotone:
                traits.append("insert-monotone")
            if stratum.self_maintainable:
                traits.append("self-maintainable")
            lines.append(
                f"  stratum {stratum.index} "
                f"[{', '.join(stratum.predicates)}]: "
                + ", ".join(traits)
            )
            lines.append(f"    {stratum.basis}")
            for pred in stratum.predicates:
                db = self.bounds.get(pred)
                if db is not None:
                    lines.append(
                        f"    |Δ{pred}| <= {_fmt(db.bound)}  ({db.basis})"
                    )
        return "\n".join(lines)


def _fmt(bound: int) -> str:
    return "saturated" if bound >= BOUND_CAP else str(bound)


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


def _vacuous_dropped(program: DatalogProgram, goal: Optional[str],
                     dependency: Optional[DependencyGraph]) -> frozenset[int]:
    """Original indices of rules boundedness peeling proves vacuous."""
    from repro.analysis.semantics import boundedness_report

    report = boundedness_report(program, goal, dependency=dependency)
    return frozenset(pair[0] for pair in report.vacuous_rules)


def _retraction_reach(
    program: DatalogProgram,
    dependency: DependencyGraph,
    retractable: frozenset[str],
) -> dict[str, bool]:
    """``pred -> can a retraction reach it`` for every IDB predicate.

    The dependency graph only carries IDB nodes, so EDB reads are
    rediscovered from the rule bodies while walking the SCCs in
    evaluation order (dependencies first).
    """
    reached: dict[str, bool] = {}
    for scc in dependency.sccs:
        hit = any(pred in retractable for pred in scc.predicates)
        if not hit:
            for rule in scc.rules:
                for atom in rule.body:
                    if atom.pred in retractable:
                        hit = True
                    elif atom.pred not in scc.predicates and reached.get(
                        atom.pred, False
                    ):
                        hit = True
        for pred in scc.predicates:
            reached[pred] = hit
    return reached


def maintain_report(
    program: DatalogProgram,
    goal: Optional[str] = None,
    instance: Optional["Instance"] = None,
    parameters: Optional[CostParameters] = None,
    dependency: Optional[DependencyGraph] = None,
    update_size: int = DEFAULT_UPDATE_SIZE,
    append_only: frozenset[str] = frozenset(),
) -> MaintainReport:
    """Run the maintainability analysis and return every claim.

    ``update_size`` is the number of base facts a round may change;
    ``append_only`` names base predicates the caller promises never to
    retract from (they stop counting as retraction sources).  Bound
    parameters resolve exactly as in :func:`repro.analysis.cost.cost_report`.
    """
    if parameters is not None:
        params = parameters
    elif instance is not None:
        params = CostParameters.from_instance(program, instance)
    else:
        params = CostParameters.assumed_for(program)
    u = max(0, update_size)

    dep = dependency if dependency is not None else DependencyGraph(program)
    within_limit = bool(program.rules) and (
        len(program.rules) <= MAINTAIN_RULE_LIMIT
    )
    dropped: frozenset[int] = frozenset()
    if within_limit:
        dropped = _vacuous_dropped(program, goal, dep)

    inflated = _inflated(params, program, u)
    cost = (
        cost_report(program, goal=goal, parameters=inflated, dependency=dep)
        if within_limit
        else None
    )

    def relation_bound(pred: str) -> int:
        if cost is not None:
            pb = cost.bound_of(pred)
            if pb is not None:
                return pb.bound
        return inflated.edb_sizes.get(pred, inflated.default_edb_size)

    # base predicates a round may retract from: every EDB predicate
    # not promised append-only, plus every base-seeded IDB predicate
    # (the view accepts direct base updates to IDB predicates too)
    retractable = (frozenset(dep.edb) - append_only) | frozenset(
        params.idb_seeds
    )
    reached = _retraction_reach(program, dep, retractable)

    sizes: dict[str, int] = {
        pred: relation_bound(pred) for pred in dep.edb
    }
    deltas: dict[str, DeltaBound] = {}
    for pred in sorted(dep.edb):
        deltas[pred] = DeltaBound(
            pred=pred,
            arity=program.arity_of(pred),
            bound=0 if pred in append_only and u == 0 else u,
            relation_bound=sizes[pred],
            recursive=False,
            basis=f"base relation: at most {u} direct change(s)/round",
        )

    strata: list[StratumPlan] = []
    counting_strata = 0
    dred_strata = 0
    for scc in dep.sccs:
        effective = tuple(
            index for index in scc.rule_indices if index not in dropped
        )
        effectively_recursive = any(
            atom.pred in scc.predicates
            for index in effective
            for atom in program.rules[index].body
        )
        if not scc.recursive:
            counting_safe = True
            basis = "non-recursive: bounded derivation multiplicity"
        elif (
            within_limit
            and len(scc.predicates) == 1
            and not effectively_recursive
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
            basis = (
                "genuine recursion: deletions need overdelete/rederive"
            )
        insert_monotone = not any(
            reached.get(pred, False) for pred in scc.predicates
        )
        strategy = _COUNTING if counting_safe else _DRED
        if strategy == _COUNTING:
            counting_strata += 1
        else:
            dred_strata += 1

        stratum_delta = 0
        for pred in sorted(scc.predicates):
            arity = program.arity_of(pred)
            rel = relation_bound(pred)
            churn_cap = min(
                _sat_mul(2, rel),
                _sat_mul(2, _sat_pow(inflated.adom, arity)),
            )
            # the view accepts direct base updates to IDB predicates
            seed = u
            if counting_safe:
                per_rule: list[tuple[int, int]] = []
                total = seed
                for index in effective:
                    rule = program.rules[index]
                    if rule.head.pred != pred:
                        continue
                    contribution = 0
                    for i, delta_atom in enumerate(rule.body):
                        delta_in = deltas.get(delta_atom.pred)
                        term = delta_in.bound if delta_in is not None else u
                        bound_vars = {
                            t for t in delta_atom.args
                            if isinstance(t, Variable)
                        }
                        for j, atom in enumerate(rule.body):
                            if j == i:
                                continue
                            term = _sat_mul(term, atom_match_bound(
                                atom, bound_vars, sizes, inflated.adom,
                                inflated.default_edb_size,
                            ))
                            bound_vars |= {
                                t for t in atom.args
                                if isinstance(t, Variable)
                            }
                        contribution = _sat_add(contribution, term)
                    per_rule.append((index, contribution))
                    total = _sat_add(total, contribution)
                bound = min(total, churn_cap)
                basis_d = (
                    f"telescoped delta rules over "
                    f"{len(per_rule)} effective rule(s)"
                )
                deltas[pred] = DeltaBound(
                    pred, arity, bound, rel, scc.recursive, basis_d,
                    tuple(per_rule),
                )
            else:
                bound = churn_cap
                basis_d = (
                    "DRed churn: |minus| <= old state, "
                    "|plus| <= new state"
                )
                deltas[pred] = DeltaBound(
                    pred, arity, bound, rel, scc.recursive, basis_d,
                    tuple(
                        (index, _sat_pow(
                            inflated.adom,
                            len({
                                t for t in program.rules[index].head.args
                                if isinstance(t, Variable)
                            }),
                        ))
                        for index in scc.rule_indices
                        if program.rules[index].head.pred == pred
                    ),
                )
            sizes[pred] = rel
            stratum_delta = _sat_add(stratum_delta, bound)

        strata.append(StratumPlan(
            index=scc.index,
            predicates=tuple(sorted(scc.predicates)),
            recursive=scc.recursive,
            strategy=strategy,
            counting_safe=counting_safe,
            insert_monotone=insert_monotone,
            self_maintainable=counting_safe or insert_monotone,
            basis=basis,
            rule_indices=tuple(scc.rule_indices),
            effective_rule_indices=effective,
            delta_bound=stratum_delta,
        ))

    total = 0
    for db in deltas.values():
        total = _sat_add(total, db.bound)
    return MaintainReport(
        parameters=params,
        update_size=u,
        strata=tuple(strata),
        bounds=deltas,
        retraction_sources=frozenset(retractable),
        counting_strata=counting_strata,
        dred_strata=dred_strata,
        total_delta_bound=total,
        cost=cost,
    )


class MaintenanceGuard:
    """Compares measured maintenance rounds against the static claims.

    Installed by a run whose :class:`~repro.core.context.RunConfig`
    lists the ``maintain`` audit, called by
    :meth:`repro.ivm.materialized.MaterializedView.apply` after every
    round with the pre-round base.  Two kinds of unsound prediction
    are recorded loudly:

    * a measured per-predicate delta (|plus| + |minus|) exceeding the
      bound :func:`maintain_report` predicted for the round's update
      size against the pre∪post base (bounds are monotone in relation
      sizes and active-domain width, so the union soundly covers both
      the old and the new state);
    * the view maintaining a stratum with a different strategy than
      the report planned for it.
    """

    def __init__(self, limit: int = MAINTAIN_RULE_LIMIT) -> None:
        self.limit = limit
        self.checks = 0
        self.predicates = 0
        self.strategies: dict[str, int] = {_COUNTING: 0, _DRED: 0}
        self.violations: list[dict[str, object]] = []

    def check_round(
        self,
        view: "MaterializedView",
        round_: "MaintenanceRound",
        update_size: int,
        base_before: Optional["Instance"] = None,
    ) -> None:
        from repro.core import stats as _stats

        program = view.program
        if not program.rules or len(program.rules) > self.limit:
            return
        audit = view.base if base_before is None else base_before | view.base
        with _stats.suspended():
            report = maintain_report(
                program, instance=audit, update_size=update_size
            )
        self.checks += 1
        for pred in sorted(set(round_.plus) | set(round_.minus)):
            measured = len(round_.plus.get(pred, ())) + len(
                round_.minus.get(pred, ())
            )
            db = report.bound_of(pred)
            if db is None:
                continue
            self.predicates += 1
            if measured > db.bound:
                self.violations.append({
                    "kind": "delta",
                    "pred": pred,
                    "measured": measured,
                    "bound": db.bound,
                    "update_size": update_size,
                    "basis": db.basis,
                })
        planned = report.strategies()
        actual = view.maintenance_strategies()
        for pred in sorted(actual):
            strategy = actual[pred]
            if strategy in self.strategies:
                self.strategies[strategy] += 1
            expected = planned.get(pred)
            # the view may maintain a provably counting-safe stratum
            # with DRed (plan disabled / over limit) — that is merely
            # conservative; counting where the analysis demands DRed
            # is the unsound direction
            if expected == _DRED and strategy == _COUNTING:
                self.violations.append({
                    "kind": "strategy",
                    "pred": pred,
                    "planned": expected,
                    "actual": strategy,
                })

    def summary(self) -> dict[str, object]:
        return {
            "checks": self.checks,
            "predicates": self.predicates,
            "strategies": dict(self.strategies),
            "violations": list(self.violations),
        }
