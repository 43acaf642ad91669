"""Certified static maintainability analysis for materialized views.

A view of the stratum plan (:mod:`repro.analysis.plan`) that classifies
every stratum for *update* behavior and extends the cost model
(:mod:`repro.analysis.cost`) from full-relation bounds to bounds on
|Δ| as a function of the update size, with per-rule provenance.

Per stratum the analysis decides:

* **counting-safe** — the stratum can be maintained with derivation
  counts: it is non-recursive, or it is a single-predicate SCC whose
  recursion is entirely *vacuous* (every same-SCC rule is subsumed per
  :func:`repro.analysis.semantics.boundedness_report`), so dropping
  the recursive rules preserves the fixpoint and the remaining rules
  have bounded derivation multiplicity;
* **DRed-required** (the ``dred`` label) — genuinely recursive, so
  derivation counts do not decide survival: the view propagates
  insertions semi-naively and recomputes the stratum on any round
  that retracts something it reads.  The label and its basis text
  still name the delete–rederive protocol (Gupta–Mumick–Subrahmanian):
  certificate schema 3 and manifest schema 9 carry their spelling,
  which changes only with the next schema bump;
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
* a DRed stratum's recompute may replace its entire old state with an
  entirely new one, so |Δ| ≤ old + new ≤ 2× the inflated relation
  bound — loose but sound, which is what admission control and the
  runtime :class:`MaintenanceGuard` need.

All arithmetic saturates at :data:`~repro.analysis.cost.BOUND_CAP`;
saturating *up* keeps every bound sound.  ``evidence run --audit
maintain`` re-checks the bounds and the strategy claims against every
measured :class:`~repro.ivm.materialized.MaintenanceRound`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Optional

from repro.analysis.cost import CostParameters, _sat_add, fmt_bound
from repro.analysis.dependency import DependencyGraph
from repro.analysis.plan import (
    COUNTING,
    DEFAULT_UPDATE_SIZE,
    DRED,
    DeltaBound,
    Plan,
    Strata,
    StratumPlan,
    program_plan,
)
from repro.core.context import Audit
from repro.core.datalog import DatalogProgram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.instance import Instance
    from repro.ivm.materialized import MaintenanceRound, MaterializedView


@dataclass(frozen=True)
class MaintainReport(Strata[StratumPlan]):
    """The maintenance view of a stratum plan."""

    parameters: CostParameters
    update_size: int
    strata: tuple[StratumPlan, ...]
    bounds: Mapping[str, DeltaBound]
    retraction_sources: frozenset[str]
    counting_strata: int
    dred_strata: int
    total_delta_bound: int

    @classmethod
    def of(cls, plan: Plan) -> "MaintainReport":
        bounds = dict(plan.base_deltas)
        for stratum in plan.strata:
            bounds.update(stratum.deltas)
        # the base deltas allow each base predicate the whole update;
        # a program without base predicates still sees it move base
        # facts, of predicates it does not read
        total = 0 if plan.base_deltas else plan.update_size
        for db in bounds.values():
            total = _sat_add(total, db.bound)
        counting = sum(1 for stratum in plan.strata if stratum.counting_safe)
        return cls(
            parameters=plan.parameters,
            update_size=plan.update_size,
            strata=plan.strata,
            bounds=bounds,
            retraction_sources=plan.retraction_sources,
            counting_strata=counting,
            dred_strata=len(plan.strata) - counting,
            total_delta_bound=total,
        )

    def bound_of(self, pred: str) -> Optional[DeltaBound]:
        return self.bounds.get(pred)

    def strategies(self) -> dict[str, str]:
        """``pred -> "counting" | "dred"`` over every IDB predicate."""
        return self.per_predicate("strategy")

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
            "strata": [
                {
                    "index": stratum.index,
                    "predicates": list(stratum.predicates),
                    "recursive": stratum.recursive,
                    "strategy": stratum.strategy,
                    "counting_safe": stratum.counting_safe,
                    "insert_monotone": stratum.insert_monotone,
                    "self_maintainable": stratum.self_maintainable,
                    "basis": stratum.maintain_basis,
                    "rule_indices": list(stratum.rule_indices),
                    "effective_rule_indices": list(
                        stratum.effective_rule_indices
                    ),
                    "delta_bound": stratum.delta_bound,
                }
                for stratum in self.strata
            ],
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
            f"  total delta bound: {fmt_bound(self.total_delta_bound)}",
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
            lines.append(f"    {stratum.maintain_basis}")
            for pred in stratum.predicates:
                db = self.bounds.get(pred)
                if db is not None:
                    lines.append(
                        f"    |Δ{pred}| <= {fmt_bound(db.bound)}  "
                        f"({db.basis})"
                    )
        return "\n".join(lines)


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
    plan = program_plan(program, goal, dependency).evaluate(
        CostParameters.resolve(program, instance, parameters),
        update_size=update_size,
        append_only=append_only,
    )
    return MaintainReport.of(plan)


class MaintenanceGuard(Audit):
    """The ``maintain`` audit: every round of
    :meth:`repro.ivm.materialized.MaterializedView.apply` against the
    static claims.  Two kinds of unsound prediction are recorded:

    * a measured per-predicate delta (|plus| + |minus|) exceeding the
      bound the view's stratum plan predicts for the round's update
      size against the pre∪post base (bounds are monotone in relation
      sizes and active-domain width, so the union soundly covers both
      the old and the new state);
    * the view maintaining a stratum with a different strategy than
      the report planned for it.
    """

    def __init__(self) -> None:
        super().__init__()
        self.predicates = 0
        self.strategies: dict[str, int] = {COUNTING: 0, DRED: 0}

    def check_round(
        self,
        view: "MaterializedView",
        round_: "MaintenanceRound",
        update_size: int,
        base_before: Optional["Instance"] = None,
    ) -> None:
        from repro.core import stats as _stats

        plan = view.maintenance_plan()
        if plan is None or not view.program.rules:
            return
        audit = view.base if base_before is None else base_before | view.base
        with _stats.suspended():
            report = MaintainReport.of(plan.evaluate(
                CostParameters.from_instance(view.program, audit),
                update_size=update_size,
            ))
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
            if expected == DRED and strategy == COUNTING:
                self.violations.append({
                    "kind": "strategy",
                    "pred": pred,
                    "planned": expected,
                    "actual": strategy,
                })

    def tallies(self) -> dict[str, object]:
        return {
            "predicates": self.predicates,
            "strategies": dict(self.strategies),
        }

    @staticmethod
    def render_violation(violation: Mapping[str, Any]) -> str:
        if violation.get("kind") == "strategy":
            return (
                f"maintain strategy VIOLATED: {violation['pred']} ran "
                f"{violation['actual']} where the analysis demands "
                f"{violation['planned']}"
            )
        return (
            f"maintain delta VIOLATED: {violation['pred']} measured "
            f"{violation['measured']} > bound {violation['bound']} "
            f"({violation['basis']})"
        )
