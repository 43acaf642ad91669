"""Certified static cost & cardinality analysis.

An abstract interpretation over the SCC condensation
(:class:`repro.analysis.dependency.DependencyGraph`) that computes, per
predicate, a *sound* worst-case cardinality bound — polynomial in the
EDB sizes and the active-domain width — and, per rule, a join cost
bound with per-atom provenance.

Soundness argument (the invariant ``evidence run --audit cost``
re-checks empirically on every fixpoint):

* every value in a derived fact comes from the instance's active
  domain or from a constant written in the program, so ``adom**arity``
  bounds any IDB relation outright;
* an atom with ``k`` *distinct* variables matches at most
  ``min(|R|, adom**k)`` rows — repeated variables and constants only
  shrink the match set, never grow it;
* a non-recursive predicate's size is at most the sum over its rules
  of ``min(prod of atom bounds, adom**distinct_head_vars)`` plus any
  IDB facts seeded directly in the instance;
* a recursive predicate is bounded by the head shapes of its rules
  (each rule can only derive facts matching its head pattern), capped
  at ``adom**arity`` — sound regardless of how many rounds recursion
  runs;
* dropping the ``vacuous_rules`` that
  :func:`repro.analysis.semantics.boundedness_report` proves subsumed
  (the stratum plan's peel, :mod:`repro.analysis.plan`) preserves the
  fixpoint, so bounds computed on the peeled program are sound for the
  original.

All arithmetic saturates at :data:`BOUND_CAP` (saturating *up* keeps
every bound sound).  The per-rule join costs are sound bounds on the
number of intermediate tuples a left-to-right join in the estimated
order can produce; ``repro analyze cost`` and the lint passes report
them, and only the per-predicate cardinality bounds are certified by
``--audit cost``.  No runtime decision reads this module: each engine
orders its joins itself, the run's configuration names the engine,
and the evidence runner orders jobs by their ``heavy`` flags.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Mapping, Optional, Union

from repro.core.atoms import Atom
from repro.core.context import Audit
from repro.core.datalog import DatalogProgram, Rule
from repro.core.terms import Variable

from repro.analysis.dependency import DependencyGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.plan import Plan, ProgramPlan
    from repro.core.instance import Instance

#: saturation ceiling for all bound arithmetic; larger-than-real is
#: always sound, so products/powers clamp here instead of overflowing
BOUND_CAP = 10**15

#: assumed per-relation EDB size when no instance is supplied
DEFAULT_EDB_SIZE = 16

#: the cost, maintain and shard analyses skip their expensive parts
#: (vacuous-rule peeling, key search, runtime audits) above this many
#: rules (mirrors OPTIMIZE_RULE_LIMIT: generated mega-programs pay more
#: for the analysis than the run)
RULE_LIMIT = 200


def _sat_mul(a: int, b: int) -> int:
    out = a * b
    return out if out < BOUND_CAP else BOUND_CAP


def _sat_add(a: int, b: int) -> int:
    out = a + b
    return out if out < BOUND_CAP else BOUND_CAP


def _sat_pow(base: int, exp: int) -> int:
    out = 1
    for _ in range(exp):
        out = _sat_mul(out, base)
    return out


def fmt_bound(bound: int) -> Union[int, str]:
    """``bound``, or ``"saturated"`` once it reaches :data:`BOUND_CAP`."""
    return "saturated" if bound >= BOUND_CAP else bound


def _distinct_vars(atom: Atom) -> int:
    return len({t for t in atom.args if isinstance(t, Variable)})


def _program_constants(program: DatalogProgram) -> set[object]:
    out: set[object] = set()
    for rule in program.rules:
        for atom in (rule.head, *rule.body):
            out |= atom.constants()
    return out


@dataclass(frozen=True)
class CostParameters:
    """The inputs the abstract interpretation runs against.

    ``measured`` parameters come from a concrete instance (exact EDB
    sizes, exact active-domain width); ``assumed`` parameters model
    every EDB relation at :data:`DEFAULT_EDB_SIZE` rows for purely
    static analysis (lint, ``analyze cost``) where no instance exists.
    """

    edb_sizes: Mapping[str, int]
    idb_seeds: Mapping[str, int]
    adom: int
    default_edb_size: int
    assumed: bool

    @staticmethod
    def from_instance(
        program: DatalogProgram, instance: "Instance"
    ) -> "CostParameters":
        """Exact parameters for one concrete instance."""
        idb = program.idb_predicates()
        edb_sizes: dict[str, int] = {}
        idb_seeds: dict[str, int] = {}
        for pred in instance.predicates():
            if pred in idb:
                idb_seeds[pred] = instance.size(pred)
            else:
                edb_sizes[pred] = instance.size(pred)
        adom = len(
            set(instance.active_domain()) | _program_constants(program)
        )
        return CostParameters(
            edb_sizes=edb_sizes,
            idb_seeds=idb_seeds,
            adom=max(1, adom),
            default_edb_size=0,
            assumed=False,
        )

    @staticmethod
    def resolve(
        program: DatalogProgram,
        instance: Optional["Instance"] = None,
        parameters: Optional["CostParameters"] = None,
    ) -> "CostParameters":
        """``parameters`` if given, else measured from ``instance``, else
        assumed."""
        if parameters is not None:
            return parameters
        if instance is not None:
            return CostParameters.from_instance(program, instance)
        return CostParameters.assumed_for(program)

    @staticmethod
    def assumed_for(
        program: DatalogProgram, edb_size: int = DEFAULT_EDB_SIZE
    ) -> "CostParameters":
        """Instance-free parameters: every EDB at ``edb_size`` rows.

        The derived active-domain width is itself a sound consequence
        of the assumption: ``edb_size`` facts of arity ``k`` introduce
        at most ``edb_size * k`` values, plus the program's constants.
        """
        adom = len(_program_constants(program))
        sizes: dict[str, int] = {}
        for pred in sorted(program.edb_predicates()):
            arity = program.arity_of(pred)
            sizes[pred] = edb_size
            adom = _sat_add(adom, _sat_mul(edb_size, arity))
        return CostParameters(
            edb_sizes=sizes,
            idb_seeds={},
            adom=max(1, adom),
            default_edb_size=edb_size,
            assumed=True,
        )


@dataclass(frozen=True)
class PredicateBound:
    """A sound worst-case cardinality bound for one predicate."""

    pred: str
    arity: int
    bound: int
    recursive: bool
    basis: str
    rule_indices: tuple[int, ...] = ()

    def as_dict(self) -> dict[str, object]:
        return {
            "pred": self.pred,
            "arity": self.arity,
            "bound": self.bound,
            "recursive": self.recursive,
            "basis": self.basis,
            "rule_indices": list(self.rule_indices),
        }


@dataclass(frozen=True)
class AtomCost:
    """One body atom's contribution in the estimated join order."""

    atom: str
    pred: str
    bound: int
    distinct_vars: int
    bindable: bool
    cartesian: bool
    running: int

    def as_dict(self) -> dict[str, object]:
        return {
            "atom": self.atom,
            "pred": self.pred,
            "bound": self.bound,
            "distinct_vars": self.distinct_vars,
            "bindable": self.bindable,
            "cartesian": self.cartesian,
            "running": self.running,
        }


@dataclass(frozen=True)
class RuleCost:
    """Join cost bound for one rule, with per-atom provenance."""

    rule_index: int
    head: str
    atoms: tuple[AtomCost, ...]
    output_bound: int
    join_cost: int
    dominant: Optional[AtomCost]
    cartesian: bool

    def as_dict(self) -> dict[str, object]:
        return {
            "rule_index": self.rule_index,
            "head": self.head,
            "atoms": [a.as_dict() for a in self.atoms],
            "output_bound": self.output_bound,
            "join_cost": self.join_cost,
            "dominant": (
                self.dominant.as_dict() if self.dominant else None
            ),
            "cartesian": self.cartesian,
        }


@dataclass(frozen=True)
class CostReport:
    """The full result of the abstract interpretation."""

    parameters: CostParameters
    bounds: Mapping[str, PredicateBound]
    rules: tuple[RuleCost, ...]
    total_bound: int
    total_join_cost: int
    peeled_rules: tuple[int, ...] = ()
    unreachable: frozenset[str] = field(default_factory=frozenset)

    @classmethod
    def of(cls, plan: "Plan") -> "CostReport":
        """The cost view of an evaluated stratum plan: its bounds, and
        the join cost of every rule the peel kept."""
        program = plan.program_plan
        params = plan.parameters
        bounds = {
            pred: bound
            for stratum in plan.strata
            for pred, bound in stratum.bounds.items()
        }
        sizes = {
            **params.edb_sizes,
            **{pred: pb.bound for pred, pb in bounds.items()},
        }
        rules = tuple(
            _rule_cost(program.kept[j], rule, sizes, params)
            for j, rule in enumerate(program.peeled.rules)
        )
        total_bound = 0
        for pb in bounds.values():
            total_bound = _sat_add(total_bound, pb.bound)
        total_join = 0
        for rc in rules:
            total_join = _sat_add(total_join, rc.join_cost)
        return cls(
            params, bounds, rules, total_bound, total_join,
            program.dropped, program.unreachable,
        )

    def bound_of(self, pred: str) -> Optional[PredicateBound]:
        return self.bounds.get(pred)

    def as_dict(self) -> dict[str, object]:
        return {
            "adom": self.parameters.adom,
            "assumed": self.parameters.assumed,
            "bounds": {
                pred: pb.as_dict() for pred, pb in self.bounds.items()
            },
            "rules": [rc.as_dict() for rc in self.rules],
            "total_bound": self.total_bound,
            "total_join_cost": self.total_join_cost,
            "peeled_rules": list(self.peeled_rules),
            "unreachable": sorted(self.unreachable),
        }

    def render_text(self) -> str:
        mode = "assumed" if self.parameters.assumed else "measured"
        lines = [
            f"cost analysis ({mode} parameters, adom {self.parameters.adom})",
            f"  total predicted facts <= {fmt_bound(self.total_bound)}",
            "  total predicted join cost <= "
            f"{fmt_bound(self.total_join_cost)}",
        ]
        if self.peeled_rules:
            dropped = ", ".join(str(i) for i in self.peeled_rules)
            lines.append(f"  boundedness peeling dropped rules: {dropped}")
        lines.append("  predicate bounds:")
        for pred in sorted(self.bounds):
            pb = self.bounds[pred]
            kind = "recursive" if pb.recursive else "nonrecursive"
            lines.append(
                f"    {pred}/{pb.arity} <= {fmt_bound(pb.bound)}  "
                f"[{kind}; {pb.basis}]"
            )
        for rc in self.rules:
            lines.append(
                f"  rule {rc.rule_index} ({rc.head}): output <= "
                f"{fmt_bound(rc.output_bound)}, join cost <= "
                f"{fmt_bound(rc.join_cost)}"
                + (" [cartesian]" if rc.cartesian else "")
            )
            for ac in rc.atoms:
                marks = []
                if not ac.bindable:
                    marks.append("unbindable")
                if ac.cartesian:
                    marks.append("cartesian")
                note = f"  [{', '.join(marks)}]" if marks else ""
                lines.append(
                    f"      {ac.atom}: <= {fmt_bound(ac.bound)} rows, "
                    f"running {fmt_bound(ac.running)}{note}"
                )
        return "\n".join(lines)


def atom_match_bound(
    atom: Atom,
    bound_vars: frozenset[Variable] | set[Variable],
    sizes: Mapping[str, int],
    adom: int,
    default_size: int,
) -> int:
    """Max rows of ``atom`` matching any fixed binding of ``bound_vars``.

    Constants, repeated variables and already-bound variables all
    reduce the number of *distinct free* variables, which caps the
    match set at ``adom**free`` independently of the relation size.
    """
    size = sizes.get(atom.pred, default_size)
    free = len(
        {t for t in atom.args if isinstance(t, Variable)} - set(bound_vars)
    )
    return min(max(size, 0), _sat_pow(adom, free))


def _rule_output_bound(
    rule: Rule, sizes: Mapping[str, int], params: CostParameters
) -> int:
    homs = 1
    for atom in rule.body:
        homs = _sat_mul(
            homs,
            atom_match_bound(
                atom, frozenset(), sizes, params.adom,
                params.default_edb_size,
            ),
        )
    head_vars = _distinct_vars(rule.head)
    return min(homs, _sat_pow(params.adom, head_vars))


def _head_shape_bound(rule: Rule, params: CostParameters) -> int:
    return _sat_pow(params.adom, _distinct_vars(rule.head))


def _rule_cost(
    original_index: int,
    rule: Rule,
    sizes: Mapping[str, int],
    params: CostParameters,
) -> RuleCost:
    """Greedy connected-first join order, cheapest atom bound next,
    with saturating running products."""
    remaining = list(rule.body)
    bound_vars: set[Variable] = set()
    atom_costs: list[AtomCost] = []
    running = 1
    join_cost = 0
    any_cartesian = False
    var_count: dict[Variable, int] = {}
    for atom in rule.body:
        for v in atom.variables():
            var_count[v] = var_count.get(v, 0) + 1
    while remaining:
        connected = [
            a
            for a in remaining
            if not bound_vars or (a.variables() & bound_vars)
        ]
        pool = connected or remaining
        cartesian_step = bool(bound_vars) and not connected
        best = min(
            pool,
            key=lambda a: (
                atom_match_bound(
                    a, bound_vars, sizes, params.adom,
                    params.default_edb_size,
                ),
                remaining.index(a),
            ),
        )
        bound = atom_match_bound(
            best, bound_vars, sizes, params.adom, params.default_edb_size
        )
        running = _sat_mul(running, bound)
        join_cost = _sat_add(join_cost, running)
        bindable = len(rule.body) == 1 or any(
            var_count[v] > 1 for v in best.variables()
        )
        step_cartesian = cartesian_step and bound > 1 and running > bound
        any_cartesian = any_cartesian or step_cartesian
        atom_costs.append(
            AtomCost(
                atom=repr(best),
                pred=best.pred,
                bound=bound,
                distinct_vars=_distinct_vars(best),
                bindable=bindable,
                cartesian=step_cartesian,
                running=running,
            )
        )
        remaining.remove(best)
        bound_vars |= best.variables()
    output = min(running, _head_shape_bound(rule, params))
    dominant = (
        max(atom_costs, key=lambda ac: ac.bound) if atom_costs else None
    )
    return RuleCost(
        rule_index=original_index,
        head=repr(rule.head),
        atoms=tuple(atom_costs),
        output_bound=output,
        join_cost=join_cost,
        dominant=dominant,
        cartesian=any_cartesian,
    )


def unreachable_from(
    dependency: DependencyGraph, goal: Optional[str]
) -> frozenset[str]:
    """IDB predicates ``goal`` cannot reach (none without a goal)."""
    if goal is None or goal not in dependency.graph:
        return frozenset()
    return frozenset(dependency.idb - dependency.reachable_from(goal))


def cardinality_bounds(
    program: DatalogProgram,
    dependency: DependencyGraph,
    params: CostParameters,
    kept: Optional[tuple[int, ...]] = None,
    unreachable: frozenset[str] = frozenset(),
) -> dict[str, PredicateBound]:
    """A sound cardinality bound for every IDB predicate of ``program``.

    ``kept`` maps ``program``'s rule indices back to the rules of the
    program it was peeled from (default: the identity).  Predicates in
    ``unreachable`` are bound by their instance seeds alone.
    """
    if kept is None:
        kept = tuple(range(len(program.rules)))
    sizes: dict[str, int] = dict(params.edb_sizes)
    bounds: dict[str, PredicateBound] = {}
    for scc in dependency.sccs:
        for pred in sorted(scc.predicates):
            arity = program.arity_of(pred)
            seed = params.idb_seeds.get(pred, 0)
            cap = _sat_pow(params.adom, arity)
            if pred in unreachable:
                bounds[pred] = PredicateBound(
                    pred, arity, min(seed, cap), scc.recursive,
                    "unreachable from goal: instance seeds only",
                    scc.rule_indices,
                )
                sizes[pred] = bounds[pred].bound
                continue
            pred_rules = [
                (kept[j], program.rules[j])
                for j in scc.rule_indices
                if program.rules[j].head.pred == pred
            ]
            if not scc.recursive:
                total = seed
                for _, rule in pred_rules:
                    total = _sat_add(
                        total, _rule_output_bound(rule, sizes, params)
                    )
                bound = min(total, cap)
                basis = (
                    f"sum of {len(pred_rules)} rule bound(s)"
                    + (f" + {seed} seed fact(s)" if seed else "")
                )
            else:
                shape = seed
                for _, rule in pred_rules:
                    shape = _sat_add(shape, _head_shape_bound(rule, params))
                bound = min(shape, cap)
                basis = f"head shapes capped at adom^{arity} = {cap}"
            bounds[pred] = PredicateBound(
                pred, arity, bound, scc.recursive, basis,
                tuple(index for index, _ in pred_rules),
            )
            sizes[pred] = bound
    return bounds


def cost_report(
    program: DatalogProgram,
    goal: Optional[str] = None,
    instance: Optional["Instance"] = None,
    parameters: Optional[CostParameters] = None,
    dependency: Optional[DependencyGraph] = None,
) -> CostReport:
    """Run the abstract interpretation and return every bound.

    With a ``goal``, predicates the goal cannot reach are bound by
    their instance seeds alone (goal-directed evaluation prunes their
    rules).  With an ``instance`` (or explicit ``parameters``) the
    bounds are exact-parameter; otherwise every EDB is assumed to hold
    :data:`DEFAULT_EDB_SIZE` rows.

    Its readers are ``repro analyze cost`` and the cost lint passes
    (I209, W112-W114); ``--audit cost`` checks the same bounds against
    measured sizes (:class:`CostGuard`).  Nothing that decides what
    runs reads it.
    """
    from repro.analysis.plan import program_plan

    params = CostParameters.resolve(program, instance, parameters)
    return CostReport.of(
        program_plan(program, goal, dependency).evaluate(params)
    )


# ----------------------------------------------------------------------
# the cost audit: empirical re-validation of every bound
# ----------------------------------------------------------------------
#: program-only plans the cost audit keeps per process
AUDIT_PLAN_CACHE_SIZE = 256


@lru_cache(maxsize=AUDIT_PLAN_CACHE_SIZE)
def _audit_plan(program: DatalogProgram) -> "ProgramPlan":
    """``program_plan(program)``, built once per program: it is a pure
    function of the program, and the plan is frozen."""
    from repro.analysis.plan import program_plan

    return program_plan(program)


class CostGuard(Audit):
    """The ``cost`` audit: measured relation sizes against their bounds.

    Called by :func:`repro.core.evaluation.fixpoint` with the *actually
    executed* program; any IDB relation larger than its bound is an
    unsound prediction.
    """

    def __init__(self) -> None:
        super().__init__()
        self.predicates = 0

    def __call__(
        self,
        program: DatalogProgram,
        instance: "Instance",
        result: "Instance",
    ) -> None:
        from repro.core import stats as _stats

        if not program.rules or len(program.rules) > RULE_LIMIT:
            return
        with _stats.suspended():
            bounds = _audit_plan(program).bounds(
                CostParameters.from_instance(program, instance)
            )
        # the bounds cover exactly the program's IDB predicates
        self.checks += 1
        self.predicates += len(bounds)
        for pred, pb in bounds.items():
            measured = result.size(pred)
            if measured > pb.bound:
                # a bound covers the rows of the program's arity; rows
                # of another width are stored, never derived or joined
                measured = sum(len(row) == pb.arity for row in result.rows(pred))
            if measured > pb.bound:
                self.violations.append(
                    {
                        "pred": pred,
                        "measured": measured,
                        "bound": pb.bound,
                        "basis": pb.basis,
                        "recursive": pb.recursive,
                    }
                )

    def tallies(self) -> dict[str, object]:
        return {"predicates": self.predicates}

    @staticmethod
    def render_violation(violation: Mapping[str, Any]) -> str:
        return (
            f"cost bound VIOLATED: {violation['pred']} measured "
            f"{violation['measured']} > bound {violation['bound']} "
            f"({violation['basis']})"
        )
