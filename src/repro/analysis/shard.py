"""Certified static shardability analysis for parallel fixpoints.

An abstract interpretation over the SCC condensation
(:class:`repro.analysis.dependency.DependencyGraph`) that plans a
hash-partitioned parallel evaluation: for every stratum it propagates
join-variable co-occurrence through the rule bodies to find candidate
partition keys, and classifies the stratum as

* **communication-free** — every rule has a *pivot* variable occurring
  in the head and in every body atom, and one key position per
  predicate can be chosen consistently across the stratum's rules so
  that each rule's pivot sits at the chosen position of the head *and*
  of every body atom.  Hash-partitioning every relation on its key
  position then makes each worker's local fixpoint self-contained:
  all body facts that can join to derive a head fact hash to the same
  worker the head fact belongs on, so workers never exchange tuples
  (the classic co-hashing argument for parallel Datalog);
* **exchange-required** — no such assignment exists (or a rule has no
  pivot at all): the semi-naive deltas must be re-shuffled between
  rounds.  The exchange volume is estimated from the PR-7
  :class:`~repro.analysis.cost.CostReport` bounds: every derived fact
  may have to travel to the other ``workers - 1`` workers;
* **sequential** — parallelism cannot help or is unsound to localize:
  a rule with a variable-free head (0-ary heads, constant-only heads)
  funnels everything into one fact, an empty or cartesian body
  (:func:`~repro.analysis.dependency.rule_body_components` finds more
  than one variable-sharing component) joins unrelated partitions, so
  the stratum runs on the parent process as today.

The key search is a small backtracking CSP.  Candidate positions for a
predicate are the intersection, over every occurrence of the predicate
in the stratum's rules, of the positions where some pivot variable of
that rule occurs; the backtracking assignment is verified rule by rule
and capped at :data:`_CSP_STEP_LIMIT` steps.  Failure is always safe:
an unplanned stratum degrades to ``exchange_required``, never to an
unsound communication-free claim.  ``evidence run --check-sharding``
installs a :class:`ShardGuard` that audits the claim at runtime: in a
communication-free stratum no worker may ever hold a fact whose key
hashes to a different worker.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Optional

from repro.core.datalog import DatalogProgram, Rule
from repro.core.terms import Variable

from repro.analysis.cost import (
    BOUND_CAP,
    COST_RULE_LIMIT,
    CostParameters,
    CostReport,
    _sat_add,
    _sat_mul,
    cost_report,
)
from repro.analysis.dependency import DependencyGraph, rule_body_components

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.instance import Instance

#: shardability analysis is skipped above this rule count (mirrors
#: COST_RULE_LIMIT: a mega-program's plan costs more than it saves)
SHARD_RULE_LIMIT = COST_RULE_LIMIT

#: workers the report is rendered for when the caller does not say
DEFAULT_SHARD_WORKERS = 4

#: backtracking budget of the key-assignment search; blown budget
#: degrades the stratum to exchange_required (safe, never unsound)
_CSP_STEP_LIMIT = 10_000

COMMUNICATION_FREE = "communication_free"
EXCHANGE_REQUIRED = "exchange_required"
SEQUENTIAL = "sequential"


def shard_key(value: object) -> int:
    """Deterministic, process-independent hash of one key value.

    Python's builtin ``hash`` is salted per process, so two
    ``multiprocessing`` workers would disagree on where a tuple lives;
    CRC-32 over the value's ``repr`` is stable across processes and
    runs, which is what the plan, the executor and the
    :class:`ShardGuard` all need to agree on.
    """
    return zlib.crc32(repr(value).encode("utf-8", "backslashreplace"))


def shard_of(value: object, shards: int) -> int:
    """The worker index (``0 <= i < shards``) owning ``value``."""
    return shard_key(value) % shards if shards > 0 else 0


@dataclass(frozen=True)
class ShardStratumPlan:
    """The shardability classification of one SCC.

    ``keys`` maps every predicate occurring in the stratum's rules
    (including EDBs and earlier-stratum IDBs read by the bodies) to
    the argument position relations are hash-partitioned on; it is
    non-empty exactly for communication-free strata.  ``exchange_bound``
    is the worst-case number of row transfers between rounds for
    exchange-required strata (0 otherwise), saturating at
    :data:`~repro.analysis.cost.BOUND_CAP`.
    """

    index: int
    predicates: tuple[str, ...]
    recursive: bool
    classification: str
    keys: Mapping[str, int]
    basis: str
    rule_indices: tuple[int, ...]
    exchange_bound: int

    def as_dict(self) -> dict[str, object]:
        return {
            "index": self.index,
            "predicates": list(self.predicates),
            "recursive": self.recursive,
            "classification": self.classification,
            "keys": dict(self.keys),
            "basis": self.basis,
            "rule_indices": list(self.rule_indices),
            "exchange_bound": self.exchange_bound,
        }


@dataclass(frozen=True)
class ShardReport:
    """Everything the shardability analysis derived."""

    parameters: CostParameters
    workers: int
    strata: tuple[ShardStratumPlan, ...]
    communication_free: int
    exchange_required: int
    sequential: int
    total_exchange_bound: int
    cost: Optional[CostReport] = field(default=None, compare=False)

    def plan_of(self, pred: str) -> Optional[ShardStratumPlan]:
        for stratum in self.strata:
            if pred in stratum.predicates:
                return stratum
        return None

    def classification(self) -> dict[str, str]:
        """``pred -> classification`` over every IDB predicate."""
        out: dict[str, str] = {}
        for stratum in self.strata:
            for pred in stratum.predicates:
                out[pred] = stratum.classification
        return out

    def as_dict(self) -> dict[str, object]:
        return {
            "workers": self.workers,
            "assumed_parameters": self.parameters.assumed,
            "adom": self.parameters.adom,
            "strata": [stratum.as_dict() for stratum in self.strata],
            "communication_free": self.communication_free,
            "exchange_required": self.exchange_required,
            "sequential": self.sequential,
            "total_exchange_bound": _fmt_json(self.total_exchange_bound),
        }

    def render_text(self) -> str:
        lines = [
            f"shardability plan for {self.workers} worker(s) "
            f"({'assumed' if self.parameters.assumed else 'measured'} "
            f"parameters, adom {self.parameters.adom}):"
        ]
        for stratum in self.strata:
            preds = ", ".join(stratum.predicates)
            lines.append(
                f"  stratum {stratum.index} "
                f"[{preds}]{' (recursive)' if stratum.recursive else ''}: "
                f"{stratum.classification}"
            )
            if stratum.keys:
                keys = ", ".join(
                    f"{pred}[{pos}]"
                    for pred, pos in sorted(stratum.keys.items())
                )
                lines.append(f"    partition keys: {keys}")
            if stratum.classification == EXCHANGE_REQUIRED:
                lines.append(
                    f"    exchange bound: {_fmt(stratum.exchange_bound)} "
                    f"row transfer(s) per round"
                )
            lines.append(f"    basis: {stratum.basis}")
        lines.append(
            f"summary: {self.communication_free} communication-free, "
            f"{self.exchange_required} exchange-required, "
            f"{self.sequential} sequential stratum(a); total exchange "
            f"bound {_fmt(self.total_exchange_bound)}"
        )
        return "\n".join(lines)


def _fmt(bound: int) -> str:
    return "saturated" if bound >= BOUND_CAP else str(bound)


def _fmt_json(bound: int) -> object:
    return "saturated" if bound >= BOUND_CAP else bound


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
    """Backtracking search for a consistent key-position assignment."""
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


def shard_report(
    program: DatalogProgram,
    goal: Optional[str] = None,
    instance: Optional["Instance"] = None,
    parameters: Optional[CostParameters] = None,
    dependency: Optional[DependencyGraph] = None,
    workers: int = DEFAULT_SHARD_WORKERS,
) -> ShardReport:
    """Plan a hash-partitioned parallel evaluation of ``program``.

    ``parameters`` (or ``instance``, measured) feed the PR-7 cost model
    the exchange-volume estimates come from; without either the
    assumed defaults are used.  ``workers`` only scales the exchange
    bounds — the classifications are worker-count independent.
    """
    workers = max(1, workers)
    if parameters is not None:
        params = parameters
    elif instance is not None:
        params = CostParameters.from_instance(program, instance)
    else:
        params = CostParameters.assumed_for(program)
    dep = dependency if dependency is not None else DependencyGraph(program)
    within_limit = bool(program.rules) and (
        len(program.rules) <= SHARD_RULE_LIMIT
    )
    cost: Optional[CostReport] = None
    if within_limit:
        cost = cost_report(
            program, goal=goal, parameters=params, dependency=dep
        )

    strata: list[ShardStratumPlan] = []
    comm_free = exchange = sequential = 0
    total_exchange = 0
    for scc in dep.sccs:
        rules = tuple(program.rules[i] for i in scc.rule_indices)
        classification = COMMUNICATION_FREE
        keys: dict[str, int] = {}
        basis = ""
        exchange_bound = 0

        reasons = [
            (index, _sequential_reason(program.rules[index]))
            for index in scc.rule_indices
        ]
        blocking = [(i, r) for i, r in reasons if r is not None]
        if blocking:
            classification = SEQUENTIAL
            index, reason = blocking[0]
            basis = f"rule {index}: {reason}"
        elif not within_limit:
            classification = EXCHANGE_REQUIRED
            basis = (
                f"program exceeds SHARD_RULE_LIMIT "
                f"({len(program.rules)} > {SHARD_RULE_LIMIT}); "
                f"key search skipped"
            )
            exchange_bound = BOUND_CAP
        else:
            solved = _solve_keys(rules)
            if solved is not None:
                keys = solved
                basis = (
                    f"pivot co-occurrence admits a consistent key for "
                    f"all {len(keys)} predicate(s) across "
                    f"{len(rules)} rule(s)"
                )
            else:
                classification = EXCHANGE_REQUIRED
                basis = (
                    "no common pivot position survives every rule; "
                    "deltas re-shuffled between semi-naive rounds"
                )
                for pred in sorted(scc.predicates):
                    bound = (
                        cost.bound_of(pred) if cost is not None else None
                    )
                    per_pred = bound.bound if bound is not None else BOUND_CAP
                    exchange_bound = _sat_add(
                        exchange_bound,
                        _sat_mul(per_pred, workers - 1),
                    )

        if classification == COMMUNICATION_FREE:
            comm_free += 1
        elif classification == EXCHANGE_REQUIRED:
            exchange += 1
        else:
            sequential += 1
        total_exchange = _sat_add(total_exchange, exchange_bound)
        strata.append(ShardStratumPlan(
            index=scc.index,
            predicates=tuple(sorted(scc.predicates)),
            recursive=scc.recursive,
            classification=classification,
            keys=keys,
            basis=basis,
            rule_indices=tuple(scc.rule_indices),
            exchange_bound=exchange_bound,
        ))

    return ShardReport(
        parameters=params,
        workers=workers,
        strata=tuple(strata),
        communication_free=comm_free,
        exchange_required=exchange,
        sequential=sequential,
        total_exchange_bound=total_exchange,
        cost=cost,
    )


class ShardGuard:
    """Audits sharded runs for conformance with the static plan.

    Installed by a run whose :class:`~repro.core.context.RunConfig`
    lists the ``shard`` audit, fed by the sharded
    executor after every stratum with what each worker derived.  The
    one unsound direction is recorded loudly: a worker holding a fact
    of a communication-free stratum whose partition key hashes to a
    *different* worker — the analysis claimed that can never happen.
    """

    def __init__(self, limit: int = SHARD_RULE_LIMIT) -> None:
        self.limit = limit
        self.checks = 0
        self.strata = 0
        self.facts = 0
        self.violations: list[dict[str, object]] = []

    def check_stratum(
        self,
        plan: ShardStratumPlan,
        shards: int,
        per_worker: Mapping[int, Iterable[tuple[str, tuple[object, ...]]]],
    ) -> None:
        """Verify no tuple crossed a shard boundary in ``plan``."""
        self.checks += 1
        if plan.classification != COMMUNICATION_FREE:
            return
        self.strata += 1
        for worker, facts in per_worker.items():
            for pred, args in facts:
                key = plan.keys.get(pred)
                if key is None or key >= len(args):
                    continue
                self.facts += 1
                owner = shard_of(args[key], shards)
                if owner != worker:
                    self.violations.append({
                        "kind": "boundary",
                        "stratum": plan.index,
                        "pred": pred,
                        "fact": repr(args),
                        "worker": worker,
                        "owner": owner,
                    })

    def summary(self) -> dict[str, object]:
        return {
            "checks": self.checks,
            "strata": self.strata,
            "facts": self.facts,
            "violations": list(self.violations),
        }
