"""Certified static shardability analysis for parallel fixpoints.

A view of the stratum plan (:mod:`repro.analysis.plan`) that plans a
hash-partitioned parallel evaluation: for every stratum the plan
propagates join-variable co-occurrence through the rule bodies to find
candidate partition keys, and classifies the stratum as

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
  rounds.  The exchange volume is estimated from the cardinality
  bounds (:mod:`repro.analysis.cost`): every derived fact may have to
  travel to the other ``workers - 1`` workers;
* **sequential** — parallelism cannot help or is unsound to localize:
  a rule with a variable-free head (0-ary heads, constant-only heads)
  funnels everything into one fact, an empty or cartesian body
  (:func:`~repro.analysis.dependency.rule_body_components` finds more
  than one variable-sharing component) joins unrelated partitions, so
  the stratum runs on the parent process as today.

``evidence run --audit shard`` installs a :class:`ShardGuard` that
audits the claim at runtime: in a communication-free stratum no worker
may ever hold a fact whose key hashes to a different worker.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Optional

from repro.analysis.cost import CostParameters, _sat_add, fmt_bound
from repro.analysis.dependency import DependencyGraph
from repro.analysis.plan import (
    COMMUNICATION_FREE,
    DEFAULT_SHARD_WORKERS,
    EXCHANGE_REQUIRED,
    SEQUENTIAL,
    Plan,
    ProgramStratum,
    Strata,
    StratumPlan,
    program_plan,
)
from repro.core.context import Audit
from repro.core.datalog import DatalogProgram

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.instance import Instance


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
class ShardReport(Strata[StratumPlan]):
    """The shardability view of a stratum plan."""

    parameters: CostParameters
    workers: int
    strata: tuple[StratumPlan, ...]
    communication_free: int
    exchange_required: int
    sequential: int
    total_exchange_bound: int

    @classmethod
    def of(cls, plan: Plan) -> "ShardReport":
        kinds = [stratum.classification for stratum in plan.strata]
        total = 0
        for stratum in plan.strata:
            total = _sat_add(total, stratum.exchange_bound)
        return cls(
            parameters=plan.parameters,
            workers=plan.workers,
            strata=plan.strata,
            communication_free=kinds.count(COMMUNICATION_FREE),
            exchange_required=kinds.count(EXCHANGE_REQUIRED),
            sequential=kinds.count(SEQUENTIAL),
            total_exchange_bound=total,
        )

    def classification(self) -> dict[str, str]:
        """``pred -> classification`` over every IDB predicate."""
        return self.per_predicate("classification")

    def as_dict(self) -> dict[str, object]:
        return {
            "workers": self.workers,
            "assumed_parameters": self.parameters.assumed,
            "adom": self.parameters.adom,
            "strata": [
                {
                    "index": stratum.index,
                    "predicates": list(stratum.predicates),
                    "recursive": stratum.recursive,
                    "classification": stratum.classification,
                    "keys": dict(stratum.keys),
                    "basis": stratum.shard_basis,
                    "rule_indices": list(stratum.rule_indices),
                    "exchange_bound": stratum.exchange_bound,
                }
                for stratum in self.strata
            ],
            "communication_free": self.communication_free,
            "exchange_required": self.exchange_required,
            "sequential": self.sequential,
            "total_exchange_bound": fmt_bound(self.total_exchange_bound),
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
                    f"    exchange bound: {fmt_bound(stratum.exchange_bound)} "
                    f"row transfer(s) per round"
                )
            lines.append(f"    basis: {stratum.shard_basis}")
        lines.append(
            f"summary: {self.communication_free} communication-free, "
            f"{self.exchange_required} exchange-required, "
            f"{self.sequential} sequential stratum(a); total exchange "
            f"bound {fmt_bound(self.total_exchange_bound)}"
        )
        return "\n".join(lines)


def shard_report(
    program: DatalogProgram,
    goal: Optional[str] = None,
    instance: Optional["Instance"] = None,
    parameters: Optional[CostParameters] = None,
    dependency: Optional[DependencyGraph] = None,
    workers: int = DEFAULT_SHARD_WORKERS,
) -> ShardReport:
    """Plan a hash-partitioned parallel evaluation of ``program``.

    ``parameters`` (or ``instance``, measured) feed the cost model the
    exchange-volume estimates come from; without either the assumed
    defaults are used.  ``workers`` only scales the exchange bounds —
    the classifications are worker-count independent.
    """
    plan = program_plan(program, goal, dependency).evaluate(
        CostParameters.resolve(program, instance, parameters),
        workers=workers,
    )
    return ShardReport.of(plan)


class ShardGuard(Audit):
    """The ``shard`` audit: sharded runs against the static plan.

    Fed by the sharded executor after every communication-free stratum
    with what each worker derived; a fact whose partition key hashes to
    a *different* worker is the one unsound direction.
    """

    def __init__(self) -> None:
        super().__init__()
        self.strata = 0
        self.facts = 0

    def check_stratum(
        self,
        plan: ProgramStratum,
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

    def tallies(self) -> dict[str, object]:
        return {"strata": self.strata, "facts": self.facts}

    @staticmethod
    def render_violation(violation: Mapping[str, Any]) -> str:
        return (
            f"shard boundary VIOLATED: {violation['pred']} fact "
            f"{violation['fact']} landed on worker {violation['worker']} "
            f"but hashes to {violation['owner']} "
            f"(stratum {violation['stratum']})"
        )
