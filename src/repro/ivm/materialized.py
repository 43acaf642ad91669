"""Delta-driven incremental maintenance of a Datalog materialization.

A :class:`MaterializedView` owns a program, a *base* instance (the facts
the caller has asserted) and the full materialization
``state = FPEval(Π, base)``.  One :meth:`MaterializedView.apply` call is
one *maintenance round*: retractions and insertions are normalised into
a net base delta and pushed through the program one SCC stratum at a
time, dependencies first — exactly the schedule the stratified fixpoint
engine uses, so every stratum sees finalised deltas for everything it
reads.

Per-stratum algorithms:

* **Non-recursive strata** use *counting*: the view keeps the number of
  derivations of every fact, and a maintenance round computes the exact
  derivation-count change with the telescoping signed expansion
  ``Δ(R₁ ⋈ … ⋈ Rₙ) = Σᵢ old(R₁..Rᵢ₋₁) ⋈ ΔRᵢ ⋈ new(Rᵢ₊₁..Rₙ)`` — each
  changed rule instantiation is counted exactly once, with sign.  A fact
  is present iff its count is positive or it is base-asserted.
* **Recursive strata** (the plan's ``dred`` label, kept until the next
  schema bump) have one schedule.  An insert-only round propagates the
  new facts semi-naively, with the engine's own delta machinery
  (:func:`repro.core.evaluation._delta_derivations` and its shared
  join-plan cache, or the columnar delta plans).  A round that retracts
  anything the stratum reads, or one of its own base-asserted facts,
  recomputes the stratum on the columnar engine from its inputs (lower
  strata are settled by then) and its base-asserted rows, and diffs
  the result into the round's delta.  A recompute costs at most one
  stratum fixpoint, however far the retraction cascades.

The view's ``backend`` is the insert-propagation engine; recompute
always runs columnar.  Counting always runs interpreted: it joins against
*old* views of changed relations, a mixed old/new shape the
append-only columnar store cannot express.

Old views are never snapshotted eagerly: for a changed predicate ``p``
the pre-round relation is reconstructed lazily as
``old(p) = (state ∖ plus[p]) ∪ minus[p]`` from the net per-predicate
deltas, and unchanged predicates are read straight from ``state``.

Correctness contract (certified): after any round, ``state`` equals a
from-scratch ``FPEval(Π, base)``.  :meth:`MaterializedView.certificate`
emits this as an ``ivm`` claim for the independent replay checker, and
the Hypothesis suite in ``tests/ivm`` drives random update
interleavings against the batch oracle across backends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

from repro.analysis.cost import RULE_LIMIT, CostParameters
from repro.analysis.dependency import SCC
from repro.analysis.maintain import MaintainReport, maintain_report
from repro.analysis.plan import ProgramPlan, program_plan
from repro.core import stats as _stats
from repro.core.atoms import Atom, Fact
from repro.core.context import current
from repro.core.datalog import DatalogProgram, Rule
from repro.core.evaluation import (
    _delta_derivations,
    _PlanCache,
    _program_delta_patterns,
    _rule_derivations,
    fixpoint,
)
from repro.core.homomorphism import _bindings_for_row, _pattern
from repro.core.instance import Instance
from repro.core.stats import EngineStats

Row = tuple[object, ...]
#: net per-predicate delta of one maintenance round (plus/minus rows)
Delta = dict[str, set[Row]]
#: anything :meth:`MaterializedView.apply` accepts as a fact
FactLike = Union[Atom, tuple[str, Iterable[object]]]

_EMPTY: frozenset[Row] = frozenset()


@dataclass(frozen=True)
class MaintenanceRound:
    """Summary of one :meth:`MaterializedView.apply` round."""

    index: int                        # 1-based round number
    backend: str                      # engine used for insert propagation
    inserted: int                     # net facts added to the state
    deleted: int                      # net facts removed from the state
    rederived: int                    # old facts a recompute derived again
    plus: dict[str, frozenset[Row]]   # net additions, per predicate
    minus: dict[str, frozenset[Row]]  # net removals, per predicate

    def as_dict(self) -> dict[str, object]:
        """JSON-ready counters (the serve protocol's round report)."""
        return {
            "round": self.index,
            "backend": self.backend,
            "inserted": self.inserted,
            "deleted": self.deleted,
            "rederived": self.rederived,
        }


def _as_fact(obj: FactLike) -> Fact:
    """Normalise an ``Atom`` or ``(pred, args)`` pair into a ground fact."""
    if isinstance(obj, Atom):
        fact = obj
    else:
        pred, args = obj
        fact = Fact(str(pred), tuple(args))
    if not fact.is_ground():
        raise ValueError(f"facts must be ground, got {fact!r}")
    return fact


def _mixed_homomorphisms(
    atoms: Sequence[Atom],
    targets: Sequence[Instance],
    assignment: Mapping[object, object],
) -> Iterator[dict[object, object]]:
    """Backtracking join where each atom matches its *own* instance.

    Counting joins some body positions against the pre-round (*old*)
    view of a relation and others against the current state;
    :func:`repro.core.homomorphism.homomorphisms` assumes one target, so
    this is the same fewest-candidates-first search with a per-atom
    target.  Bodies are small, so recursion is fine here.
    """
    if not atoms:
        yield dict(assignment)
        return
    best = min(
        range(len(atoms)),
        key=lambda k: targets[k].count_matching(
            atoms[k].pred, _pattern(atoms[k], assignment)
        ),
    )
    atom, target = atoms[best], targets[best]
    rest_atoms = list(atoms[:best]) + list(atoms[best + 1:])
    rest_targets = list(targets[:best]) + list(targets[best + 1:])
    for row in target.matching(atom.pred, _pattern(atom, assignment)):
        new = _bindings_for_row(atom, row, assignment)
        if new is None:
            continue
        merged = {**assignment, **new}
        yield from _mixed_homomorphisms(rest_atoms, rest_targets, merged)


class MaterializedView:
    """A live ``FPEval(Π, I)`` maintained under base-fact updates.

    ``optimize=True`` runs the universally sound syntactic optimizer
    passes **once at construction** — they preserve every IDB relation
    on every instance, so the maintained state stays the fixpoint of
    the *source* program too, which is what :meth:`certificate` claims.
    The goal-directed passes (magic sets, inlining) are deliberately
    not applied: the whole materialization is maintained, not one goal.

    ``backend`` is the engine for insert propagation.  Both resolve
    once, at construction: ``None`` takes the current run's
    :class:`~repro.core.context.RunConfig` value.
    """

    def __init__(
        self,
        program: DatalogProgram,
        base: Optional[Instance] = None,
        *,
        optimize: Optional[bool] = None,
        backend: Optional[str] = None,
    ) -> None:
        self.source_program = program
        run = current().config
        self.optimize = run.optimize if optimize is None else bool(optimize)
        if self.optimize:
            from repro.analysis.optimize import (
                OPTIMIZE_RULE_LIMIT,
                syntactic_fixpoint_program,
            )

            if len(program.rules) <= OPTIMIZE_RULE_LIMIT:
                with _stats.suspended():
                    program = syntactic_fixpoint_program(program)
        self.program = program
        self.backend = run.backend if backend is None else backend
        self.base = base.copy() if base is not None else Instance()
        self.rounds = 0

        # the program-only stratum plan decides the per-stratum strategy:
        # strata it proves counting-safe (non-recursive, or recursive
        # only through vacuous rules) are maintained by counting over
        # their effective rules — the vacuous ones derive nothing their
        # subsumers do not, and must be left out symmetrically at
        # initialization and maintenance time — the rest by semi-naive
        # insertion and recompute.  Above the rule limit the plan skips
        # the peel and predicts nothing.
        with _stats.suspended():
            plan = program_plan(program)
        self._plan = plan if len(program.rules) <= RULE_LIMIT else None
        self._sccs = plan.dependency.sccs
        self._idb: set[str] = set(plan.dependency.idb)
        self._counting_rules = {
            stratum.index: tuple(
                program.rules[i] for i in stratum.effective_rule_indices
            )
            for stratum in plan.strata
            if stratum.counting_safe
        }
        self._recursive = {
            pred
            for stratum in plan.strata
            if not stratum.counting_safe
            for pred in stratum.predicates
        }
        self._counted = self._idb - self._recursive
        self._delta_patterns = _program_delta_patterns(program)
        # join plans persist across rounds: the same delta rules replay
        # every round, exactly the semi-naive reuse argument
        self._plans = _PlanCache(None)
        # derivation counts for facts of counting-maintained predicates
        self._counts: dict[tuple[str, Row], int] = {}
        self._source_claims: Optional[dict[str, object]] = None
        self._initialize()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _initialize(self) -> None:
        """From-scratch fixpoint + derivation counts for counted strata."""
        self.state = fixpoint(
            self.program, self.base, optimize=False, backend=self.backend
        )
        counts = self._counts
        counts.clear()
        for rules in self._counting_rules.values():
            for rule in rules:
                for fact in _rule_derivations(rule, self.state):
                    key = (fact.pred, fact.args)
                    counts[key] = counts.get(key, 0) + 1

    # ------------------------------------------------------------------
    # public surface
    # ------------------------------------------------------------------
    def insert(self, facts: Iterable[FactLike]) -> MaintenanceRound:
        """One maintenance round adding ``facts`` to the base."""
        return self.apply(inserts=facts)

    def retract(self, facts: Iterable[FactLike]) -> MaintenanceRound:
        """One maintenance round removing ``facts`` from the base.

        Retracting a fact that is only *derived* (never base-asserted)
        is a no-op: updates address the base instance, the derived
        closure follows from the program.
        """
        return self.apply(retracts=facts)

    def query(self, pred: str) -> frozenset[Row]:
        """The maintained relation for ``pred``."""
        return self.state.tuples(pred)

    def recompute(self) -> Instance:
        """A from-scratch ``FPEval(Π, base)`` (the correctness oracle)."""
        with _stats.suspended():
            return fixpoint(
                self.program, self.base, optimize=False,
                backend="interpreted",
            )

    def maintenance_plan(self) -> Optional[ProgramPlan]:
        """The program-only stratum plan this view was planned from
        (``None`` when the program exceeds the analysis rule limit)."""
        return self._plan

    def maintenance_strategies(self) -> dict[str, str]:
        """``pred -> "counting" | "dred"`` as actually maintained."""
        return {
            pred: ("dred" if pred in self._recursive else "counting")
            for pred in self._idb
        }

    def predict_delta(self, update_size: int = 1) -> Optional[int]:
        """A sound bound on |Δ| for a round changing ``update_size``
        base facts against the *current* base (admission control).

        Evaluates only the parameter part of the view's stratum plan."""
        if self._plan is None:
            return None
        with _stats.suspended():
            plan = self._plan.evaluate(
                CostParameters.from_instance(self.program, self.base),
                update_size=update_size,
            )
            return MaintainReport.of(plan).total_delta_bound

    def _maintain_claims(self) -> Optional[dict[str, object]]:
        """The source program's maintainability classification.

        Cached: strategy/insert-monotone/counting-safe claims are
        instance-independent, and the certificate must describe the
        *source* program (what the independent checker re-derives),
        not the optimized program this view maintains.
        """
        if self._source_claims is None:
            if len(self.source_program.rules) > RULE_LIMIT:
                return None
            with _stats.suspended():
                report = maintain_report(self.source_program)
            self._source_claims = report.classification()
        return self._source_claims

    def certificate(
        self, meta: Optional[dict[str, object]] = None
    ) -> dict[str, object]:
        """An ``ivm`` certificate: state ≡ from-scratch fixpoint.

        The claim carries the *source* program (pre-optimizer), the
        current base and the maintained state; the independent checker
        replays a naive fixpoint of the base and compares.
        """
        from repro.certify.emit import certificate as _certificate
        from repro.certify.emit import claim_ivm_state

        claim = claim_ivm_state(
            self.source_program, self.base, self.state,
            maintain=self._maintain_claims(),
        )
        merged: dict[str, object] = {
            "subsystem": "ivm", "rounds": self.rounds,
        }
        if meta:
            merged.update(meta)
        return _certificate([claim], meta=merged)

    # ------------------------------------------------------------------
    # one maintenance round
    # ------------------------------------------------------------------
    def apply(
        self,
        inserts: Iterable[FactLike] = (),
        retracts: Iterable[FactLike] = (),
        stats: Optional[EngineStats] = None,
    ) -> MaintenanceRound:
        """Apply one batch of updates; retractions act before insertions.

        Returns the round summary with the net per-predicate deltas.
        The same fact retracted and re-inserted in one round is a net
        no-op all the way down (including the state's positional
        indexes — the tombstone-resurrection seam this subsystem leans
        on).
        """
        with _stats.maybe_collecting(stats):
            collector = _stats.active()
            guard = current().audits.get("maintain")
            base_before = self.base.copy() if guard is not None else None
            retract_facts = [_as_fact(f) for f in retracts]
            insert_facts = [_as_fact(f) for f in inserts]

            removed: list[Fact] = []
            for fact in retract_facts:
                if fact in self.base:
                    self.base.discard(fact)
                    removed.append(fact)
            added: list[Fact] = []
            for fact in insert_facts:
                if self.base.add(fact):
                    added.append(fact)
            added_set = set(added)
            removed_set = set(removed)
            net_removed = [f for f in removed if f not in added_set]
            net_added = [f for f in added if f not in removed_set]

            plus: Delta = {}
            minus: Delta = {}
            old_cache: dict[str, Instance] = {}
            rec_del: set[str] = set()
            rec_add: dict[str, set[Row]] = {}

            # ---- base phase: EDB and counted predicates settle now;
            # base changes to recursive predicates are left to their
            # stratum (a retraction recomputes it, an insert seeds it).
            for fact in net_removed:
                pred, row = fact.pred, fact.args
                if pred in self._recursive:
                    rec_del.add(pred)
                elif pred in self._counted:
                    if self._counts.get((pred, row), 0) == 0:
                        self._apply_del(pred, row, plus, minus)
                else:
                    self._apply_del(pred, row, plus, minus)
            for fact in net_added:
                pred, row = fact.pred, fact.args
                if pred in self._recursive:
                    rec_add.setdefault(pred, set()).add(row)
                elif not self.state.has_tuple(pred, row):
                    self._apply_add(pred, row, plus, minus)

            rederived = 0
            for scc in self._sccs:
                counted_rules = self._counting_rules.get(scc.index)
                if counted_rules is None:
                    rederived += self._maintain_recursive(
                        scc, plus, minus, rec_del, rec_add, collector,
                    )
                else:
                    self._maintain_counted(
                        scc, counted_rules, plus, minus, old_cache,
                        collector,
                    )

            self.rounds += 1
            inserted = sum(len(rows) for rows in plus.values())
            deleted = sum(len(rows) for rows in minus.values())
            if collector is not None:
                collector.ivm_rounds += 1
                collector.ivm_inserted += inserted
                collector.ivm_deleted += deleted
                collector.ivm_rederived += rederived
            round_ = MaintenanceRound(
                index=self.rounds,
                backend=self.backend,
                inserted=inserted,
                deleted=deleted,
                rederived=rederived,
                plus={p: frozenset(r) for p, r in plus.items() if r},
                minus={p: frozenset(r) for p, r in minus.items() if r},
            )
            if guard is not None:
                guard.check_round(
                    self, round_,
                    update_size=len(net_removed) + len(net_added),
                    base_before=base_before,
                )
            return round_

    # ------------------------------------------------------------------
    # delta bookkeeping
    # ------------------------------------------------------------------
    def _apply_add(
        self, pred: str, row: Row, plus: Delta, minus: Delta
    ) -> bool:
        if not self.state.add_tuple(pred, row):
            return False
        dropped = minus.get(pred)
        if dropped is not None and row in dropped:
            dropped.discard(row)  # same-round delete + re-add: net no-op
        else:
            plus.setdefault(pred, set()).add(row)
        return True

    def _apply_del(
        self, pred: str, row: Row, plus: Delta, minus: Delta
    ) -> bool:
        fact = Fact(pred, row)
        if fact not in self.state:
            return False
        self.state.discard(fact)
        grown = plus.get(pred)
        if grown is not None and row in grown:
            grown.discard(row)  # same-round add + delete: net no-op
        else:
            minus.setdefault(pred, set()).add(row)
        return True

    def _old_view(
        self, pred: str, plus: Delta, minus: Delta,
        cache: dict[str, Instance],
    ) -> Instance:
        """The pre-round relation of a changed predicate, built lazily."""
        view = cache.get(pred)
        if view is None:
            view = Instance()
            dropped = plus.get(pred, _EMPTY)
            for row in self.state.tuples(pred):
                if row not in dropped:
                    view.add_tuple(pred, row)
            for row in minus.get(pred, _EMPTY):
                view.add_tuple(pred, row)
            cache[pred] = view
        return view

    # ------------------------------------------------------------------
    # counting maintenance (non-recursive strata)
    # ------------------------------------------------------------------
    def _maintain_counted(
        self, scc: SCC, rules: tuple[Rule, ...], plus: Delta, minus: Delta,
        old_cache: dict[str, Instance],
        collector: Optional[EngineStats] = None,
    ) -> None:
        changed = {p for p, rows in plus.items() if rows}
        changed |= {p for p, rows in minus.items() if rows}
        if not changed:
            return
        engaged = False
        delta_counts: dict[Row, int] = {}
        for rule in rules:
            body = rule.body
            hit = [i for i, a in enumerate(body) if a.pred in changed]
            if not hit:
                continue
            engaged = True
            for i in hit:
                atom = body[i]
                rest_atoms: list[Atom] = []
                rest_targets: list[Instance] = []
                for j, other in enumerate(body):
                    if j == i:
                        continue
                    # telescoping: positions before the delta read the
                    # old view, positions after read the new state
                    if j < i and other.pred in changed:
                        rest_targets.append(
                            self._old_view(other.pred, plus, minus, old_cache)
                        )
                    else:
                        rest_targets.append(self.state)
                    rest_atoms.append(other)
                for sign, rows in (
                    (1, plus.get(atom.pred, _EMPTY)),
                    (-1, minus.get(atom.pred, _EMPTY)),
                ):
                    for row in rows:
                        seed = _bindings_for_row(atom, row, {})
                        if seed is None:
                            continue
                        for hom in _mixed_homomorphisms(
                            rest_atoms, rest_targets, seed
                        ):
                            head = rule.head.substitute(hom)
                            delta_counts[head.args] = (
                                delta_counts.get(head.args, 0) + sign
                            )
        if engaged and collector is not None:
            collector.maintain_counting_strata += 1
        pred = next(iter(scc.predicates))
        for row, change in delta_counts.items():
            if not change:
                continue
            key = (pred, row)
            count = self._counts.get(key, 0) + change
            if count < 0:
                raise RuntimeError(
                    f"ivm: negative derivation count for {pred}{row!r}"
                )
            if count:
                self._counts[key] = count
            else:
                self._counts.pop(key, None)
            present = count > 0 or self.base.has_tuple(pred, row)
            if present:
                self._apply_add(pred, row, plus, minus)
            else:
                self._apply_del(pred, row, plus, minus)

    # ------------------------------------------------------------------
    # recursive strata: semi-naive inserts, recompute on retraction
    # ------------------------------------------------------------------
    def _maintain_recursive(
        self,
        scc: SCC,
        plus: Delta,
        minus: Delta,
        rec_del: set[str],
        rec_add: dict[str, set[Row]],
        collector: Optional[EngineStats],
    ) -> int:
        """One round of a non-counting stratum; returns the old facts a
        recompute derived again (0 for an insert-only round)."""
        preds = scc.predicates
        reads = {a.pred for rule in scc.rules for a in rule.body} - preds
        ext_plus = {p: rows for p, rows in plus.items() if rows and p in reads}
        add_seeds = {p: rec_add[p] for p in preds if p in rec_add}
        deletion_work = bool(rec_del & preds) or any(
            minus.get(p) for p in reads
        )
        insert_work = bool(ext_plus) or bool(add_seeds)
        if collector is not None:
            if deletion_work or insert_work:
                collector.maintain_dred_strata += 1
            if insert_work and not deletion_work:
                collector.maintain_skipped_rederive += 1
        if deletion_work:
            return self._recompute_stratum(scc, reads, plus, minus, collector)

        # insert-only round: push the new facts through semi-naively.  A
        # base add of an already-derived fact changes nothing downstream:
        # the state is closed under the rules.
        frontier = {p: set(rows) for p, rows in ext_plus.items()}
        for p, rows in add_seeds.items():
            for row in rows:
                if self._apply_add(p, row, plus, minus):
                    frontier.setdefault(p, set()).add(row)
        if not frontier:
            return 0
        tracked = set(frontier) | set(preds)
        rules = list(zip(scc.rule_indices, scc.rules))
        if self.backend == "columnar":
            self._propagate_columnar(
                rules, frontier, tracked, plus, minus, collector
            )
        else:
            self._propagate_interpreted(rules, frontier, tracked, plus, minus)
        return 0

    def _recompute_stratum(
        self,
        scc: SCC,
        reads: set[str],
        plus: Delta,
        minus: Delta,
        collector: Optional[EngineStats],
    ) -> int:
        """Recompute one stratum on the columnar engine and diff it in.

        The store holds what the stratum reads from lower strata (already
        settled this round) and its own base-asserted rows; the stratum's
        semi-naive fixpoint over it is the new relation.  Returns
        |old ∩ new|, the old facts the recompute derived again.
        """
        from repro.core.columnar import (
            _columnar_seminaive,
            _ProgramPlans,
            _Store,
        )

        store = _Store()
        for pred in reads:
            store.load(pred, self.state.rows(pred))
        for pred in scc.predicates:
            store.load(pred, self.base.rows(pred))
        _columnar_seminaive(
            scc.rules, store, scc.predicates, _ProgramPlans(store), collector
        )
        rederived = 0
        for pred in scc.predicates:
            old = self.state.rows(pred)
            new = store.rows(pred)
            gone, born = old - new, new - old
            rederived += len(old) - len(gone)
            for row in gone:
                self._apply_del(pred, row, plus, minus)
            for row in born:
                self._apply_add(pred, row, plus, minus)
        return rederived

    def _propagate_interpreted(
        self,
        rules: list[tuple[int, Rule]],
        frontier: dict[str, set[Row]],
        tracked: set[str],
        plus: Delta,
        minus: Delta,
    ) -> None:
        """Semi-naive insert propagation through the shared plan cache."""
        while frontier:
            delta = Instance()
            for p, rows in frontier.items():
                for row in rows:
                    delta.add_tuple(p, row)
            fresh: dict[str, set[Row]] = {}
            for key, rule in rules:
                # the derivations read ``self.state``, which ``_apply_add``
                # grows: finish the join before adding (a fact it misses
                # is fresh, so the next round derives from it)
                for fact in list(_delta_derivations(
                    rule, self.state, delta, tracked, key,
                    self._plans, self._delta_patterns[key],
                )):
                    if self._apply_add(fact.pred, fact.args, plus, minus):
                        fresh.setdefault(fact.pred, set()).add(fact.args)
            frontier = fresh

    def _propagate_columnar(
        self,
        rules: list[tuple[int, Rule]],
        frontier: dict[str, set[Row]],
        tracked: set[str],
        plus: Delta,
        minus: Delta,
        collector: Optional[EngineStats],
    ) -> None:
        """Insert propagation through the columnar delta plans.

        The store holds the relations the rules read, loaded from the
        state (it is append-only, and an insert-only round never
        removes facts); frontier rows are pushed through each rule's
        compiled delta plan as one batch per (rule, position), and the
        head rows new to the state enter the store in one bulk insert.
        """
        from repro.core.columnar import _ProgramPlans, _run_plan, _Store

        store = _Store()
        for pred in {atom.pred for _key, rule in rules for atom in rule.body}:
            store.load(pred, self.state.rows(pred))
        plans = _ProgramPlans(store)
        while frontier:
            fresh: dict[str, set[Row]] = {}
            for _key, rule in rules:
                head_pred = rule.head.pred
                for i, atom in enumerate(rule.body):
                    if atom.pred not in tracked:
                        continue
                    rows = frontier.get(atom.pred)
                    if not rows:
                        continue
                    new = [
                        hrow
                        for hrow in _run_plan(
                            plans.delta(rule, i), store, collector,
                            seed_rows=list(rows),
                        )
                        if self._apply_add(head_pred, hrow, plus, minus)
                    ]
                    if new:
                        store.extend(head_pred, new)
                        fresh.setdefault(head_pred, set()).update(new)
            frontier = fresh
