"""Fixpoint evaluation of Datalog programs (``FPEval``, §2).

:func:`stratified_fixpoint` is the interpreted engine: the SCC
condensation of the predicate dependency graph (from
:mod:`repro.analysis.dependency`) is evaluated one component at a
time, dependencies first.  Within a component the semi-naive loop runs
with *only that component's* predicates delta-tracked: rules reading
already-finished components join against their complete relations
exactly once instead of re-firing on every round.

Semi-naive evaluation resolves each delta rule's join plan **once** per
fixpoint call and replays it on every subsequent round (the plan is
keyed by rule and delta position; any join order is correct, so reusing
one planned against an earlier state is sound).  Pass
``stats=EngineStats()`` to count rounds, derived facts and plan-cache
traffic.

:func:`fixpoint` is the entry point every caller uses: it applies the
run's optimizer, backend and shard settings.  Every engine returns the
minimal IDB-extension of the input instance satisfying the program,
i.e. ``FPEval(Π, I)`` including the original EDB facts; the
independent naive replayer (:func:`repro.certify.replay.naive_fixpoint`)
is the correctness oracle.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Optional, Sequence

from repro.core import stats as _stats
from repro.core.atoms import Atom
from repro.core.context import current
from repro.core.datalog import DatalogProgram, Rule
from repro.core.homomorphism import (
    _bindings_for_row,
    _pattern,
    homomorphisms,
    resolve_plan,
)
from repro.core.instance import Instance
from repro.core.stats import EngineStats


def _rule_derivations(rule: Rule, instance: Instance) -> Iterator[Atom]:
    """All head facts derivable from ``rule`` against ``instance``."""
    if not rule.body:
        yield rule.head
        return
    # An empty body relation means no match: skip the join outright
    # (frequent in round 0, where recursive rules read their own
    # still-empty predicate).
    if any(instance.size(atom.pred) == 0 for atom in rule.body):
        return
    if len(rule.body) == 1:
        # Projection fast path: a single-atom body needs no join plan or
        # search stack, just one scan of the relation (the same direct
        # read the semi-naive delta seeding performs).
        atom = rule.body[0]
        for row in instance.matching(atom.pred, _pattern(atom, {})):
            bound = _bindings_for_row(atom, row, {})
            if bound is not None:
                yield rule.head.substitute(bound)
        return
    for hom in homomorphisms(rule.body, instance):
        yield rule.head.substitute(hom)


class _PlanCache:
    """Resolved join orders, keyed per (rule, delta position).

    Semi-naive rounds evaluate the *same* delta rules against a growing
    state; the ordering decision (and, for large bodies, the connected
    join order itself) is identical work each round, so it is resolved
    once and replayed.  A cached order planned against an earlier state
    remains correct — join order never affects the answer set, only the
    search cost — and the planning inputs (relation cardinalities) only
    grow monotonically during a fixpoint, which keeps the relative
    selectivities representative.
    """

    __slots__ = ("_plans", "_stats")

    def __init__(self, collector: Optional[EngineStats]) -> None:
        self._plans: dict[tuple, tuple[list[Atom], str]] = {}
        self._stats = collector

    def ordering_for(
        self, key: tuple, atoms: list[Atom], target: Instance
    ) -> tuple[list[Atom], str]:
        """The (ordered atoms, replay ordering) for a cached join."""
        plan = self._plans.get(key)
        if plan is None:
            ordered, dynamic = resolve_plan(atoms, target)
            plan = (ordered, "dynamic" if dynamic else "static")
            self._plans[key] = plan
            if self._stats is not None:
                self._stats.plan_cache_misses += 1
        elif self._stats is not None:
            self._stats.plan_cache_hits += 1
        return plan


def _delta_derivations(
    rule: Rule,
    state: Instance,
    delta: Instance,
    idb: frozenset[str] | set[str],
    rule_key: int,
    plans: _PlanCache,
    delta_patterns: list,
) -> Iterator[Atom]:
    """Derivations of ``rule`` using >=1 delta fact for some IDB body atom.

    For each IDB body atom position ``i`` we seed the join with the delta
    facts at that atom and match the remaining atoms against the full
    state.  This enumerates every instantiation touching the delta (a
    superset-free cover is not needed; duplicates are deduplicated by the
    caller's ``Instance.add``).
    """
    body = rule.body
    for i, atom in enumerate(body):
        if atom.pred not in idb:
            continue
        rest = body[:i] + body[i + 1:]
        pattern = delta_patterns[i]
        ordered, ordering = plans.ordering_for((rule_key, i), rest, state)
        for row in delta.matching(atom.pred, pattern):
            seed = _bindings_for_row(atom, row, {})
            if seed is None:
                continue
            for hom in homomorphisms(
                ordered, state, fixed=seed, ordering=ordering
            ):
                yield rule.head.substitute(hom)


def _seminaive_in_place(
    rules: Sequence[Rule],
    keys: Sequence[int],
    state: Instance,
    tracked: frozenset[str] | set[str],
    plans: _PlanCache,
    delta_patterns: list,
    collector: Optional[EngineStats],
    prelude: Sequence[Rule],
) -> None:
    """Run the given rules to fixpoint, mutating ``state`` in place.

    ``tracked`` is the set of predicates whose facts participate in
    delta propagation: the predicates of one group of SCCs.  Rules whose
    bodies never read a tracked predicate fire exactly once (round 0 on
    the complete current state) and the delta loop is skipped entirely
    when no rule is recursive under ``tracked``.

    ``prelude`` rules (a dependency-ordered block of non-recursive
    rules feeding this stratum) fire exactly once at the start of round
    0, eagerly, so they do not cost a round of their own.
    """
    # Round 0: every rule fires on the current state.
    delta = Instance()
    if collector is not None:
        collector.fixpoint_rounds += 1
    for rule in prelude:
        derived = list(_rule_derivations(rule, state))
        added = 0
        for fact in derived:
            if state.add(fact):
                added += 1
        if collector is not None:
            collector.facts_derived += added
    for rule in rules:
        for fact in _rule_derivations(rule, state):
            if fact not in state:
                delta.add(fact)
    state.update(delta.facts())
    if collector is not None:
        collector.facts_derived += len(delta)

    recursive = [
        (key, rule)
        for key, rule in zip(keys, rules)
        if any(a.pred in tracked for a in rule.body)
    ]
    while len(delta) and recursive:
        if collector is not None:
            collector.fixpoint_rounds += 1
        fresh = Instance()
        for key, rule in recursive:
            for fact in _delta_derivations(
                rule, state, delta, tracked, key, plans, delta_patterns[key]
            ):
                if fact not in state and fact not in fresh:
                    fresh.add(fact)
        state.update(fresh.facts())
        if collector is not None:
            collector.facts_derived += len(fresh)
        delta = fresh


def _program_delta_patterns(program: DatalogProgram) -> list:
    """Per rule: the empty-assignment match pattern of each body atom
    (constants + ANY wildcards), computed once instead of per round."""
    return [
        [_pattern(atom, {}) for atom in rule.body]
        for rule in program.rules
    ]


@lru_cache(maxsize=512)
def _execution_plan(program: DatalogProgram) -> tuple:
    """The stratified engine's schedule, computed once per program.

    Greedy readiness scheduling over the SCC condensation: each step
    pairs a dependency-ordered *batch* of ready non-recursive components
    (fired eagerly, one pass) with the *group* of recursive components
    whose dependencies are then all complete.  Ready recursive
    components are pairwise independent by construction (a dependency
    between them would make the dependent one un-ready), so the group
    iterates as one semi-naive loop whose round count is the maximum —
    not the sum — of the members' depths.

    Returns ``((prelude_rules, group_rules, group_keys, tracked), ...)``
    with ``group_rules`` empty for pure-batch steps.
    """
    from repro.analysis.dependency import DependencyGraph

    graph = DependencyGraph(program)
    idb = graph.idb

    def dependencies(scc) -> set[str]:
        return {
            atom.pred
            for rule in scc.rules
            for atom in rule.body
            if atom.pred in idb and atom.pred not in scc.predicates
        }

    remaining = list(graph.sccs)
    done: set[str] = set()
    plan = []
    while remaining:
        batch: list = []
        batch_preds: set[str] = set()
        group: list = []
        later = []
        for scc in remaining:  # topological order: deps scanned first
            if dependencies(scc) <= done | batch_preds:
                if scc.recursive:
                    group.append(scc)
                else:
                    batch.append(scc)
                    batch_preds |= scc.predicates
            else:
                later.append(scc)
        prelude = tuple(rule for scc in batch for rule in scc.rules)
        group_rules = tuple(rule for scc in group for rule in scc.rules)
        group_keys = tuple(key for scc in group for key in scc.rule_indices)
        tracked = frozenset().union(*(scc.predicates for scc in group)) \
            if group else frozenset()
        plan.append((prelude, group_rules, group_keys, tracked))
        done |= batch_preds | tracked
        remaining = later
    return tuple(plan)


def _single_pass(
    rules: Sequence[Rule],
    state: Instance,
    collector: Optional[EngineStats],
) -> None:
    """Fire each rule exactly once, in order, applying facts eagerly.

    Correct for a dependency-ordered run of *non-recursive* components:
    every body predicate of a rule is either extensional or fully
    computed by the time the rule fires, so one pass reaches the
    fixpoint of this rule block — one round, no delta machinery.
    """
    if collector is not None:
        collector.fixpoint_rounds += 1
    for rule in rules:
        derived = list(_rule_derivations(rule, state))
        added = 0
        for fact in derived:
            if state.add(fact):
                added += 1
        if collector is not None:
            collector.facts_derived += added


def stratified_fixpoint(
    program: DatalogProgram,
    instance: Instance,
    stats: Optional[EngineStats] = None,
) -> Instance:
    """SCC-stratified semi-naive evaluation (the interpreted engine).

    Components of the predicate dependency graph are evaluated
    dependencies-first; each component's rules run to fixpoint with only
    that component's predicates delta-tracked.  Rules of later
    components never fire during earlier ones, and finished components
    are joined as if they were EDB relations.
    """
    with _stats.maybe_collecting(stats):
        collector = _stats.active()
        state = instance.copy()
        plans = _PlanCache(collector)
        delta_patterns = _program_delta_patterns(program)
        for prelude, rules, keys, tracked in _execution_plan(program):
            if rules:
                _seminaive_in_place(
                    rules,
                    keys,
                    state,
                    tracked,
                    plans,
                    delta_patterns,
                    collector,
                    prelude=prelude,
                )
            elif prelude:
                _single_pass(prelude, state, collector)
        return state


@lru_cache(maxsize=512)
def goal_directed_program(program: DatalogProgram, goal: str) -> DatalogProgram:
    """The subprogram of rules the goal transitively depends on.

    Evaluating it yields the same goal relation as the full program
    (dropped rules only populate predicates the goal never reads), so
    :meth:`DatalogQuery.evaluate` uses this as its entry point.  Cached:
    programs are immutable and re-evaluated many times per decision
    procedure.  A goal that is not an IDB head of ``program`` (e.g.
    defined only via views) keeps the program unchanged instead of
    pruning it down to nothing.
    """
    from repro.analysis.dependency import DependencyGraph

    return DependencyGraph(program).prune_unreachable(goal)


def fixpoint(
    program: DatalogProgram,
    instance: Instance,
    *,
    stats: Optional[EngineStats] = None,
    optimize: Optional[bool] = None,
    backend: Optional[str] = None,
    shards: Optional[int] = None,
) -> Instance:
    """``FPEval(Π, I)`` on the run's backend.

    ``optimize``, ``backend`` and ``shards`` override the current run's
    :class:`~repro.core.context.RunConfig` for this call; ``None``
    takes the run's value.

    With ``optimize`` on, the *universally sound* optimizer passes run
    first — body minimization and subsumed-rule removal
    (:mod:`repro.analysis.optimize`).  These passes preserve every IDB
    relation on every instance; the goal-directed passes (magic sets,
    inlining) need a goal predicate and live in
    :meth:`repro.core.datalog.DatalogQuery.evaluate`.

    ``backend`` names the evaluation engine.  The optimizer passes are
    backend-independent program transforms, so they compose with every
    backend, and every backend orders its joins at runtime.

    ``shards > 1`` evaluates through the sharded parallel executor
    planned by :func:`repro.analysis.plan.program_plan` — hash-
    partitioned worker processes per stratum where the plan proves it
    communication-free, delta exchange where it does not.  Instances
    below the executor's size gate stay on the plain path, so a run
    may leave sharding on.

    When the run installed the ``cost`` audit, the program actually
    evaluated (post-optimization) and the result are checked against
    the static cardinality bounds afterwards.
    """
    from repro.core.backend import get_backend

    run = current()
    if optimize is None:
        optimize = run.config.optimize
    if backend is None:
        backend = run.config.backend
    if shards is None:
        shards = run.config.shards
    if optimize:
        from repro.analysis.optimize import (
            OPTIMIZE_RULE_LIMIT,
            syntactic_fixpoint_program,
        )

        if len(program.rules) <= OPTIMIZE_RULE_LIMIT:
            # the optimizer's subsumption checks are analysis, not
            # evaluation: keep them out of the caller's counters
            with _stats.suspended():
                program = syntactic_fixpoint_program(program)
    if shards > 1:
        from repro.core.shard import sharded_fixpoint

        result = sharded_fixpoint(
            program, instance, shards, stats=stats, backend=backend
        )
    else:
        result = get_backend(backend).fixpoint(program, instance, stats=stats)
    guard = run.audits.get("cost")
    if guard is not None:
        guard(program, instance, result)
    return result
