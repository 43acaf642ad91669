"""Columnar hash-join evaluation engine (the ``columnar`` backend, the
default engine of every run).

Instead of per-tuple backtracking homomorphism search, each rule body
is compiled into an explicit hash-join plan, and rows move a set at a
time:

* relations are stored as *column arrays* (one Python list per
  argument position) with an exact-duplicate row set; rows enter in
  bulk — one membership check per candidate row, then one ``extend``
  per column;
* a body plan is compiled **once per process**: its join order is
  chosen from the relation sizes when a fixpoint call first needs it,
  and compiled plans are cached by ``(rule, seed position, atom
  order)`` (:data:`PLAN_CACHE_SIZE` entries), so a later call or IVM
  round that picks the same order reuses the plan, and a different
  size profile compiles its own.  A full-body plan is not even ordered
  while one of its body relations has no rows: it could derive
  nothing;
* each join step builds a hash table over the target relation keyed by
  the argument positions that are bound at that point (constants and
  already-joined variables) and probes it with the current batch —
  build tables are cached per ``(relation, key positions)`` and
  maintained incrementally as the relation grows, so a fixpoint never
  rebuilds a table it already has;
* intermediate results are *batches*: a tuple of variable columns.  A
  join step gathers matching (batch row, relation row) index pairs and
  materializes only the columns still needed downstream (projection is
  pushed into every step, with the head projection applied once at the
  end of the batch);
* semi-naive deltas flow through the same plans as column batches
  seeded from the delta rows of one IDB body atom.

The engine mirrors the interpreted engine's SCC-stratified semi-naive
evaluation exactly, reusing the execution plan of
:mod:`repro.core.evaluation`, and the differential fuzzer checks its
fixpoints against the independent naive replayer.  Work is reported
through the columnar counters of :class:`repro.core.stats.EngineStats`
(``join_build_rows``, ``join_probe_rows``, ``join_output_rows``,
``columnar_batches``); the backtracking counters (``hom_calls``,
``search_steps``, ``rows_scanned``) stay at zero by construction.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import filterfalse
from operator import itemgetter
from typing import AbstractSet, Collection, Iterable, Optional, Sequence, cast

from repro.core import stats as _stats
from repro.core.atoms import Atom
from repro.core.datalog import DatalogProgram, Rule
from repro.core.instance import Instance
from repro.core.stats import EngineStats
from repro.core.terms import Term, is_variable

#: one stored row (column values in position order)
Row = tuple[object, ...]

#: how a seed atom's relation rows become a batch — see
#: :func:`_atom_binding_spec`
SeedSpec = tuple[
    int,                            # expected row arity
    tuple[int, ...],                # positions projected into the batch
    tuple[tuple[int, Term], ...],   # (position, constant) filters
    tuple[tuple[int, int], ...],    # repeated-variable equality pairs
    tuple[Term, ...],               # batch variables in slot order
]

#: compiled body plans kept per process, least recently used evicted
PLAN_CACHE_SIZE = 4096

_NO_ROWS: frozenset[Row] = frozenset()

# ---------------------------------------------------------------------------
# columnar storage
# ---------------------------------------------------------------------------


class _Relation:
    """One relation as column arrays plus cached hash-join build tables.

    Append-only during a fixpoint: build tables record how many rows
    they have indexed and extend themselves incrementally, so the
    per-round cost of re-probing a grown relation is only the new rows.
    """

    __slots__ = ("arity", "count", "columns", "row_set", "tables")

    def __init__(self, arity: int) -> None:
        self.arity = arity
        self.count = 0
        self.columns: list[list[object]] = [[] for _ in range(arity)]
        self.row_set: set[Row] = set()
        # key positions -> (hash table: key -> row indices, rows indexed)
        self.tables: dict[
            tuple[int, ...], tuple[dict[object, list[int]], int]
        ] = {}

    def extend(self, rows: Collection[Row]) -> None:
        """Append rows known to be absent and pairwise distinct.

        A row of another arity raises ``ValueError`` before anything
        changes.
        """
        if set(map(len, rows)) - {self.arity}:
            bad = next(row for row in rows if len(row) != self.arity)
            raise ValueError(
                f"columnar relation of arity {self.arity} cannot hold "
                f"row {bad!r}"
            )
        self.row_set.update(rows)
        for column, values in zip(self.columns, zip(*rows)):
            column.extend(values)
        self.count += len(rows)

    def update(self, rows: Iterable[Row]) -> list[Row]:
        """Add every row not held yet; returns the new ones, in order."""
        new = list(filterfalse(self.row_set.__contains__, dict.fromkeys(rows)))
        self.extend(new)
        return new

    def table_for(
        self, positions: tuple[int, ...], collector: Optional[EngineStats]
    ) -> dict[object, list[int]]:
        """The build table keyed on ``positions``, extended to ``count``.

        Single-position keys hash the bare value (the common case);
        multi-position keys hash the value tuple.
        """
        empty: dict[object, list[int]] = {}
        table, built = self.tables.get(positions, (empty, 0))
        if built < self.count:
            if collector is not None:
                collector.join_build_rows += self.count - built
            if len(positions) == 1:
                column = self.columns[positions[0]]
                for row in range(built, self.count):
                    table.setdefault(column[row], []).append(row)
            else:
                cols = [self.columns[p] for p in positions]
                for row in range(built, self.count):
                    key = tuple(col[row] for col in cols)
                    table.setdefault(key, []).append(row)
            self.tables[positions] = (table, self.count)
        return table


def _by_arity(
    rows: Collection[Row],
) -> Iterable[tuple[int, Collection[Row]]]:
    """``rows`` grouped by length: one uncopied group in the usual case."""
    lengths = set(map(len, rows))
    if len(lengths) <= 1:
        return [(arity, rows) for arity in lengths]
    groups: dict[int, list[Row]] = {}
    for row in rows:
        groups.setdefault(len(row), []).append(row)
    return groups.items()


class _Store:
    """All relations of one fixpoint run.

    Keyed by ``(pred, arity)`` — instances may hold mixed-arity rows
    under one predicate name, and the interpreted engine tolerates
    that (an atom simply never matches rows of the wrong arity).
    """

    __slots__ = ("relations", "derived")

    def __init__(self, instance: Optional[Instance] = None) -> None:
        self.relations: dict[tuple[str, int], _Relation] = {}
        #: facts added beyond the input instance, per predicate in
        #: derivation order
        self.derived: dict[str, list[Row]] = {}
        if instance is not None:
            for pred in instance.predicates():
                self.load(pred, instance.tuples(pred))

    def relation(self, pred: str, arity: int) -> _Relation:
        key = (pred, arity)
        relation = self.relations.get(key)
        if relation is None:
            relation = self.relations[key] = _Relation(arity)
        return relation

    def held(self, pred: str, arity: int) -> AbstractSet[Row]:
        """The rows of ``pred`` held at ``arity`` (do not mutate)."""
        relation = self.relations.get((pred, arity))
        return relation.row_set if relation is not None else _NO_ROWS

    def load(self, pred: str, rows: Collection[Row]) -> None:
        """Add input rows of ``pred`` (not recorded as derived)."""
        for arity, group in _by_arity(rows):
            self.relation(pred, arity).update(group)

    def update(self, pred: str, rows: Collection[Row]) -> int:
        """Add derived rows, skipping held ones; returns how many were
        new."""
        added = 0
        for arity, group in _by_arity(rows):
            new = self.relation(pred, arity).update(group)
            if new:
                self.derived.setdefault(pred, []).extend(new)
                added += len(new)
        return added

    def extend(self, pred: str, rows: Collection[Row]) -> None:
        """Add derived rows known to be absent and pairwise distinct."""
        if rows:
            for arity, group in _by_arity(rows):
                self.relation(pred, arity).extend(group)
            self.derived.setdefault(pred, []).extend(rows)

    def rows(self, pred: str) -> AbstractSet[Row]:
        """Every row of ``pred``, over all the arities it is held at
        (do not mutate)."""
        held = [
            relation.row_set
            for (name, _arity), relation in self.relations.items()
            if name == pred
        ]
        if len(held) == 1:
            return held[0]
        out: set[Row] = set()
        return out.union(*held)

    def materialize(self, instance: Instance) -> Instance:
        """The input instance plus every derived fact."""
        out = instance.copy()
        for pred, rows in self.derived.items():
            for row in rows:
                out.add_tuple(pred, row)
        return out


# ---------------------------------------------------------------------------
# plan compilation
# ---------------------------------------------------------------------------


class _JoinStep:
    """One hash join of the current batch against a relation.

    ``key_positions`` are the relation positions covered by the probe
    key; ``key_sources`` aligns with them: ``("slot", i)`` reads batch
    column ``i``, ``("const", v)`` contributes a fixed value.
    ``new_positions`` are the relation positions whose values become
    new batch columns (first occurrences of fresh variables);
    ``eq_checks`` are ``(position, position)`` pairs a candidate row
    must agree on (a fresh variable repeated within the atom).
    ``keep_slots`` are the incoming batch columns still needed after
    this step (projection pushdown).
    """

    __slots__ = (
        "pred",
        "arity",
        "key_positions",
        "key_sources",
        "new_positions",
        "eq_checks",
        "keep_slots",
    )

    def __init__(
        self,
        pred: str,
        arity: int,
        key_positions: tuple[int, ...],
        key_sources: tuple[tuple[str, object], ...],
        new_positions: tuple[int, ...],
        eq_checks: tuple[tuple[int, int], ...],
        keep_slots: tuple[int, ...],
    ) -> None:
        self.pred = pred
        self.arity = arity
        self.key_positions = key_positions
        self.key_sources = key_sources
        self.new_positions = new_positions
        self.eq_checks = eq_checks
        self.keep_slots = keep_slots


class _BodyPlan:
    """A compiled rule body: seed spec + join steps + head projection.

    ``seed`` is None for full-body plans (the batch starts as the
    single empty row) or the delta atom for semi-naive plans (the batch
    starts from the delta's rows).  ``head_sources`` mirrors the head
    atom: ``("slot", i)`` projects batch column ``i``, ``("const", v)``
    emits a constant column.
    """

    __slots__ = ("rule", "seed", "seed_spec", "steps", "head_sources")

    def __init__(
        self,
        rule: Rule,
        seed: Optional[Atom],
        seed_spec: Optional[SeedSpec],
        steps: tuple[_JoinStep, ...],
        head_sources: tuple[tuple[str, object], ...],
    ) -> None:
        self.rule = rule
        self.seed = seed
        self.seed_spec = seed_spec
        self.steps = steps
        self.head_sources = head_sources


def _atom_binding_spec(atom: Atom) -> SeedSpec:
    """How to turn rows of ``atom``'s relation into a seed batch.

    Returns ``(arity, var_positions, const_checks, eq_checks,
    variables)``: the expected row arity, positions projected into the
    batch (first occurrence per variable), ``(position, constant)``
    filters, repeated-variable equality pairs, and the variables in
    slot order.
    """
    var_positions: list[int] = []
    variables: list[Term] = []
    const_checks: list[tuple[int, Term]] = []
    eq_checks: list[tuple[int, int]] = []
    first_at: dict[Term, int] = {}
    for pos, term in enumerate(atom.args):
        if is_variable(term):
            if term in first_at:
                eq_checks.append((first_at[term], pos))
            else:
                first_at[term] = pos
                var_positions.append(pos)
                variables.append(term)
        else:
            const_checks.append((pos, term))
    return (
        atom.arity,
        tuple(var_positions),
        tuple(const_checks),
        tuple(eq_checks),
        tuple(variables),
    )


def _order_atoms(
    rule: Rule, seed: Optional[int], store: _Store
) -> tuple[int, ...]:
    """Connected, smallest-relation-first join order of the body
    positions other than ``seed``.

    Prefers atoms sharing a variable with what is already bound (so
    every step after the first probes on a non-empty key whenever the
    body is connected), breaking ties by relation size now.
    """
    body = rule.body
    remaining = [i for i in range(len(body)) if i != seed]
    if len(remaining) < 2:
        return tuple(remaining)
    variables = [atom.variables() for atom in body]
    bound: set[Term] = set(variables[seed]) if seed is not None else set()
    sizes: dict[int, int] = {}
    for i in remaining:
        relation = store.relations.get((body[i].pred, body[i].arity))
        sizes[i] = relation.count if relation is not None else 0
    ordered: list[int] = []
    while remaining:
        connected = [
            i for i in remaining if not variables[i].isdisjoint(bound)
        ] or remaining
        best = min(connected, key=sizes.__getitem__)
        remaining.remove(best)
        ordered.append(best)
        bound |= variables[best]
    return tuple(ordered)


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _compile_body(
    rule: Rule, seed: Optional[int], order: tuple[int, ...]
) -> _BodyPlan:
    """Compile ``rule``'s body into join steps over the positions in
    ``order``, starting from the rows of body position ``seed`` (None:
    from the single empty row)."""
    seed_atom = None if seed is None else rule.body[seed]
    seed_spec = None
    slots: list[Term] = []  # variable in each batch column
    if seed_atom is not None:
        seed_spec = _atom_binding_spec(seed_atom)
        slots = list(seed_spec[4])
    ordered = [rule.body[i] for i in order]

    steps: list[_JoinStep] = []
    for index, atom in enumerate(ordered):
        key_positions: list[int] = []
        key_sources: list[tuple[str, object]] = []
        new_positions: list[int] = []
        eq_checks: list[tuple[int, int]] = []
        first_at: dict[Term, int] = {}
        new_vars: list[Term] = []
        for pos, term in enumerate(atom.args):
            if not is_variable(term):
                key_positions.append(pos)
                key_sources.append(("const", term))
            elif term in first_at:
                eq_checks.append((first_at[term], pos))
            elif term in slots:
                key_positions.append(pos)
                key_sources.append(("slot", slots.index(term)))
                first_at[term] = pos
            else:
                first_at[term] = pos
                new_positions.append(pos)
                new_vars.append(term)
        # projection pushdown: keep only the variables some later atom
        # or the head still reads
        needed = set(rule.head.variables())
        for later in ordered[index + 1:]:
            needed |= later.variables()
        keep_slots = tuple(
            i for i, var in enumerate(slots) if var in needed
        )
        steps.append(
            _JoinStep(
                atom.pred,
                atom.arity,
                tuple(key_positions),
                tuple(key_sources),
                tuple(new_positions),
                tuple(eq_checks),
                keep_slots,
            )
        )
        slots = [slots[i] for i in keep_slots] + new_vars

    head_sources = tuple(
        ("slot", slots.index(term)) if is_variable(term) else ("const", term)
        for term in rule.head.args
    )
    return _BodyPlan(rule, seed_atom, seed_spec, tuple(steps), head_sources)


class _ProgramPlans:
    """The plans of one fixpoint call: full-body per rule, delta per
    (rule, position).

    A plan's join order is fixed from the relation sizes when the call
    first asks for it, and the plan itself comes from the process-wide
    :func:`_compile_body` cache.  Keyed by the (frozen, hashable) rule
    value, so equal rules share one plan.
    """

    __slots__ = ("store", "_by_rule")

    def __init__(self, store: _Store) -> None:
        self.store = store
        self._by_rule: dict[tuple[Rule, Optional[int]], _BodyPlan] = {}

    def full(self, rule: Rule) -> Optional[_BodyPlan]:
        """The full-body plan, or None while a body relation has no rows.

        Such a plan would derive nothing and count nothing (the greedy
        order joins an empty atom first, and :func:`_run_step` stops at
        an empty relation before it counts), so it is neither ordered
        nor compiled.  Delta plans get no such skip: one may count
        probe rows before it reaches the empty relation.
        """
        relations = self.store.relations
        for atom in rule.body:
            relation = relations.get((atom.pred, atom.arity))
            if relation is None or not relation.count:
                return None
        return self._plan(rule, None)

    def delta(self, rule: Rule, position: int) -> _BodyPlan:
        return self._plan(rule, position)

    def _plan(self, rule: Rule, seed: Optional[int]) -> _BodyPlan:
        plan = self._by_rule.get((rule, seed))
        if plan is None:
            order = _order_atoms(rule, seed, self.store)
            plan = _compile_body(rule, seed, order)
            self._by_rule[(rule, seed)] = plan
        return plan


# ---------------------------------------------------------------------------
# plan execution
# ---------------------------------------------------------------------------

#: a batch is one Python list per live variable (columns of equal length)
Batch = tuple[list[object], ...]

_EMPTY_BATCH: Batch = ()


def _seed_batch(
    spec: SeedSpec, rows: Collection[Row]
) -> tuple[Batch, int]:
    """A batch of the seed atom's variable columns from delta rows."""
    arity, var_positions, const_checks, eq_checks, _ = spec
    if set(map(len, rows)) - {arity}:
        rows = [row for row in rows if len(row) == arity]
    if const_checks or eq_checks:
        rows = [
            row
            for row in rows
            if all(row[p] == v for p, v in const_checks)
            and all(row[a] == row[b] for a, b in eq_checks)
        ]
    columns = tuple(list(map(itemgetter(p), rows)) for p in var_positions)
    return columns, len(rows)


def _run_step(
    step: _JoinStep,
    store: _Store,
    batch: Batch,
    length: int,
    collector: Optional[EngineStats],
) -> tuple[Batch, int]:
    """Join ``batch`` with ``step``'s relation; returns the new batch."""
    relation = store.relations.get((step.pred, step.arity))
    if relation is None or relation.count == 0:
        return _EMPTY_BATCH, 0

    # ---- probe: (batch row, relation row) index pairs -----------------
    out_batch: list[int] = []
    out_rows: list[int] = []
    if step.key_positions:
        table = relation.table_for(step.key_positions, collector)
        keys: Sequence[object]
        if len(step.key_sources) == 1:
            kind, value = step.key_sources[0]
            keys = (
                batch[cast(int, value)] if kind == "slot"
                else [value] * length
            )
        else:
            key_columns = [
                batch[cast(int, value)] if kind == "slot"
                else [value] * length
                for kind, value in step.key_sources
            ]
            keys = list(zip(*key_columns))
        if collector is not None:
            collector.join_probe_rows += length
        get = table.get
        for i, key in enumerate(keys):
            bucket = get(key)
            if bucket:
                out_batch.extend([i] * len(bucket))
                out_rows.extend(bucket)
    else:
        # no bound position: cross join against the whole relation
        if collector is not None:
            collector.join_probe_rows += length
        rows = range(relation.count)
        for i in range(length):
            out_batch.extend([i] * relation.count)
            out_rows.extend(rows)

    if step.eq_checks:
        columns = relation.columns
        keep = [
            j
            for j, r in enumerate(out_rows)
            if all(columns[a][r] == columns[b][r] for a, b in step.eq_checks)
        ]
        out_batch = [out_batch[j] for j in keep]
        out_rows = [out_rows[j] for j in keep]
    if collector is not None:
        collector.join_output_rows += len(out_rows)
    if not out_rows:
        return _EMPTY_BATCH, 0

    # ---- gather: project surviving columns ----------------------------
    new_batch: list[list[object]] = []
    for slot in step.keep_slots:
        column = batch[slot]
        new_batch.append([column[i] for i in out_batch])
    for pos in step.new_positions:
        column = relation.columns[pos]
        new_batch.append([column[r] for r in out_rows])
    return tuple(new_batch), len(out_rows)


def _head_rows(
    plan: _BodyPlan, batch: Batch, length: int
) -> Iterable[Row]:
    """Project the head atom over a finished batch."""
    if not plan.head_sources:  # boolean goal: one empty tuple
        return [()] if length else []
    columns = [
        batch[cast(int, value)] if kind == "slot" else [value] * length
        for kind, value in plan.head_sources
    ]
    return zip(*columns)


def _run_plan(
    plan: _BodyPlan,
    store: _Store,
    collector: Optional[EngineStats],
    seed_rows: Optional[Collection[Row]] = None,
) -> Iterable[Row]:
    """All head rows derivable through ``plan`` (duplicates possible)."""
    if plan.seed is None:
        batch, length = _EMPTY_BATCH, 1
    else:
        assert seed_rows is not None and plan.seed_spec is not None
        batch, length = _seed_batch(plan.seed_spec, seed_rows)
        if collector is not None:
            collector.columnar_batches += 1
    if not length:
        return ()
    for step in plan.steps:
        batch, length = _run_step(step, store, batch, length, collector)
        if not length:
            return ()
    return _head_rows(plan, batch, length)


# ---------------------------------------------------------------------------
# the fixpoint
# ---------------------------------------------------------------------------


def _full_rows(
    rule: Rule,
    store: _Store,
    plans: _ProgramPlans,
    collector: Optional[EngineStats],
) -> Iterable[Row]:
    """Head rows of ``rule`` fired on the whole current state."""
    if not rule.body:
        return (rule.head.args,)
    plan = plans.full(rule)
    return () if plan is None else _run_plan(plan, store, collector)


def _fire_once(
    rules: Sequence[Rule],
    store: _Store,
    plans: _ProgramPlans,
    collector: Optional[EngineStats],
) -> None:
    """Fire each rule once on the current state, adding facts eagerly."""
    added = 0
    for rule in rules:
        rows = list(_full_rows(rule, store, plans, collector))
        added += store.update(rule.head.pred, rows)
    if collector is not None:
        collector.facts_derived += added


def _commit(
    store: _Store,
    found: dict[str, dict[Row, None]],
    collector: Optional[EngineStats],
) -> dict[str, list[Row]]:
    """Add one round's new rows to the store; they are the next delta."""
    delta = {pred: list(rows) for pred, rows in found.items() if rows}
    added = 0
    for pred, rows in delta.items():
        store.extend(pred, rows)
        added += len(rows)
    if collector is not None:
        collector.facts_derived += added
    return delta


def _columnar_seminaive(
    rules: Sequence[Rule],
    store: _Store,
    tracked: AbstractSet[str],
    plans: _ProgramPlans,
    collector: Optional[EngineStats],
    prelude: Sequence[Rule] = (),
) -> None:
    """Semi-naive evaluation of one rule block, mirroring the
    interpreted engine's ``_seminaive_in_place`` round structure.

    A round's rows reach the store at its end, in one bulk insert per
    predicate; a derived row costs one membership check against the
    store, and the round's ``found`` dict drops repeats within it.
    """
    # Round 0: prelude fires eagerly, then every rule on the full state.
    if collector is not None:
        collector.fixpoint_rounds += 1
    _fire_once(prelude, store, plans, collector)
    found: dict[str, dict[Row, None]] = {}
    for rule in rules:
        head = rule.head
        rows = _full_rows(rule, store, plans, collector)
        held = store.held(head.pred, head.arity)
        found.setdefault(head.pred, {}).update(
            dict.fromkeys(filterfalse(held.__contains__, rows))
        )
    delta = _commit(store, found, collector)

    recursive = [
        rule
        for rule in rules
        if any(a.pred in tracked for a in rule.body)
    ]
    while delta and recursive:
        if collector is not None:
            collector.fixpoint_rounds += 1
        found = {}
        for rule in recursive:
            head = rule.head
            held = store.held(head.pred, head.arity)
            new = found.setdefault(head.pred, {})
            for position, atom in enumerate(rule.body):
                if atom.pred not in tracked:
                    continue
                seed_rows = delta.get(atom.pred)
                if not seed_rows:
                    continue
                plan = plans.delta(rule, position)
                new.update(dict.fromkeys(filterfalse(
                    held.__contains__,
                    _run_plan(plan, store, collector, seed_rows),
                )))
        delta = _commit(store, found, collector)


def columnar_fixpoint(
    program: DatalogProgram,
    instance: Instance,
    *,
    stats: Optional[EngineStats] = None,
) -> Instance:
    """``FPEval(Π, I)`` via batched hash joins over column arrays.

    Runs the SCC execution plan of :mod:`repro.core.evaluation` with
    per-component delta tracking, the same round structure as the
    interpreted engine, and computes the identical fixpoint.
    """
    from repro.core.evaluation import _execution_plan

    with _stats.maybe_collecting(stats):
        collector = _stats.active()
        store = _Store(instance)
        plans = _ProgramPlans(store)
        for prelude, rules, _keys, tracked in _execution_plan(program):
            if rules:
                _columnar_seminaive(
                    rules,
                    store,
                    tracked,
                    plans,
                    collector,
                    prelude=prelude,
                )
            elif prelude:
                if collector is not None:
                    collector.fixpoint_rounds += 1
                _fire_once(prelude, store, plans, collector)
        return store.materialize(instance)
