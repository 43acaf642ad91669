"""Homomorphism engine.

Homomorphism search is the computational heart of the library: CQ
evaluation, containment, canonical tests, tiling-as-homomorphism and the
pebble-game machinery all reduce to it.  We implement backtracking join
over the atoms of the source pattern with

* per-atom candidate enumeration through the instance's positional index,
* dynamic "fewest candidates first" atom ordering driven by the
  instance's O(1) selectivity counts (with a static mode kept for the
  ablation benchmark ABL-HOM), and
* early consistency checks for repeated variables.

Unbound pattern slots use :data:`repro.core.instance.ANY`; ``None`` is a
legitimate data element and never acts as a wildcard.  Constants map to
themselves (standard CQ semantics, §2).

Pass ``stats=EngineStats()`` (or activate one ambiently via
:func:`repro.core.stats.collecting`) to count homomorphism calls, search
steps and candidate rows scanned.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Optional, Sequence

from repro.core import stats as _stats
from repro.core.atoms import Atom
from repro.core.instance import ANY, Instance
from repro.core.terms import Variable, is_variable

_MISSING = object()  # "no binding" marker distinct from any data value


def _pattern(atom: Atom, assignment: Mapping) -> list:
    """The match pattern of ``atom`` under the current partial assignment.

    Unbound variables become the ``ANY`` wildcard — *not* ``None``,
    which would incorrectly wildcard-match instances containing ``None``
    as a data element.
    """
    pattern = []
    for term in atom.args:
        if is_variable(term):
            pattern.append(assignment.get(term, ANY))
        else:
            pattern.append(term)
    return pattern


def _bindings_for_row(
    atom: Atom, row: tuple, assignment: Mapping
) -> Optional[dict]:
    """New variable bindings making ``atom`` match ``row``, or None.

    Checks consistency for repeated variables within the atom and against
    the existing assignment.  A variable bound to ``None`` counts as
    bound (hence the ``_MISSING`` sentinel rather than ``.get(term)``).
    A row of another arity never matches: an instance may hold rows of
    several arities under one predicate name.
    """
    if len(row) != len(atom.args):
        return None
    new: dict = {}
    for term, value in zip(atom.args, row):
        if is_variable(term):
            bound = assignment.get(term, _MISSING)
            if bound is _MISSING:
                bound = new.get(term, _MISSING)
            if bound is _MISSING:
                new[term] = value
            elif bound != value:
                return None
        elif term != value:
            return None
    return new


def _candidate_count(atom: Atom, target: Instance, assignment: Mapping) -> int:
    return target.count_matching(atom.pred, _pattern(atom, assignment))


def _search(
    atoms: Sequence[Atom],
    target: Instance,
    assignment: dict,
    dynamic: bool,
    stats=None,
) -> Iterator[dict]:
    """Yield total assignments extending ``assignment`` over all atoms.

    Iterative backtracking (an explicit frame stack): patterns with
    thousands of atoms — whole-instance homomorphism checks — must not
    hit the Python recursion limit.
    """
    if not atoms:
        yield dict(assignment)
        return

    remaining = list(atoms)

    def pick(pool: list[Atom]) -> Atom:
        if dynamic:
            best = min(
                range(len(pool)),
                key=lambda i: _candidate_count(pool[i], target, assignment),
            )
        else:
            best = 0
        return pool.pop(best)

    # each frame: (atom, row-iterator, bindings-made, rest-pool)
    first = pick(remaining)
    stack = [
        (
            first,
            target.matching(first.pred, _pattern(first, assignment)),
            None,
            remaining,
        )
    ]
    rows_scanned = 0
    steps = 1
    try:
        while stack:
            atom, rows, made, pool = stack[-1]
            if made is not None:
                for key in made:
                    del assignment[key]
                stack[-1] = (atom, rows, None, pool)
            advanced = False
            for row in rows:
                rows_scanned += 1
                new = _bindings_for_row(atom, row, assignment)
                if new is None:
                    continue
                assignment.update(new)
                if not pool:
                    yield dict(assignment)
                    for key in new:
                        del assignment[key]
                    continue
                stack[-1] = (atom, rows, new, pool)
                rest = list(pool)
                nxt = pick(rest)
                stack.append(
                    (
                        nxt,
                        target.matching(nxt.pred, _pattern(nxt, assignment)),
                        None,
                        rest,
                    )
                )
                steps += 1
                advanced = True
                break
            if not advanced:
                stack.pop()
    finally:
        if stats is not None:
            stats.rows_scanned += rows_scanned
            stats.search_steps += steps


def _connected_order(atoms: list[Atom], target: Instance) -> list[Atom]:
    """A one-shot join order: cheapest seed, then variable-connected.

    Used for large patterns where per-step candidate counting (dynamic
    ordering) costs more than it saves.  Relation sizes come from the
    instance's O(1) per-predicate counters.
    """
    remaining = list(atoms)
    ordered: list[Atom] = []
    bound: set = set()
    while remaining:
        connected = [
            a for a in remaining if a.variables() & bound
        ] or remaining
        best = min(
            connected,
            key=lambda a: target.size(a.pred),
        )
        remaining.remove(best)
        ordered.append(best)
        bound |= best.variables()
    return ordered


_DYNAMIC_ATOM_LIMIT = 30


def resolve_plan(
    atoms: list[Atom], target: Instance, ordering: str = "auto"
) -> tuple[list[Atom], bool]:
    """Resolve an ordering request into ``(atom_order, dynamic_flag)``.

    Exposed so callers evaluating the same rule repeatedly (semi-naive
    rounds) can cache the resolved plan and replay it with
    ``ordering="static"`` / ``"dynamic"`` instead of re-planning —
    see :mod:`repro.core.evaluation`.
    """
    if ordering == "auto":
        ordering = (
            "dynamic" if len(atoms) <= _DYNAMIC_ATOM_LIMIT
            else "connected"
        )
    if ordering == "connected":
        return _connected_order(atoms, target), False
    if ordering == "static":
        return atoms, False
    if ordering == "dynamic":
        return atoms, True
    raise ValueError(f"unknown ordering {ordering!r}")


def homomorphisms(
    atoms: Iterable[Atom],
    target: Instance,
    fixed: Optional[Mapping[Variable, object]] = None,
    ordering: str = "auto",
    stats=None,
) -> Iterator[dict]:
    """All homomorphisms from the atom set into ``target``.

    ``fixed`` pre-binds variables (used to evaluate queries at a given
    tuple and to check rooted mappings).  ``ordering``:

    * ``"dynamic"`` — fewest-candidates-first at every step (best for
      small patterns);
    * ``"static"`` — the given atom order;
    * ``"connected"`` — one-shot connected join order;
    * ``"auto"`` (default) — dynamic below ``_DYNAMIC_ATOM_LIMIT``
      atoms, connected above.

    ``stats`` is an optional :class:`repro.core.stats.EngineStats`; when
    omitted the ambient collector (if any) is used.
    """
    atom_list = list(atoms)
    if stats is None:
        stats = _stats.active()
    if stats is not None:
        stats.hom_calls += 1
    # Every atom needs at least one row: an empty relation anywhere means
    # no homomorphism, and a static/connected order might otherwise scan
    # rows of earlier atoms before reaching the empty one.
    if any(target.size(atom.pred) == 0 for atom in atom_list):
        return
    atom_list, dynamic = resolve_plan(atom_list, target, ordering)
    assignment: dict = dict(fixed) if fixed else {}
    yield from _search(atom_list, target, assignment, dynamic, stats)


def find_homomorphism(
    atoms: Iterable[Atom],
    target: Instance,
    fixed: Optional[Mapping[Variable, object]] = None,
    ordering: str = "auto",
) -> Optional[dict]:
    """The first homomorphism found, or None."""
    return next(homomorphisms(atoms, target, fixed, ordering), None)


def has_homomorphism(
    atoms: Iterable[Atom],
    target: Instance,
    fixed: Optional[Mapping[Variable, object]] = None,
) -> bool:
    """Whether some homomorphism exists."""
    return find_homomorphism(atoms, target, fixed) is not None


def _instance_as_atoms(source: Instance) -> tuple[list[Atom], dict]:
    """View an instance as a pattern: one variable per domain element."""
    var_of = {e: Variable(f"_e{i}") for i, e in enumerate(sorted(
        source.active_domain(), key=repr))}
    pattern = [
        Atom(f.pred, tuple(var_of[a] for a in f.args)) for f in source.facts()
    ]
    return pattern, var_of


def instance_homomorphism(
    source: Instance, target: Instance
) -> Optional[dict]:
    """A homomorphism ``source -> target`` on elements, or None.

    This is the ``I → I'`` relation of §2: every element of the source may
    be renamed (there are no constants-in-data; data elements are
    freely mappable).
    """
    pattern, var_of = _instance_as_atoms(source)
    hom = find_homomorphism(pattern, target)
    if hom is None:
        return None
    return {elem: hom[var] for elem, var in var_of.items()}


def instance_maps_into(source: Instance, target: Instance) -> bool:
    """``source → target`` (§2 notation)."""
    return instance_homomorphism(source, target) is not None


def homomorphically_equivalent(left: Instance, right: Instance) -> bool:
    """Mutual homomorphisms in both directions."""
    return instance_maps_into(left, right) and instance_maps_into(right, left)


def is_partial_homomorphism(
    mapping: Mapping, source: Instance, target: Instance
) -> bool:
    """Check the pebble-game condition (§7).

    ``mapping`` is a partial map on the active domain of ``source``.  The
    condition: whenever all arguments of a source fact lie in the domain
    of ``mapping``, the image fact must be in ``target``.
    """
    dom = set(mapping)
    for fact in source.facts():
        if all(arg in dom for arg in fact.args):
            image = tuple(mapping[arg] for arg in fact.args)
            if not target.has_tuple(fact.pred, image):
                return False
    return True


def count_homomorphisms(atoms: Iterable[Atom], target: Instance) -> int:
    """Number of homomorphisms (used in tests and benchmarks)."""
    return sum(1 for _ in homomorphisms(atoms, target))
