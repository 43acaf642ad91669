"""Database instances: sets of facts with per-predicate indexes.

An :class:`Instance` is a set of facts over a schema (§2).  Internally
facts are stored as a map ``pred -> set of argument tuples`` which makes
joins, view application, and fixpoint evaluation efficient.  A secondary
index ``(pred, position, value) -> tuples`` plus exact cardinality
counts per index key are built lazily for pattern matching and then
maintained *incrementally*: adding a fact appends to the live index,
discarding one tombstones its rows, so fixpoint rounds that interleave
``add`` with ``matching`` never trigger full rebuilds.

Pattern slots use the :data:`ANY` sentinel for "match any value".
``None`` is an ordinary (indexable) data element, **not** a wildcard —
see the regression tests in ``tests/core/test_instance_index.py`` for
the bug this prevents.
"""

from __future__ import annotations

from collections import defaultdict
from typing import AbstractSet, Any, Callable, Iterable, Iterator, Sequence

from repro.core import stats as _stats
from repro.core.atoms import Atom, Fact
from repro.core.schema import Schema


class _AnySentinel:
    """The wildcard marker for pattern slots (singleton :data:`ANY`)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "ANY"


ANY = _AnySentinel()
"""Wildcard pattern slot: matches every value, including ``None``."""

_NO_ROWS: frozenset[tuple] = frozenset()


class Instance:
    """A (finite) database instance.

    Supports the operations the paper uses pervasively: active domain
    computation, restriction to a sub-signature, unions, element renaming
    (homomorphic images), and sub-instance checks.

    ``__eq__`` is structural and ``__hash__`` is consistent with it
    (computed from :meth:`frozen_key`); as with any mutable container,
    do not mutate an instance while it sits in a set or dict key.
    """

    __slots__ = ("_tuples", "_index", "_counts", "_index_live", "_dead")

    def __init__(self, facts: Iterable[Fact] = ()) -> None:
        self._tuples: dict[str, set[tuple]] = defaultdict(set)
        # (pred, pos, value) -> list of rows; built lazily, then kept
        # live across adds.  _counts holds the exact number of *live*
        # rows per key (tombstoned rows are excluded).  _dead counts
        # rows discarded since the last rebuild: when 0 the index lists
        # contain no stale entries and matching can skip its filter.
        self._index: dict[tuple, list[tuple]] = {}
        self._counts: dict[tuple, int] = {}
        self._index_live = False
        self._dead = 0
        for fact in facts:
            self.add(fact)

    # ------------------------------------------------------------------
    # construction and mutation
    # ------------------------------------------------------------------
    @staticmethod
    def of(*facts: Fact) -> "Instance":
        """Varargs constructor: ``Instance.of(Fact("R", (1, 2)), ...)``."""
        return Instance(facts)

    @staticmethod
    def from_tuples(pred_tuples: dict[str, Iterable[Sequence]]) -> "Instance":
        """Build from ``{"R": [(1, 2), ...], ...}``."""
        inst = Instance()
        for pred, rows in pred_tuples.items():
            for row in rows:
                inst.add_tuple(pred, tuple(row))
        return inst

    def add(self, fact: Fact) -> bool:
        """Add a fact; returns True if it was new."""
        if not fact.is_ground():
            raise ValueError(f"cannot add non-ground atom {fact!r}")
        return self.add_tuple(fact.pred, fact.args)

    def add_tuple(self, pred: str, args: tuple) -> bool:
        """Add a fact given as predicate + argument tuple."""
        rows = self._tuples[pred]
        if args in rows:
            return False
        if any(a is ANY for a in args):
            raise ValueError(
                f"the ANY pattern sentinel is not a data value: {pred}{args!r}"
            )
        rows.add(args)
        if self._index_live:
            # Maintain the index in place instead of invalidating it.
            index = self._index
            counts = self._counts
            resurrected = False
            for pos, val in enumerate(args):
                key = (pred, pos, val)
                bucket = index.get(key)
                count = counts.get(key, 0)
                if bucket is None:
                    index[key] = [args]
                elif count >= len(bucket) or args not in bucket:
                    # count < len(bucket) means tombstones exist under
                    # this key; re-adding a tombstoned row must not
                    # duplicate its index entry.
                    bucket.append(args)
                else:
                    # The row is already in the bucket but was not live:
                    # this add resurrects a tombstoned row.  Its stale
                    # index entries become live again, so the row no
                    # longer counts against the staleness budget.
                    resurrected = True
                counts[key] = count + 1
            if resurrected and self._dead:
                self._dead -= 1
            collector = _stats.active()
            if collector is not None:
                collector.index_incremental += 1
        return True

    def update(self, facts: Iterable[Fact]) -> None:
        for fact in facts:
            self.add(fact)

    def discard(self, fact: Fact) -> None:
        rows = self._tuples.get(fact.pred)
        if rows is not None and fact.args in rows:
            rows.remove(fact.args)
            if self._index_live:
                # Tombstone: decrement counts, leave the stale rows in
                # the index lists (matching filters them while _dead>0).
                counts = self._counts
                for pos, val in enumerate(fact.args):
                    key = (fact.pred, pos, val)
                    remaining = counts.get(key, 0) - 1
                    if remaining > 0:
                        counts[key] = remaining
                    else:
                        counts.pop(key, None)
                self._dead += 1

    def copy(self) -> "Instance":
        clone = Instance()
        for pred, rows in self._tuples.items():
            if rows:
                clone._tuples[pred] = set(rows)
        return clone

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def facts(self) -> Iterator[Fact]:
        """Iterate over all facts as :class:`Atom` objects."""
        for pred, rows in self._tuples.items():
            for row in rows:
                yield Atom(pred, row)

    def tuples(self, pred: str) -> frozenset:
        """All argument tuples of relation ``pred`` (empty if absent)."""
        return frozenset(self._tuples.get(pred, ()))

    def rows(self, pred: str) -> AbstractSet[tuple]:
        """The live row set of ``pred``, uncopied — read it, never
        mutate it, and do not hold it across a change to the instance
        (:meth:`tuples` returns a snapshot)."""
        return self._tuples.get(pred, _NO_ROWS)

    def size(self, pred: str) -> int:
        """Number of facts of relation ``pred`` — O(1)."""
        rows = self._tuples.get(pred)
        return len(rows) if rows is not None else 0

    def predicates(self) -> set[str]:
        """Relation names with at least one fact."""
        return {p for p, rows in self._tuples.items() if rows}

    def schema(self) -> Schema:
        """Infer the schema of the stored facts."""
        return Schema.from_atoms(self.facts())

    def active_domain(self) -> set:
        """``adom(I)``: every element occurring in some fact."""
        dom: set = set()
        for rows in self._tuples.values():
            for row in rows:
                dom.update(row)
        return dom

    def __len__(self) -> int:
        return sum(len(rows) for rows in self._tuples.values())

    def __bool__(self) -> bool:
        return any(self._tuples.values())

    def __contains__(self, fact: Fact) -> bool:
        rows = self._tuples.get(fact.pred)
        return rows is not None and fact.args in rows

    def has_tuple(self, pred: str, args: tuple) -> bool:
        rows = self._tuples.get(pred)
        return rows is not None and args in rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        preds = self.predicates() | other.predicates()
        return all(self.tuples(p) == other.tuples(p) for p in preds)

    def frozen_key(self) -> frozenset:
        """Immutable structural snapshot: ``frozenset`` of (pred, row).

        Two instances are ``==`` iff their frozen keys are equal, so
        this is the safe thing to deduplicate on (sets of visited
        states in ``automata/``, ``games/``, ``determinacy/``) — it
        stays valid even if the instance mutates afterwards.
        """
        return frozenset(
            (pred, row)
            for pred, rows in self._tuples.items()
            for row in rows
        )

    def __hash__(self) -> int:
        # Consistent with structural __eq__ (equal instances hash
        # equal).  O(n): prefer frozen_key() for long-lived set/dict
        # membership of instances that may still mutate.
        return hash(self.frozen_key())

    def __le__(self, other: "Instance") -> bool:
        """Sub-instance check (fact-set inclusion)."""
        return all(
            self.tuples(p) <= other.tuples(p) for p in self.predicates()
        )

    def __or__(self, other: "Instance") -> "Instance":
        merged = self.copy()
        merged.update(other.facts())
        return merged

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        n = len(self)
        preds = ", ".join(sorted(self.predicates()))
        return f"<Instance {n} facts over {{{preds}}}>"

    def pretty(self) -> str:
        """Multi-line human-readable rendering (sorted, stable)."""
        lines = []
        for pred in sorted(self.predicates()):
            for row in sorted(self._tuples[pred], key=repr):
                lines.append(f"{pred}({', '.join(map(repr, row))})")
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # pattern matching (used by the homomorphism engine and FPEval)
    # ------------------------------------------------------------------
    def _build_index(self) -> None:
        index: dict[tuple, list[tuple]] = defaultdict(list)
        counts: dict[tuple, int] = defaultdict(int)
        for pred, rows in self._tuples.items():
            for row in rows:
                for pos, val in enumerate(row):
                    key = (pred, pos, val)
                    index[key].append(row)
                    counts[key] += 1
        self._index = dict(index)
        self._counts = dict(counts)
        self._index_live = True
        self._dead = 0
        collector = _stats.active()
        if collector is not None:
            collector.index_rebuilds += 1

    def matching(
        self, pred: str, pattern: Sequence[Any]
    ) -> Iterator[tuple]:
        """Yield tuples of ``pred`` agreeing with ``pattern``.

        ``pattern`` is a sequence where the :data:`ANY` sentinel means
        "any value"; every other entry (including ``None``) must match
        exactly.  Uses the positional index when some position is
        bound, otherwise scans.  Repeated values in the pattern are
        enforced.
        """
        rows = self._tuples.get(pred)
        if not rows:
            return
        bound = [(i, v) for i, v in enumerate(pattern) if v is not ANY]
        if bound:
            if not self._index_live:
                self._build_index()
            # Pick the most selective bound position by live count.
            counts = self._counts
            best_key = None
            best_count = -1
            for pos, val in bound:
                count = counts.get((pred, pos, val), 0)
                if count == 0:
                    return  # exact: no live row matches this position
                if best_count < 0 or count < best_count:
                    best_count = count
                    best_key = (pred, pos, val)
            candidates: Iterable[tuple] = self._index.get(best_key, ())
        else:
            candidates = rows
        # a row of another arity under the same name never matches a
        # bound pattern (and must not be indexed past its end)
        arity = len(pattern)
        if self._dead:
            # Stale entries linger in index lists until the next full
            # rebuild; filter them out against the authoritative rows.
            for row in candidates:
                if row in rows and len(row) == arity and all(
                    row[i] == v for i, v in bound
                ):
                    yield row
        else:
            for row in candidates:
                if len(row) == arity and all(row[i] == v for i, v in bound):
                    yield row

    def count_matching(self, pred: str, pattern: Sequence[Any]) -> int:
        """Exact number of tuples matching ``pattern``.

        O(1) for patterns binding at most one position (the common case
        in fewest-candidates-first join ordering); exact enumeration
        otherwise.
        """
        rows = self._tuples.get(pred)
        if not rows:
            return 0
        bound = [(i, v) for i, v in enumerate(pattern) if v is not ANY]
        if not bound:
            return len(rows)
        if not self._index_live:
            self._build_index()
        if len(bound) == 1:
            pos, val = bound[0]
            return self._counts.get((pred, pos, val), 0)
        return sum(1 for _ in self.matching(pred, pattern))

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def restrict(self, predicates: Iterable[str]) -> "Instance":
        """Restriction to a sub-signature: ``I ↾ Σ'``."""
        keep = set(predicates)
        out = Instance()
        for pred, rows in self._tuples.items():
            if pred in keep and rows:
                out._tuples[pred] = set(rows)
        return out

    def drop(self, predicates: Iterable[str]) -> "Instance":
        """Remove all facts of the given predicates."""
        omit = set(predicates)
        return self.restrict(self.predicates() - omit)

    def map_elements(self, mapping: Callable[[Any], Any] | dict) -> "Instance":
        """Homomorphic image: apply ``mapping`` to every domain element.

        ``mapping`` may be a dict (elements absent from it are kept as-is)
        or a callable.
        """
        if isinstance(mapping, dict):
            fn = lambda x: mapping.get(x, x)  # noqa: E731
        else:
            fn = mapping
        out = Instance()
        for pred, rows in self._tuples.items():
            for row in rows:
                out.add_tuple(pred, tuple(fn(v) for v in row))
        return out

    def relabel_predicates(self, renaming: dict[str, str]) -> "Instance":
        """Rename relation symbols (absent names kept as-is)."""
        out = Instance()
        for pred, rows in self._tuples.items():
            target = renaming.get(pred, pred)
            for row in rows:
                out.add_tuple(target, row)
        return out

    def difference(self, other: "Instance") -> "Instance":
        """Facts of ``self`` not present in ``other``."""
        out = Instance()
        for pred, rows in self._tuples.items():
            extra = rows - set(other.tuples(pred))
            if extra:
                out._tuples[pred] = extra
        return out
