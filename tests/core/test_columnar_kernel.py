"""The columnar kernel's bulk inserts, plan reuse and work counters.

Bulk inserts must keep the row-set semantics of one-row-at-a-time
insertion: duplicates within a batch and against stored rows are
dropped, a 0-ary relation holds the empty row once, one predicate name
may be held at several arities, and a row of the wrong arity is refused
before the relation changes.  Compiled body plans are cached per
process by (rule, seed position, atom order); a fixpoint that picks an
order it has seen compiles nothing.  The counter tests pin the exact
work of a fixed fixpoint and of two IVM rounds, so a kernel change that
moves rows differently shows here.
"""

from __future__ import annotations

import pytest

from repro.core.atoms import Fact
from repro.core.columnar import (
    _compile_body,
    _order_atoms,
    _Relation,
    _Store,
    columnar_fixpoint,
)
from repro.core.evaluation import fixpoint
from repro.core.instance import Instance
from repro.core.parser import parse_instance, parse_program
from repro.core.stats import EngineStats
from repro.ivm import MaterializedView

from tests.differential import REFERENCES, nonempty

# ---------------------------------------------------------------------------
# bulk inserts
# ---------------------------------------------------------------------------


def test_update_drops_duplicates_within_a_batch_and_against_stored_rows():
    relation = _Relation(2)
    assert relation.update([(1, 2), (1, 2), (2, 3)]) == [(1, 2), (2, 3)]
    assert relation.update([(2, 3), (3, 4), (3, 4), (1, 2)]) == [(3, 4)]
    assert relation.count == 3
    assert relation.row_set == {(1, 2), (2, 3), (3, 4)}
    assert relation.columns == [[1, 2, 3], [2, 3, 4]]


def test_a_grown_relation_extends_its_build_table():
    relation = _Relation(2)
    relation.update([(1, 2), (1, 3)])
    assert relation.table_for((0,), None) == {1: [0, 1]}
    relation.update([(1, 3), (2, 4)])
    assert relation.table_for((0,), None) == {1: [0, 1], 2: [2]}


def test_a_zero_ary_relation_holds_the_empty_row_once():
    relation = _Relation(0)
    assert relation.update([(), ()]) == [()]
    assert relation.update([()]) == []
    assert relation.count == 1
    assert relation.row_set == {()}
    assert relation.columns == []


@pytest.mark.parametrize("reference", sorted(REFERENCES))
def test_zero_ary_heads_and_facts_match_the_interpreted_engine(reference):
    """Against each reference: the replayer's naive fixpoint and the
    interpreted engine's semi-naive insertion and stratified fixpoint."""
    program = parse_program(
        "Seen() <- E(x,y). Loop() <- E(x,x). Both() <- Seen(), Flag()."
    )
    instance = parse_instance("E(1,2). E(2,3).")
    instance.add_tuple("Flag", ())
    expected = REFERENCES[reference](program, instance)
    assert expected["Both"] == {()}
    assert nonempty(columnar_fixpoint(program, instance)) == expected


def test_the_store_holds_one_name_at_several_arities():
    store = _Store()
    store.load("R", [(1,), (1, 2), (1,), (3, 4)])
    assert store.relations[("R", 1)].count == 1
    assert store.relations[("R", 2)].count == 2
    assert store.rows("R") == {(1,), (1, 2), (3, 4)}
    assert store.derived == {}
    assert store.update("R", [(1, 2), (5,), (5, 6), (5,)]) == 2
    assert sorted(store.derived["R"], key=len) == [(5,), (5, 6)]
    store.extend("R", [(7,), (7, 8)])
    assert store.relations[("R", 1)].count == 3
    assert store.relations[("R", 2)].count == 4
    assert len(store.derived["R"]) == 4


@pytest.mark.parametrize("reference", sorted(REFERENCES))
def test_mixed_arity_heads_match_the_interpreted_engine(reference):
    program = parse_program(
        "P(x) <- E(x,y). P(x,y) <- E(x,y). P(x,z) <- P(x,y), E(y,z). "
        "Q(x) <- P(x), P(x,x)."
    )
    instance = parse_instance("E(1,2). E(2,3). E(3,1). P(9).")
    instance.add_tuple("E", (4,))
    expected = REFERENCES[reference](program, instance)
    assert expected["Q"] == {(1,), (2,), (3,)}
    assert nonempty(columnar_fixpoint(program, instance)) == expected


def test_a_wrong_arity_row_raises_and_leaves_the_relation_unchanged():
    relation = _Relation(2)
    relation.update([(1, 2)])
    table = relation.table_for((0,), None)
    for insert in (relation.update, relation.extend):
        with pytest.raises(ValueError, match="arity 2"):
            insert([(3, 4), (5, 6, 7)])
        assert relation.count == 1
        assert relation.row_set == {(1, 2)}
        assert relation.columns == [[1], [2]]
        assert relation.table_for((0,), None) == table == {1: [0]}


# ---------------------------------------------------------------------------
# plan reuse
# ---------------------------------------------------------------------------

REACH = parse_program(
    "T(x,y) <- E(x,y). T(x,y) <- E(x,z), T(z,y). Goal(y) <- S(x), T(x,y)."
)


def _chain(n: int) -> Instance:
    return parse_instance(
        " ".join(f"E({i},{i + 1})." for i in range(n)) + " S(0)."
    )


def test_a_second_fixpoint_on_the_same_sizes_compiles_nothing():
    _compile_body.cache_clear()
    first = columnar_fixpoint(REACH, _chain(6))
    compiled = _compile_body.cache_info()
    assert compiled.misses > 0
    assert columnar_fixpoint(REACH, _chain(6)) == first
    again = _compile_body.cache_info()
    assert again.misses == compiled.misses
    assert again.hits > compiled.hits


def test_a_new_size_profile_compiles_its_own_plan_and_the_same_fixpoint():
    _compile_body.cache_clear()
    program = parse_program("P(x,z) <- A(x,y), B(y,z).")
    (rule,) = program.rules
    small_a = parse_instance("A(1,2). B(2,3). B(2,4). B(5,6).")
    small_b = parse_instance("A(1,2). A(7,2). A(8,9). B(2,3).")
    assert _order_atoms(rule, None, _Store(small_a)) == (0, 1)
    assert _order_atoms(rule, None, _Store(small_b)) == (1, 0)

    for instance in (small_a, small_b):
        before = _compile_body.cache_info().misses
        result = columnar_fixpoint(program, instance)
        assert _compile_body.cache_info().misses == before + 1
        assert result == fixpoint(program, instance, backend="interpreted")
    # both orders stay cached: neither profile compiles again
    before = _compile_body.cache_info().misses
    for instance in (small_a, small_b):
        columnar_fixpoint(program, instance)
    assert _compile_body.cache_info().misses == before


# ---------------------------------------------------------------------------
# work counters, pinned to the values of the per-row kernel
# ---------------------------------------------------------------------------

COUNTED = parse_program(
    """
    T(x,y) <- E(x,y).
    T(x,y) <- E(x,z), T(z,y).
    Loop(x) <- T(x,x).
    Src(y) <- T('n0',y), Mark(y).
    Pair(x,y) <- T(x,y), T(y,x).
    """
)

COUNTED_BASE = parse_instance(
    " ".join(f"E('n{i}','n{i + 1}')." for i in range(12))
    + " E('n12','n3'). E('n5','n9'). Mark('n4'). Mark('n7')."
)

COLUMNAR_FIELDS = (
    "fixpoint_rounds",
    "facts_derived",
    "join_build_rows",
    "join_probe_rows",
    "join_output_rows",
    "columnar_batches",
)


def _counters(stats: EngineStats, fields: tuple[str, ...]) -> tuple[int, ...]:
    return tuple(getattr(stats, name) for name in fields)


def test_a_fixed_columnar_fixpoint_does_the_same_work():
    stats = EngineStats()
    columnar_fixpoint(COUNTED, COUNTED_BASE, stats=stats)
    assert _counters(stats, COLUMNAR_FIELDS) == (12, 245, 147, 272, 402, 10)


def test_an_inserting_and_a_recomputing_ivm_round_do_the_same_work():
    fields = COLUMNAR_FIELDS + ("ivm_inserted", "ivm_deleted", "ivm_rederived")
    view = MaterializedView(COUNTED, COUNTED_BASE, backend="columnar")
    inserting = EngineStats()
    view.apply(
        inserts=[Fact("E", ("n12", "n13")), Fact("E", ("n13", "n0"))],
        stats=inserting,
    )
    assert _counters(inserting, fields) == (
        0, 0, 151, 65, 84, 13, 165, 0, 0
    )
    recomputing = EngineStats()
    view.apply(retracts=[Fact("E", ("n5", "n6"))], stats=recomputing)
    assert _counters(recomputing, fields) == (
        12, 157, 15, 158, 181, 11, 0, 119, 157
    )
    assert view.state == view.recompute()
