"""Instances: storage, indexes, and transformations."""

import pytest
from hypothesis import given, strategies as st

from repro.core.atoms import Atom
from repro.core.instance import ANY, Instance
from repro.core.parser import parse_instance


def test_add_and_contains():
    inst = Instance()
    assert inst.add_tuple("R", (1, 2))
    assert not inst.add_tuple("R", (1, 2))  # duplicate
    assert Atom("R", (1, 2)) in inst
    assert inst.has_tuple("R", (1, 2))
    assert not inst.has_tuple("R", (2, 1))


def test_add_rejects_non_ground():
    from repro.core.terms import Variable

    inst = Instance()
    with pytest.raises(ValueError):
        inst.add(Atom("R", (Variable("x"),)))


def test_len_and_bool():
    inst = Instance()
    assert not inst and len(inst) == 0
    inst.add_tuple("R", (1,))
    assert inst and len(inst) == 1


def test_active_domain():
    inst = parse_instance("R('a','b'). S('c').")
    assert inst.active_domain() == {"a", "b", "c"}


def test_discard_updates_matching():
    inst = Instance()
    inst.add_tuple("R", (1, 2))
    inst.add_tuple("R", (1, 3))
    assert set(inst.matching("R", (1, ANY))) == {(1, 2), (1, 3)}
    inst.discard(Atom("R", (1, 2)))
    assert set(inst.matching("R", (1, ANY))) == {(1, 3)}


def test_matching_with_repeated_pattern_values():
    inst = Instance()
    inst.add_tuple("R", (1, 1))
    inst.add_tuple("R", (1, 2))
    assert set(inst.matching("R", (1, 1))) == {(1, 1)}


def test_matching_unbound_pattern_scans_all():
    inst = Instance()
    inst.add_tuple("R", (1, 2))
    inst.add_tuple("R", (3, 4))
    assert set(inst.matching("R", (ANY, ANY))) == {(1, 2), (3, 4)}


def test_matching_missing_predicate_is_empty():
    assert list(Instance().matching("R", (ANY,))) == []


def test_restrict_and_drop():
    inst = parse_instance("R('a','b'). S('c'). T('d').")
    assert inst.restrict(["R"]).predicates() == {"R"}
    assert inst.drop(["R"]).predicates() == {"S", "T"}


def test_map_elements_with_dict_and_callable():
    inst = parse_instance("R('a','b').")
    mapped = inst.map_elements({"a": "z"})
    assert mapped.has_tuple("R", ("z", "b"))
    doubled = Instance([Atom("R", (1, 2))]).map_elements(lambda v: v * 10)
    assert doubled.has_tuple("R", (10, 20))


def test_map_elements_can_merge():
    inst = Instance()
    inst.add_tuple("R", (1, 2))
    inst.add_tuple("R", (3, 2))
    merged = inst.map_elements({3: 1})
    assert len(merged) == 1


def test_relabel_predicates():
    inst = parse_instance("R('a','b').")
    out = inst.relabel_predicates({"R": "E"})
    assert out.has_tuple("E", ("a", "b"))
    assert not out.tuples("R")


def test_union_and_subinstance():
    left = parse_instance("R('a','b').")
    right = parse_instance("R('b','c'). S('a').")
    union = left | right
    assert len(union) == 3
    assert left <= union and right <= union
    assert not union <= left


def test_difference():
    left = parse_instance("R('a','b'). R('b','c').")
    right = parse_instance("R('a','b').")
    assert set(left.difference(right).tuples("R")) == {("b", "c")}


def test_equality_ignores_order():
    a = parse_instance("R('a','b'). S('c').")
    b = parse_instance("S('c'). R('a','b').")
    assert a == b


def test_rows_reads_the_stored_set_and_tuples_copies_it():
    inst = parse_instance("R('a','b').")
    assert inst.rows("R") == inst.tuples("R") == {("a", "b")}
    assert inst.rows("R") is inst.rows("R")
    assert inst.tuples("R") is not inst.tuples("R")
    assert inst.rows("S") == frozenset()
    assert "S" not in inst.predicates()


def test_copy_is_independent():
    inst = parse_instance("R('a','b').")
    clone = inst.copy()
    clone.add_tuple("R", ("x", "y"))
    assert len(inst) == 1 and len(clone) == 2


def test_schema_inference():
    inst = parse_instance("R('a','b'). S('c').")
    schema = inst.schema()
    assert schema.arity("R") == 2 and schema.arity("S") == 1


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=12
    ),
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=12
    ),
)
def test_union_is_upper_bound(left_rows, right_rows):
    left = Instance(Atom("R", row) for row in left_rows)
    right = Instance(Atom("R", row) for row in right_rows)
    union = left | right
    assert left <= union and right <= union
    assert set(union.tuples("R")) == set(left_rows) | set(right_rows)


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=10))
def test_map_identity_preserves(rows):
    inst = Instance(Atom("R", row) for row in rows)
    assert inst.map_elements(lambda v: v) == inst
