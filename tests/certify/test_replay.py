"""The naive replay primitives agree with the engine."""

from collections import Counter

from hypothesis import example, given, settings, strategies as st

from repro.certify import replay
from repro.certify.serialize import relations_from_instance
from repro.core.atoms import Atom
from repro.core.cq import CanonConst, ConjunctiveQuery
from repro.core.datalog import DatalogQuery
from repro.core.instance import Instance
from repro.core.parser import parse_program
from repro.core.terms import Variable
from repro.core.ucq import UCQ

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def _chain(n: int) -> Instance:
    instance = Instance()
    for i in range(n):
        instance.add_tuple("R", (i, i + 1))
    return instance


def test_match_finds_all_homomorphisms():
    relations = relations_from_instance(_chain(3))
    atoms = [Atom("R", (X, Y)), Atom("R", (Y, Z))]
    found = {
        (b[X], b[Y], b[Z]) for b in replay.match(atoms, relations)
    }
    assert found == {(0, 1, 2), (1, 2, 3)}


def test_match_respects_fixed_binding_and_constants():
    relations = relations_from_instance(_chain(3))
    atoms = [Atom("R", (X, Y))]
    assert not replay.has_match(atoms, relations, {X: 7})
    assert replay.has_match([Atom("R", (0, Y))], relations)
    assert not replay.has_match([Atom("R", (3, Y))], relations)


def test_check_mapping_reports_problems():
    relations = relations_from_instance(_chain(2))
    atoms = [Atom("R", (X, Y))]
    assert replay.check_mapping(atoms, {X: 0, Y: 1}, relations) is None
    assert "unmapped" in replay.check_mapping(atoms, {X: 0}, relations)
    assert "not a fact" in replay.check_mapping(
        atoms, {X: 0, Y: 2}, relations
    )


def test_naive_fixpoint_matches_engine():
    program = parse_program(
        """
        T(x, y) <- R(x, y).
        T(x, y) <- R(x, z), T(z, y).
        """
    )
    instance = _chain(4)
    query = DatalogQuery(program, "T")
    state = replay.naive_fixpoint(
        program.rules, relations_from_instance(instance)
    )
    assert state["T"] == query.evaluate(instance)


def test_eval_query_all_shapes():
    instance = _chain(3)
    relations = relations_from_instance(instance)
    cq = ConjunctiveQuery((X, Z), (Atom("R", (X, Y)), Atom("R", (Y, Z))))
    assert replay.eval_cq(cq, relations) == cq.evaluate(instance)
    ucq = UCQ((cq, ConjunctiveQuery((X, Y), (Atom("R", (X, Y)),))))
    assert replay.eval_query(ucq, relations) == ucq.evaluate(instance)


def test_holds_repeated_head_variable():
    cq = ConjunctiveQuery((X, X), (Atom("R", (X, Y)),))
    relations = relations_from_instance(_chain(2))
    assert replay.holds(cq, relations, (0, 0))
    assert not replay.holds(cq, relations, (0, 1))
    assert not replay.holds(cq, relations, (0,))


def test_canonical_relations_freeze_variables():
    cq = ConjunctiveQuery((X,), (Atom("R", (X, Y)), Atom("S", (Y, 3))))
    canon = replay.canonical_relations(cq)
    assert canon["R"] == {(CanonConst("x"), CanonConst("y"))}
    assert canon["S"] == {(CanonConst("y"), 3)}
    assert replay.frozen_head(cq) == (CanonConst("x"),)


def test_relations_subset_reports_missing_fact():
    left = {"R": {(1, 2), (3, 4)}}
    right = {"R": {(1, 2)}}
    assert replay.relations_subset(left, {"R": {(1, 2), (3, 4)}}) is None
    problem = replay.relations_subset(left, right)
    assert problem is not None and "R" in problem


def test_closure_violation():
    program = parse_program("T(x, y) <- R(x, y).")
    closed = {"R": {(1, 2)}, "T": {(1, 2)}}
    open_ = {"R": {(1, 2)}, "T": set()}
    assert replay.closure_violation(program.rules, closed) is None
    assert "missing" in replay.closure_violation(program.rules, open_)


# ---------------------------------------------------------------------------
# match() against a brute-force scan
# ---------------------------------------------------------------------------
def _scan(atoms, relations, binding):
    """Reference: every row of every atom's relation, atoms in order."""
    found = [dict(binding)]
    for atom in atoms:
        extended = []
        for current in found:
            for row in relations.get(atom.pred, ()):
                if len(row) != len(atom.args):
                    continue
                out = dict(current)
                if all(
                    out.setdefault(term, value) == value
                    if isinstance(term, Variable) else term == value
                    for term, value in zip(atom.args, row)
                ):
                    extended.append(out)
        found = extended
    return found


def _bag(bindings):
    return Counter(frozenset(binding.items()) for binding in bindings)


_VALUES = st.sampled_from([0, 1, 2, None, "a"])
_VARIABLES = st.sampled_from([X, Y, Z])
_ATOMS = st.builds(
    Atom,
    st.sampled_from(["R", "S", "T"]),  # T never has rows
    st.lists(st.one_of(_VARIABLES, _VALUES), max_size=3),
)
_ROWS = st.lists(_VALUES, max_size=3).map(tuple)


@st.composite
def _searches(draw):
    """Atoms, relations and a pre-binding.  The relations hold rows of
    any arity and, in half the cases, the atoms' image under one
    planted assignment, so that most searches have answers."""
    atoms = draw(st.lists(_ATOMS, max_size=3))
    relations = draw(st.dictionaries(
        st.sampled_from(["R", "S"]), st.sets(_ROWS, max_size=12)
    ))
    planted = {var: draw(_VALUES) for var in (X, Y, Z)}
    if draw(st.booleans()):
        for atom in atoms:
            if atom.pred != "T":
                relations.setdefault(atom.pred, set()).add(
                    tuple(planted.get(term, term) for term in atom.args)
                )
    fixed = draw(st.sets(_VARIABLES, max_size=2))
    if draw(st.booleans()):
        binding = {var: planted[var] for var in fixed}
    else:
        binding = {var: draw(_VALUES) for var in fixed}
    return atoms, relations, binding


@settings(max_examples=300, deadline=None)
@given(_searches())
@example((  # one relation probed on two different sets of positions
    [Atom("R", (X, Y)), Atom("R", (Y, Z)), Atom("R", (Z, X))],
    {"R": {(0, 1), (1, 2), (2, 0), (1, 0)}},
    {},
))
def test_match_returns_exactly_the_brute_force_bindings(search):
    atoms, relations, binding = search
    expected = _bag(_scan(atoms, relations, binding))
    assert _bag(replay.match(atoms, relations, binding)) == expected
    assert replay.has_match(atoms, relations, binding) == bool(expected)
    if not binding:
        assert _bag(replay.match(atoms, relations)) == expected
