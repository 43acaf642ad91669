"""Hypothesis strategies for Datalog programs, instances and updates.

One generator for every randomized test that needs Datalog inputs.  It
draws from the corners the engines have broken on before:

* programs with constants in bodies *and* heads, repeated variables,
  0-ary heads, facts-as-rules (empty bodies), cartesian bodies, a
  body relation (``Empty``) that never receives rows and one (``U``)
  read at two arities;
* linear Datalog compiled from random regular expressions through
  :func:`repro.rpq.rpq_query` — the RPQ-as-Datalog setting;
* fixed closures: linear, nonlinear and stacked recursion;
* instances whose values include ``None`` (data, not a wildcard) and
  values no program mentions, plus *odd rows*: rows of any width for
  any predicate, so some are base-asserted IDB rows and some have the
  wrong arity, which every engine must store and never join;
* insert/retract schedules over the same fact pool, whose retractions
  also pick facts the view already holds; for the closures, a pool
  of few nodes, so that an inserted edge often extends a path on both
  sides.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.core.atoms import Atom, Fact
from repro.core.datalog import DatalogProgram, Rule
from repro.core.instance import Instance
from repro.core.parser import parse_program
from repro.core.terms import Variable
from repro.rpq import rpq_query
from repro.rpq.query import edge_predicate

VARIABLES = tuple(Variable(name) for name in "xyzw")
#: constants programs mention; None is ordinary data
CONSTANTS = (0, 1, 2, "a", None)
#: instance values: the constants plus two no program mentions
VALUES = CONSTANTS + (3, "b")
#: the nodes closure edges run between
NODES = VALUES[:5]
#: ``Empty`` appears in bodies but never receives rows; ``U`` is one
#: name at two arities
EDB = (("R", 2), ("U", 1), ("U", 2), ("Empty", 1))
IDB = (("P", 2), ("Q", 1), ("G", 1), ("B", 0))
LABELS = ("a", "b")
#: the relations an instance fills: R, both U and one edge relation per
#: label
FILLED = EDB[:3] + tuple((edge_predicate(label), 2) for label in LABELS)
PREDICATES = tuple(dict.fromkeys(pred for pred, _ in EDB + IDB + FILLED))


def rows(arity: int, values: tuple = VALUES) -> st.SearchStrategy[tuple]:
    return st.tuples(*[st.sampled_from(values)] * arity)


def atoms() -> st.SearchStrategy[Atom]:
    terms = st.sampled_from(VARIABLES + CONSTANTS)
    return st.sampled_from(EDB + IDB).flatmap(
        lambda shape: st.tuples(*[terms] * shape[1]).map(
            lambda args: Atom(shape[0], args)
        )
    )


@st.composite
def datalog_programs(draw, linear: bool = False) -> DatalogProgram:
    """1–5 safe rules over :data:`EDB` → :data:`IDB`.

    ``linear`` draws the shape CQ approximations expand: at most one
    IDB atom per body, and heads of distinct variables only.
    """
    idb = {pred for pred, _ in IDB}
    rules = []
    for _ in range(draw(st.integers(1, 5))):
        body = draw(st.lists(atoms(), max_size=3))
        if linear:
            recursive = [a for a in body if a.pred in idb]
            body = [a for a in body if a.pred not in idb] + recursive[:1]
        variables = sorted(
            {v for atom in body for v in atom.variables()},
            key=lambda v: v.name,
        )
        if linear:
            shapes = [s for s in IDB if s[1] <= len(variables)]
            pred, arity = draw(st.sampled_from(shapes))
            args = draw(st.permutations(variables))[:arity]
        else:
            pred, arity = draw(st.sampled_from(IDB))
            terms = st.sampled_from(variables + list(CONSTANTS))
            args = [draw(terms) for _ in range(arity)]
        rules.append(Rule(Atom(pred, tuple(args)), body))
    return DatalogProgram(rules)


#: random regular expressions over :data:`LABELS`
regexes = st.recursive(
    st.sampled_from(LABELS + ("ε",)),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda p: f"({p[0]} {p[1]})"),
        st.tuples(inner, inner).map(lambda p: f"({p[0]}|{p[1]})"),
        st.tuples(inner, st.sampled_from("*+?")).map(
            lambda p: f"({p[0]}){p[1]}"
        ),
    ),
    max_leaves=5,
)


def rpq_programs() -> st.SearchStrategy[DatalogProgram]:
    """Linear Datalog: the compilation of a random RPQ."""
    return regexes.map(lambda text: rpq_query(text).to_datalog().program)


#: recursive shapes random rules seldom reach: a linear closure under
#: joins that read ``U`` at both arities (communication-free strata,
#: which random rules seldom form either), a nonlinear closure (delta
#: rules seed both recursive atoms) and two stacked recursive SCCs
CLOSURES = tuple(
    parse_program(text)
    for text in (
        "P(x,y) <- R(x,y). P(x,y) <- R(x,z), P(z,y). "
        "Q(y) <- U(x), P(x,y). G(x) <- U(x,y), P(x,y).",
        "P(x,y) <- R(x,y). P(x,y) <- P(x,z), P(z,y).",
        "P(x,y) <- R(x,y). P(x,y) <- R(x,z), P(z,y). "
        "G(x) <- P(x,y), U(x). G(x) <- G(y), P(x,y).",
    )
)


def programs() -> st.SearchStrategy[DatalogProgram]:
    """Random rules, a compiled RPQ or one of the :data:`CLOSURES`."""
    return st.one_of(
        datalog_programs(), rpq_programs(), st.sampled_from(CLOSURES)
    )


#: any predicate, any width 0–3: base-asserted IDB rows, wrong arities
odd_facts = st.tuples(st.sampled_from(PREDICATES), st.integers(0, 3)).flatmap(
    lambda shape: rows(shape[1]).map(lambda args: Fact(shape[0], args))
)


def facts(
    shapes: tuple = FILLED, values: tuple = VALUES
) -> st.SearchStrategy[Fact]:
    """Rows of ``shapes`` at their own arity over ``values``."""
    return st.sampled_from(shapes).flatmap(
        lambda shape: rows(shape[1], values).map(
            lambda args: Fact(shape[0], args)
        )
    )


#: the closures' updates: mostly edges between :data:`NODES`, some
#: sources and some base-asserted rows of the recursive predicates
closure_facts = facts(
    (("R", 2), ("R", 2), ("R", 2), ("U", 1), ("P", 2), ("G", 1)), NODES
)


@st.composite
def instances(draw, odd: bool = True, nodes: tuple = VALUES) -> Instance:
    """Up to 6 rows per filled relation, ``R``'s over ``nodes``; with
    ``odd``, up to 2 odd rows."""
    instance = Instance()
    for pred, arity in FILLED:
        values = nodes if pred == "R" else VALUES
        for args in draw(st.lists(rows(arity, values), max_size=6)):
            instance.add_tuple(pred, args)
    if odd:
        instance.update(draw(st.lists(odd_facts, max_size=2)))
    return instance


@st.composite
def schedules(
    draw,
    base: Instance,
    good: st.SearchStrategy[Fact] = facts(),
    max_rounds: int = 4,
) -> list[tuple[list, list]]:
    """1 to ``max_rounds`` rounds of (inserts, retracts), each list 0–3
    facts long.

    Inserts mix ``good`` facts with :data:`odd_facts`; retractions also
    pick facts of ``base`` or of an earlier round's inserts.
    """
    pool = st.one_of(good, odd_facts)
    known = sorted(base.facts(), key=repr)
    rounds = []
    for _ in range(draw(st.integers(1, max_rounds))):
        inserts = draw(st.lists(pool, max_size=3))
        held = st.sampled_from(known) if known else pool
        retracts = draw(st.lists(st.one_of(held, pool), max_size=3))
        known = known + inserts
        rounds.append((inserts, retracts))
    return rounds
