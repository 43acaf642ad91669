"""Protocol fuzzing: no request can cost a client its reply or a session.

Requests are drawn from the op names × the request fields × malformed
values: wrong types, unknown ops, unhashable, wrong-arity and very wide
facts, and non-string ``pred`` / ``session`` / ``backend``.  Every reply
must be a dict with a boolean ``ok``, and no refusal may come from the
service's catch-all: that one answers what validation missed (a
``TypeError`` on an unhashable argument, say) as ``"<Class>: ..."``,
while every validation error is a ``ValueError``.  Afterwards the
session created first must still answer ``query`` with the replayer's
relation over its base.
"""

from __future__ import annotations

import asyncio

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.certify import replay
from repro.certify.serialize import relations_from_instance
from repro.serve import ServeService
from repro.serve.service import OPS

TC_TEXT = (
    "Reach(x,y) <- E(x,y). "
    "Reach(x,y) <- E(x,z), Reach(z,y). "
    "Goal(y) <- S(x), Reach(x,y)."
)

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.floats(allow_nan=False), st.sampled_from(["a", "b", "c", ""]),
)
#: anything JSON can carry, including the unhashable list and object
junk = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=3), inner, max_size=2),
    ),
    max_leaves=4,
)
unhashable = st.one_of(
    st.lists(scalars, max_size=2),
    st.dictionaries(st.text(max_size=3), scalars, max_size=1),
)


def pick(*options: st.SearchStrategy) -> st.SearchStrategy:
    """One of ``options``, each equally likely (repeat one to weight it)."""
    return st.sampled_from(options).flatmap(lambda option: option)


def mostly(good: st.SearchStrategy) -> st.SearchStrategy:
    """``good`` three draws in four, :data:`junk` otherwise."""
    return pick(good, good, good, junk)


nodes = st.sampled_from(["a", "b", "c", "d"])
edges = st.lists(nodes, min_size=2, max_size=2)
args = pick(
    edges, edges, edges,
    st.lists(nodes, min_size=1, max_size=1),  # a source
    st.lists(scalars, max_size=3),  # any arity
    st.integers(500, 2000).map(lambda n: list(range(n))),  # very wide
    st.tuples(nodes, unhashable).map(list),  # an unhashable argument
)
preds = st.sampled_from(["E", "E", "S", "Reach", "Goal"])
fact_lists = mostly(st.lists(
    pick(*[st.tuples(preds, args).map(list)] * 5, junk), max_size=3
))
FIELDS = {
    "program": mostly(st.sampled_from([TC_TEXT, "Goal(x <-", ""])),
    "instance": mostly(st.sampled_from(["E('a','b').", "E(("])),
    "facts": fact_lists,
    "inserts": fact_lists,
    "retracts": fact_lists,
    "pred": mostly(st.sampled_from(["Goal", "Reach", "E", "Nope"])),
    "backend": mostly(st.sampled_from(["interpreted", "columnar", "auto"])),
    "optimize": mostly(st.booleans()),
    "certify": mostly(st.booleans()),
}
#: the fields each op reads
READS = {
    "create": ("program", "instance", "facts", "backend", "optimize",
               "certify"),
    "insert": ("facts",),
    "retract": ("facts",),
    "update": ("inserts", "retracts"),
    "query": ("pred",),
}


@st.composite
def requests(draw) -> object:
    """Each field its op reads three draws in four, up to two others."""
    op = draw(st.sampled_from(OPS + ("bogus",)))
    names = [name for name in READS.get(op, ()) if draw(st.integers(0, 3))]
    names += draw(st.lists(st.sampled_from(sorted(FIELDS)), max_size=2))
    request = {
        "op": draw(mostly(st.just(op))),
        "session": draw(mostly(st.sampled_from(["s", "s", "t", ""]))),
    }
    request.update({name: draw(FIELDS[name]) for name in names})
    return draw(mostly(st.just(request)))


def _names(cls: type) -> set[str]:
    """The names of ``cls`` and of every subclass loaded so far."""
    return {cls.__name__}.union(*map(_names, cls.__subclasses__()))


def _from_a_catch_all(reply: dict) -> bool:
    """True if ``reply``'s error names an exception class outside the
    ValueError family that every validation error belongs to."""
    name = str(reply.get("error", "")).partition(": ")[0]
    return name in _names(Exception) - _names(ValueError)


def _kills_the_probe(request: object) -> bool:
    return (
        isinstance(request, dict)
        and request.get("op") == "close"
        and request.get("session") == "s"
    )


@given(st.lists(requests(), min_size=1, max_size=8))
@settings(max_examples=150, deadline=None)
def test_every_request_is_answered_and_the_session_survives(batch):
    async def drive():
        service = ServeService()
        created = await service.handle({
            "op": "create", "session": "s", "program": TC_TEXT,
            "instance": "E('a','b'). E('b','c'). S('a').",
        })
        assert created["ok"] is True
        for request in batch:
            if _kills_the_probe(request):
                continue
            reply = await service.handle(request)
            assert isinstance(reply, dict)
            assert isinstance(reply.get("ok"), bool), reply
            assert not _from_a_catch_all(reply), reply
        view = service.sessions["s"].view
        state = replay.naive_fixpoint(
            view.source_program.rules, relations_from_instance(view.base)
        )
        for pred in ("Goal", "Reach"):
            reply = await service.handle(
                {"op": "query", "session": "s", "pred": pred}
            )
            assert reply["ok"] is True
            rows = {tuple(row) for row in reply["rows"]}
            assert rows == state.get(pred, set()), pred

    asyncio.run(drive())
