"""The IVM correctness property, fuzzed.

For random update interleavings (inserts, retracts, mixed rounds,
churn) over random small edge sets, the maintained state must equal
the from-scratch fixpoint after *every* round — on the interpreted
and columnar backends, with and without the certified optimizer.  This is the Hypothesis twin of the per-round
``ivm_state`` certificate the service emits.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import parse_program
from repro.core.atoms import Fact
from repro.core.instance import Instance
from repro.ivm import MaterializedView

PROGRAMS = [
    # linear transitive closure + a counted stratum on top
    parse_program(
        """
        Reach(x,y) <- E(x,y).
        Reach(x,y) <- E(x,z), Reach(z,y).
        Goal(y) <- S(x), Reach(x,y).
        """
    ),
    # nonlinear closure (delta rules fire on both recursive atoms)
    parse_program(
        """
        T(x,y) <- E(x,y).
        T(x,y) <- T(x,z), T(z,y).
        """
    ),
    # two stacked SCCs: the upper one consumes the lower one's deltas
    parse_program(
        """
        A(x,y) <- E(x,y).
        A(x,y) <- E(x,z), A(z,y).
        B(x,y) <- A(x,y), S(x).
        B(x,y) <- B(x,z), A(z,y).
        """
    ),
]

_NODES = list("abcde")

_edge = st.tuples(st.sampled_from(_NODES), st.sampled_from(_NODES))
# besides EDB updates: base-asserted rows of the recursive predicates
# (a stratum recompute must seed them) and one wrong-arity E row
# (every engine must ignore it)
_fact = st.one_of(
    _edge.map(lambda e: Fact("E", e)),
    st.sampled_from(_NODES).map(lambda n: Fact("S", (n,))),
    st.tuples(st.sampled_from(["Reach", "T", "A"]), _edge).map(
        lambda pe: Fact(pe[0], pe[1])
    ),
    st.just(Fact("E", (_NODES[0],))),
)

# a round is (inserts, retracts), either possibly empty but not both
_round = st.tuples(
    st.lists(_fact, max_size=3), st.lists(_fact, max_size=3)
).filter(lambda r: r[0] or r[1])

_schedule = st.lists(_round, min_size=1, max_size=6)

_base = st.lists(_edge, max_size=6).map(
    lambda edges: Instance.from_tuples(
        {"E": edges, "S": [(_NODES[0],)]}
    )
)


@pytest.mark.parametrize(
    "backend,optimize",
    [
        ("interpreted", False),
        ("interpreted", True),
        ("columnar", False),
        ("columnar", True),
    ],
)
@given(program_index=st.integers(0, len(PROGRAMS) - 1),
       base=_base, schedule=_schedule)
@settings(max_examples=25, deadline=None)
def test_every_interleaving_matches_recompute(
    backend, optimize, program_index, base, schedule
):
    view = MaterializedView(
        PROGRAMS[program_index], base,
        optimize=optimize, backend=backend,
    )
    assert view.state == view.recompute()
    for inserts, retracts in schedule:
        view.apply(inserts=inserts, retracts=retracts)
        oracle = view.recompute()
        assert view.state == oracle, (
            f"divergence after apply(+{inserts}, -{retracts}) on "
            f"program {program_index} [{backend}, optimize={optimize}]:\n"
            f"maintained:\n{view.state.pretty()}\n"
            f"oracle:\n{oracle.pretty()}"
        )


@given(base=_base, schedule=_schedule)
@settings(max_examples=25, deadline=None)
def test_counting_counts_are_consistent_after_any_schedule(base, schedule):
    """White-box: counted facts are present iff count>0 or base-asserted."""
    view = MaterializedView(PROGRAMS[0], base)
    for inserts, retracts in schedule:
        view.apply(inserts=inserts, retracts=retracts)
    for (pred, row), count in view._counts.items():
        assert count >= 0
        present = view.state.has_tuple(pred, row)
        derivable = count > 0 or view.base.has_tuple(pred, row)
        assert present == derivable, (pred, row, count)
