"""The IVM correctness property, fuzzed against the replayer.

For random insert/retract interleavings over the closures — linear,
nonlinear and stacked recursion, with base-asserted IDB rows and
wrong-arity rows among the updates — the maintained state must equal
the replayer's from-scratch fixpoint after *every* round, on the
interpreted and columnar backends, with and without the certified
optimizer.  Edges run between a few nodes, so an inserted edge often
extends a path on both sides.  This is the Hypothesis twin of the
per-round ``ivm_state`` certificate the service emits; the cell is
:func:`tests.differential.check_schedule`, which
``analysis/test_maintain_soundness.py`` also runs on random programs.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.differential import ENGINES, check_schedule
from tests.generators import (
    CLOSURES,
    NODES,
    closure_facts,
    instances,
    schedules,
)

closures = st.sampled_from(CLOSURES)
bases = instances(nodes=NODES)


def updates(base):
    """Up to six rounds over the closures' fact pool."""
    return schedules(base, closure_facts, max_rounds=6)


@pytest.mark.parametrize("backend,optimize", ENGINES)
@given(program=closures, base=bases, data=st.data())
@settings(max_examples=50, deadline=None)
def test_every_interleaving_matches_recompute(
    backend, optimize, program, base, data
):
    schedule = data.draw(updates(base))
    check_schedule(program, base, schedule, [(backend, optimize)])


@given(program=closures, base=bases, data=st.data())
@settings(max_examples=20, deadline=None)
def test_counting_counts_are_consistent_after_any_schedule(
    program, base, data
):
    """White-box: counted facts are present iff count>0 or base-asserted
    (the check runs after every round)."""
    check_schedule(program, base, data.draw(updates(base)))
