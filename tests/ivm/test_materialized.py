"""Unit behaviour of :class:`repro.ivm.MaterializedView`.

The equivalence property (any interleaving ≡ from-scratch fixpoint)
lives in ``test_ivm_equivalence.py``; these tests pin the *mechanism*:
counting on non-recursive strata, semi-naive inserts and a columnar
stratum recompute on retraction for recursive SCCs, base-asserted
facts, net-delta cancellation, the stats counters and the round
reports.
"""

from __future__ import annotations

import pytest

from repro.core import parse_instance, parse_program
from repro.core.atoms import Fact
from repro.core.stats import EngineStats
from repro.ivm import MaintenanceRound, MaterializedView

TC = parse_program(
    """
    Reach(x,y) <- E(x,y).
    Reach(x,y) <- E(x,z), Reach(z,y).
    Goal(y) <- S(x), Reach(x,y).
    """
)


def _chain(*edges):
    return parse_instance(
        " ".join(f"E('{a}','{b}')." for a, b in edges) + " S('a')."
    )


def test_initial_state_is_the_fixpoint():
    view = MaterializedView(TC, _chain(("a", "b"), ("b", "c")))
    assert view.query("Reach") == frozenset(
        {("a", "b"), ("b", "c"), ("a", "c")}
    )
    assert view.query("Goal") == frozenset({("b",), ("c",)})
    assert view.rounds == 0


def test_insert_extends_closure_without_refixpoint():
    view = MaterializedView(TC, _chain(("a", "b")))
    report = view.insert([Fact("E", ("b", "c"))])
    assert isinstance(report, MaintenanceRound)
    assert report.index == 1
    assert view.query("Reach") == frozenset(
        {("a", "b"), ("b", "c"), ("a", "c")}
    )
    assert view.state == view.recompute()
    # inserted counts base + derived facts, nothing deleted
    assert report.inserted >= 3 and report.deleted == 0


def test_retract_overdeletes_then_rederives():
    # two paths a->c; cutting one must keep Reach(a,c) via rederivation
    view = MaterializedView(
        TC, _chain(("a", "b"), ("b", "c"), ("a", "c"))
    )
    report = view.retract([Fact("E", ("a", "c"))])
    assert ("a", "c") in view.query("Reach")  # still via b
    assert view.state == view.recompute()
    assert report.rederived >= 1


def test_retracting_round_recomputes_the_stratum_on_columnar():
    """Whatever the view's backend, a round retracting into a recursive
    stratum recomputes it on the columnar engine; ``rederived`` counts
    the old facts the recompute derived again, |old ∩ new|."""
    view = MaterializedView(
        TC, _chain(("a", "b"), ("b", "c"), ("c", "d"), ("a", "c")),
        backend="interpreted",
    )
    old = view.query("Reach")
    stats = EngineStats()
    report = view.apply(retracts=[Fact("E", ("c", "d"))], stats=stats)
    assert stats.columnar_batches > 0
    assert stats.maintain_skipped_rederive == 0
    new = view.query("Reach")
    assert report.rederived == len(old & new)
    assert report.minus["Reach"] == old - new
    assert view.state == view.recompute()


def test_insert_only_round_propagates_without_columnar_work():
    view = MaterializedView(
        TC, _chain(("a", "b")), backend="interpreted"
    )
    stats = EngineStats()
    report = view.apply(inserts=[Fact("E", ("b", "c"))], stats=stats)
    assert stats.columnar_batches == 0
    assert stats.maintain_skipped_rederive == 1
    assert report.rederived == 0
    assert view.state == view.recompute()


@pytest.mark.parametrize("backend", ["interpreted", "columnar"])
def test_mixed_round_into_stacked_recursive_strata(backend):
    """B reads A: A's recompute settles before B's, and B recomputes
    from it together with B's own base-asserted rows."""
    program = parse_program(
        """
        A(x,y) <- E(x,y).
        A(x,y) <- E(x,z), A(z,y).
        B(x,y) <- A(x,y), S(x).
        B(x,y) <- B(x,z), A(z,y).
        """
    )
    base = parse_instance(
        "E('a','b'). E('b','c'). E('c','d'). S('a'). B('q','a')."
    )
    view = MaterializedView(program, base, backend=backend)
    view.apply(
        inserts=[Fact("E", ("d", "e")), Fact("B", ("r", "b"))],
        retracts=[Fact("E", ("b", "c")), Fact("B", ("q", "a"))],
    )
    assert view.state == view.recompute()
    assert ("r", "e") not in view.query("B")
    view.apply(
        inserts=[Fact("E", ("b", "c"))], retracts=[Fact("S", ("a",))]
    )
    assert view.state == view.recompute()
    assert ("r", "e") in view.query("B")


def test_retracting_derived_only_fact_is_a_noop():
    view = MaterializedView(TC, _chain(("a", "b"), ("b", "c")))
    before = view.state.copy()
    report = view.retract([Fact("Reach", ("a", "c"))])  # derived, not base
    assert view.state == before
    assert report.deleted == 0


def test_base_asserted_idb_fact_survives_losing_its_derivation():
    base = _chain(("a", "b"))
    base.add(Fact("Reach", ("q", "r")))  # asserted, never derivable
    view = MaterializedView(TC, base)
    view.retract([Fact("E", ("a", "b"))])
    assert ("q", "r") in view.query("Reach")
    assert view.state == view.recompute()


def test_same_round_retract_and_reinsert_cancels():
    view = MaterializedView(TC, _chain(("a", "b"), ("b", "c")))
    before = view.state.copy()
    report = view.apply(
        inserts=[Fact("E", ("a", "b"))], retracts=[Fact("E", ("a", "b"))]
    )
    # retracts apply before inserts: the edge nets out present
    assert view.state == before
    assert view.state == view.recompute()
    assert report.index == 1


def test_counting_keeps_multiply_derived_goal_alive():
    # Goal(c) holds via S(a) and via S(b); dropping S(a) must keep it
    base = parse_instance(
        "E('a','c'). E('b','c'). S('a'). S('b')."
    )
    view = MaterializedView(TC, base)
    view.retract([Fact("S", ("a",))])
    assert ("c",) in view.query("Goal")
    view.retract([Fact("S", ("b",))])
    assert ("c",) not in view.query("Goal")
    assert view.state == view.recompute()


def test_stats_counters_accumulate():
    stats = EngineStats()
    view = MaterializedView(TC, _chain(("a", "b")))
    view.apply(inserts=[Fact("E", ("b", "c"))], stats=stats)
    view.apply(retracts=[Fact("E", ("a", "b"))], stats=stats)
    assert stats.ivm_rounds == 2
    assert stats.ivm_inserted > 0
    assert stats.ivm_deleted > 0


def test_round_report_as_dict_shape():
    view = MaterializedView(TC, _chain(("a", "b")))
    report = view.insert([Fact("E", ("b", "c"))])
    payload = report.as_dict()
    assert set(payload) == {
        "round", "backend", "inserted", "deleted", "rederived"
    }
    assert payload["round"] == 1


def test_facts_accepted_as_pairs_and_atoms():
    view = MaterializedView(TC, _chain(("a", "b")))
    view.insert([("E", ("b", "c")), Fact("E", ("c", "d"))])
    assert ("a", "d") in view.query("Reach")
    assert view.state == view.recompute()


def test_non_ground_fact_rejected():
    from repro.core import parse_rule

    view = MaterializedView(TC, _chain(("a", "b")))
    open_atom = parse_rule("Goal(y) <- E(x,y).").body[0]
    with pytest.raises(ValueError):
        view.insert([open_atom])


@pytest.mark.parametrize("backend", ["interpreted", "columnar"])
def test_backends_agree_on_a_mixed_schedule(backend):
    view = MaterializedView(
        TC, _chain(("a", "b"), ("b", "c")), backend=backend
    )
    view.insert([Fact("E", ("c", "d")), Fact("E", ("d", "a"))])
    view.retract([Fact("E", ("b", "c"))])
    view.insert([Fact("E", ("b", "c"))])
    assert view.state == view.recompute()


def test_optimized_view_still_certifies_source_program():
    view = MaterializedView(
        TC, _chain(("a", "b"), ("b", "c")), optimize=True
    )
    view.insert([Fact("E", ("c", "d"))])
    cert = view.certificate()
    from repro.certify import check_certificate

    result = check_certificate(cert)
    assert result.valid, result.failures
    assert cert["meta"]["rounds"] == 1


@pytest.mark.parametrize("backend", ["interpreted", "columnar"])
def test_insert_propagation_survives_rules_reading_what_they_derive(backend):
    """Regression: interpreted insert propagation grew the state while a
    delta join was still reading it ("Set changed size during
    iteration"), here through ``P(y,y)`` feeding ``P(x,y)``."""
    program = parse_program(
        """
        P(x,x) <- U(x).
        P(x,y) <- U(x), U(x), P(y,y).
        P(x,x) <- R(x,x).
        """
    )
    view = MaterializedView(
        program, parse_instance("U(0)."), backend=backend
    )
    view.insert([("U", (1,))])
    assert view.state == view.recompute()
    view.apply(inserts=[("U", (2,))], retracts=[("U", (0,))])
    assert view.state == view.recompute()
