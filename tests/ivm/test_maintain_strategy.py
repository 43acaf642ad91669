"""Analysis-driven maintenance strategy selection.

The static plan from :mod:`repro.analysis.maintain` decides, per
stratum, whether :class:`MaterializedView` maintains by counting or by
DRed; insert-only rounds into DRed strata must skip the overdelete
machinery entirely.  These tests pin the strategy override, the new
``maintain_*`` stats counters, the insert-only fast path (including
the already-derived-fact regression) and the certificate's
maintainability claims.
"""

from __future__ import annotations

from repro.core import parse_instance, parse_program
from repro.core.stats import EngineStats
from repro.ivm import MaterializedView

REACH = parse_program(
    """
    Reach(x,y) <- E(x,y).
    Reach(x,y) <- E(x,z), Reach(z,y).
    """
)

MIXED = parse_program(
    """
    Reach(x,y) <- E(x,y).
    Reach(x,y) <- E(x,z), Reach(z,y).
    Direct(x,y) <- E(x,y).
    Direct(x,y) <- E(x,y), Direct(x,y).
    """
)


def _chain(*pairs):
    return parse_instance(" ".join(f"E('{a}','{b}')." for a, b in pairs))


# ---------------------------------------------------------------------------
# strategy selection
# ---------------------------------------------------------------------------
def test_counting_safe_recursive_stratum_switches_to_counting():
    view = MaterializedView(MIXED, _chain(("a", "b"), ("b", "c")))
    strategies = view.maintenance_strategies()
    assert strategies == {"Direct": "counting", "Reach": "dred"}
    plan = view.maintenance_plan()
    assert plan is not None
    assert plan.plan_of("Direct").counting_safe


def test_counting_maintained_stratum_survives_retractions():
    """Counting on the vacuous-recursive stratum must seed and maintain
    with the same effective rule set — retraction is the case that
    would go negative if the two disagreed."""
    view = MaterializedView(
        MIXED, _chain(("a", "b"), ("b", "c"), ("a", "c"))
    )
    stats = EngineStats()
    view.apply(retracts=[("E", ("a", "c"))], stats=stats)
    assert view.state == view.recompute()
    assert view.query("Direct") == frozenset({("a", "b"), ("b", "c")})
    assert stats.maintain_counting_strata >= 1
    view.apply(inserts=[("E", ("a", "c"))], stats=stats)
    assert view.state == view.recompute()


def test_strategy_counters_accumulate_per_round():
    view = MaterializedView(MIXED, _chain(("a", "b")))
    stats = EngineStats()
    view.apply(inserts=[("E", ("b", "c"))], stats=stats)
    view.apply(retracts=[("E", ("b", "c"))], stats=stats)
    assert stats.maintain_counting_strata >= 2   # Direct, both rounds
    assert stats.maintain_dred_strata >= 2       # Reach, both rounds
    rendered = stats.render()
    assert "maintain: counting strata" in rendered


# ---------------------------------------------------------------------------
# insert-only fast path (the DRed skip)
# ---------------------------------------------------------------------------
def test_insert_only_round_skips_rederivation_machinery():
    view = MaterializedView(REACH, _chain(("a", "b"), ("b", "c")))
    stats = EngineStats()
    report = view.apply(inserts=[("E", ("c", "d"))], stats=stats)
    assert view.state == view.recompute()
    assert report.deleted == 0
    assert report.rederived == 0
    assert stats.ivm_deleted == 0
    assert stats.ivm_rederived == 0
    assert stats.maintain_skipped_rederive == 1


def test_mixed_round_still_runs_the_deletion_phase():
    view = MaterializedView(REACH, _chain(("a", "b"), ("b", "c")))
    stats = EngineStats()
    view.apply(
        inserts=[("E", ("c", "d"))],
        retracts=[("E", ("a", "b"))],
        stats=stats,
    )
    assert view.state == view.recompute()
    assert stats.maintain_skipped_rederive == 0
    assert stats.maintain_dred_strata == 1


def test_reinserting_an_already_derived_fact_is_cheap_and_correct():
    """Regression: adding a base fact that is already derived must not
    cascade through the insert frontier — the state is closed under
    the rules, so its consequences are all present."""
    view = MaterializedView(REACH, _chain(("a", "b"), ("b", "c")))
    # Reach('a','c') is derived; assert it into the base
    stats = EngineStats()
    report = view.apply(inserts=[("Reach", ("a", "c"))], stats=stats)
    assert view.state == view.recompute()
    assert report.inserted == 0 and report.deleted == 0
    assert stats.ivm_rederived == 0
    # and retracting the base assertion keeps the derivation alive
    view.apply(retracts=[("Reach", ("a", "c"))])
    assert view.state == view.recompute()
    assert view.query("Reach") == frozenset(
        {("a", "b"), ("b", "c"), ("a", "c")}
    )


# ---------------------------------------------------------------------------
# prediction + certificate surfaces
# ---------------------------------------------------------------------------
def test_predict_delta_bounds_a_real_round():
    view = MaterializedView(REACH, _chain(("a", "b"), ("b", "c")))
    predicted = view.predict_delta(1)
    assert isinstance(predicted, int) and predicted > 0
    round_ = view.insert([("E", ("c", "d"))])
    measured = sum(len(rows) for rows in round_.plus.values())
    measured += sum(len(rows) for rows in round_.minus.values())
    assert measured <= predicted


def test_predict_delta_covers_a_program_without_base_predicates():
    """A round's base facts move even when the program reads none of
    them (the fuzzer's shrunk case: one fact-rule, three inserts)."""
    view = MaterializedView(parse_program("Q(0)."))
    predicted = view.predict_delta(3)
    round_ = view.insert([("U", (0,)), ("U", (1,)), ("R", (0, 0))])
    assert sum(len(rows) for rows in round_.plus.values()) == 3
    assert predicted is not None and predicted >= 3


def test_certificate_carries_maintainability_claims():
    from repro.certify import check_certificate

    view = MaterializedView(MIXED, _chain(("a", "b")))
    view.insert([("E", ("b", "c"))])
    cert = view.certificate()
    claim = cert["claims"][0]
    assert claim["maintain"]["strategies"] == {
        "Direct": "counting", "Reach": "dred",
    }
    assert claim["maintain"]["counting_safe"] == ["Direct"]
    outcome = check_certificate(cert)
    assert outcome.valid, outcome.failures


def test_tampered_maintainability_claim_fails_the_checker():
    from repro.certify import check_certificate

    view = MaterializedView(MIXED, _chain(("a", "b")))
    cert = view.certificate()
    cert["claims"][0]["maintain"]["strategies"]["Reach"] = "counting"
    outcome = check_certificate(cert)
    assert not outcome.valid
    assert any("maintain" in f for f in outcome.failures)
