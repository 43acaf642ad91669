"""Property safety net for the maintainability analysis.

``--audit maintain`` is only worth its exit code if the predictions
in :mod:`repro.analysis.maintain` are *sound*: no maintenance round —
any update interleaving, any backend, optimizer on or off — may ever
move more facts than the per-predicate delta bounds predicted, and a
stratum the analysis proves counting-safe must maintain correctly
without the DRed machinery.  Hypothesis hunts for a program × base ×
update-schedule triple that breaks either claim, over the same
adversarial pool the cost-soundness suite uses.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.maintain import maintain_report
from repro.core.context import RunConfig, running
from repro.core.instance import Instance
from repro.ivm import MaterializedView

from tests.analysis.test_cost_soundness import (
    _CONSTS,
    edb_instances,
    programs_with_constants,
)

_BACKENDS = ("interpreted", "columnar")


@st.composite
def update_schedules(draw) -> list[tuple[list, list]]:
    """1–4 rounds, each inserting 0–3 and retracting 0–2 EDB facts
    (retractions of absent facts are legal no-ops, so the pool is
    unconstrained)."""
    pool = _CONSTS + [3, "b"]

    def fact(pred, arity):
        return (
            pred, tuple(draw(st.sampled_from(pool)) for _ in range(arity))
        )

    rounds = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        inserts = [
            fact(*draw(st.sampled_from([("R", 2), ("U", 1)])))
            for _ in range(draw(st.integers(min_value=0, max_value=3)))
        ]
        retracts = [
            fact(*draw(st.sampled_from([("R", 2), ("U", 1)])))
            for _ in range(draw(st.integers(min_value=0, max_value=2)))
        ]
        rounds.append((inserts, retracts))
    return rounds


def _context(program, base, schedule):
    return (
        f"\nprogram:\n{program!r}\nbase:\n{base.pretty()}\n"
        f"schedule: {schedule!r}"
    )


@given(
    program=programs_with_constants(),
    base=edb_instances(),
    schedule=update_schedules(),
)
@settings(max_examples=60, deadline=None)
def test_measured_deltas_stay_within_predicted_bounds(
    program, base, schedule
):
    """The deployed form of the property: the ambient guard audits
    every round against bounds recomputed on the pre-round base and
    must flag nothing."""
    view = MaterializedView(program, base.copy())
    with running(RunConfig(audits={"maintain"})) as run:
        for inserts, retracts in schedule:
            view.apply(inserts=inserts, retracts=retracts)
            assert view.state == view.recompute(), (
                "maintenance diverged from the oracle"
                + _context(program, base, schedule)
            )
    summary = run.summaries()["maintain"]
    assert summary["checks"] == len(schedule)
    assert summary["violations"] == [], (
        f"UNSOUND maintenance prediction:\n{summary['violations']}"
        + _context(program, base, schedule)
    )


@given(
    program=programs_with_constants(),
    base=edb_instances(),
    schedule=update_schedules(),
)
@settings(max_examples=25, deadline=None)
def test_counting_safe_strata_maintain_correctly_everywhere(
    program, base, schedule
):
    """Wherever the analysis proves a stratum counting-safe the view
    maintains it by counting — and the result must still equal the
    from-scratch fixpoint across backends × optimizer settings."""
    report = maintain_report(program)
    safe = {
        pred
        for stratum in report.strata
        if stratum.counting_safe
        for pred in stratum.predicates
    }
    for backend in _BACKENDS:
        for optimize in (False, True):
            view = MaterializedView(
                program, base.copy(), optimize=optimize, backend=backend
            )
            strategies = view.maintenance_strategies()
            for pred in safe:
                assert strategies.get(pred) == "counting", (
                    f"{pred} proved counting-safe but maintained by "
                    f"{strategies.get(pred)} "
                    f"[{backend}/optimize={optimize}]"
                    + _context(program, base, schedule)
                )
            for inserts, retracts in schedule:
                view.apply(inserts=inserts, retracts=retracts)
                assert view.state == view.recompute(), (
                    f"counting maintenance diverged "
                    f"[{backend}/optimize={optimize}]"
                    + _context(program, base, schedule)
                )


@given(
    program=programs_with_constants(),
    base=edb_instances(),
    schedule=update_schedules(),
)
@settings(max_examples=25, deadline=None)
def test_predict_delta_covers_the_measured_round(program, base, schedule):
    """The serve-admission entry point: the bound asked for *before*
    a round must cover the net facts the round actually moves."""
    view = MaterializedView(program, base.copy())
    for inserts, retracts in schedule:
        predicted = view.predict_delta(len(inserts) + len(retracts))
        round_ = view.apply(inserts=inserts, retracts=retracts)
        measured = sum(len(rows) for rows in round_.plus.values())
        measured += sum(len(rows) for rows in round_.minus.values())
        assert predicted is not None and measured <= predicted, (
            f"predict_delta unsound: measured {measured} > "
            f"predicted {predicted}"
            + _context(program, base, schedule)
        )
