"""The maintainability analysis against the replayer.

``--audit maintain`` is only worth its exit code if the predictions of
:mod:`repro.analysis.maintain` are *sound*: no maintenance round — any
update interleaving, either backend, optimizer on or off — may move
more facts than the per-predicate delta bounds predicted, and a stratum
the analysis proves counting-safe must maintain correctly without the
DRed machinery.  Cells of the differential fuzzer
(:mod:`tests.differential`): every round is checked against the
replayer, the ``maintain`` audit and ``predict_delta``.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from tests.differential import check_schedule
from tests.generators import (
    datalog_programs,
    instances,
    programs,
    rpq_programs,
    schedules,
)

DEFAULT = [("interpreted", False)]


@given(program=datalog_programs(), base=instances(), data=st.data())
@settings(max_examples=20, deadline=None)
def test_measured_deltas_stay_within_predicted_bounds(program, base, data):
    """The ambient guard audits every round against bounds recomputed
    on the pre-round base, once per round, and flags nothing."""
    check_schedule(program, base, data.draw(schedules(base)), DEFAULT)


@given(program=programs(), base=instances(), data=st.data())
@settings(max_examples=15, deadline=None)
def test_counting_safe_strata_maintain_correctly_everywhere(
    program, base, data
):
    """Wherever the analysis proves a stratum counting-safe, every
    backend × optimizer setting maintains it by counting, correctly."""
    check_schedule(program, base, data.draw(schedules(base)))


@given(program=rpq_programs(), base=instances(), data=st.data())
@settings(max_examples=20, deadline=None)
def test_predict_delta_covers_the_measured_round(program, base, data):
    """The serve-admission entry point: the bound asked for *before* a
    round covers the facts the round moves, here on recursive strata."""
    check_schedule(program, base, data.draw(schedules(base)), DEFAULT)
