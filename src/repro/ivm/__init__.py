"""Incremental view maintenance for Datalog materializations.

A :class:`MaterializedView` keeps ``FPEval(Π, I)`` warm while the base
instance ``I`` changes: :meth:`~MaterializedView.insert` and
:meth:`~MaterializedView.retract` update the materialization with
delta-driven maintenance instead of re-running the fixpoint: counting
for non-recursive strata; for recursive SCCs, semi-naive propagation
of insertions and a columnar recompute of the stratum on any round
that retracts something it reads.  The long-lived service in
:mod:`repro.serve` builds one of these per session.
"""

from repro.ivm.materialized import MaintenanceRound, MaterializedView

__all__ = ["MaintenanceRound", "MaterializedView"]
