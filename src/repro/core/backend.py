"""Evaluation backends: pluggable engines behind ``fixpoint``.

A :class:`Backend` turns ``(program, instance)`` into the least
fixpoint ``FPEval(Π, I)``.  Two implementations ship, each with one
fixpoint path: SCC-stratified semi-naive evaluation.

* ``interpreted`` — the default engine: per-tuple backtracking
  homomorphism search with positional indexes, semi-naive deltas and
  SCC strata (:mod:`repro.core.evaluation`).  Each search step joins
  the atom with the fewest candidate rows next.
* ``columnar`` — compiles each rule body into an explicit hash-join
  plan over column arrays and pushes semi-naive deltas through it as
  column batches (:mod:`repro.core.columnar`).  A plan joins connected
  atoms smallest relation first, sized when it compiles.

Both compute exactly the same fixpoint — the differential fuzzer
(``tests/core/test_evaluation_fuzz.py``) checks each against the
independent naive replayer ``certify.replay``, and the certificate
checker replays every verdict with that replayer end to end — so
backend choice is a performance decision, never a semantics one.

Selection is by name: explicitly via ``fixpoint(backend=...)`` /
``DatalogQuery.evaluate(backend=...)``, or ambiently through the
current run's :class:`~repro.core.context.RunConfig` (the harness
worker processes and the CLI's ``--backend`` flag use this route so
call sites need no signature change).  Nothing picks an engine per
fixpoint: the run's backend is the engine every fixpoint uses.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, Optional, Protocol

if TYPE_CHECKING:  # pragma: no cover - types only, avoids import cycles
    from repro.core.datalog import DatalogProgram
    from repro.core.instance import Instance
    from repro.core.stats import EngineStats


class Backend(Protocol):
    """One evaluation engine behind :func:`repro.core.evaluation.fixpoint`.

    Each engine orders joins itself, at runtime.
    """

    name: str

    def fixpoint(
        self,
        program: "DatalogProgram",
        instance: "Instance",
        *,
        stats: Optional["EngineStats"] = None,
    ) -> "Instance":
        """``FPEval(Π, I)`` including the original EDB facts."""
        ...  # pragma: no cover - protocol


class InterpretedBackend:
    """The per-tuple backtracking engine (the historical default)."""

    name = "interpreted"

    def fixpoint(
        self,
        program: "DatalogProgram",
        instance: "Instance",
        *,
        stats: Optional["EngineStats"] = None,
    ) -> "Instance":
        from repro.core.evaluation import stratified_fixpoint

        return stratified_fixpoint(program, instance, stats)


class ColumnarBackend:
    """Hash-join plans over column arrays; no backtracking search."""

    name = "columnar"

    def fixpoint(
        self,
        program: "DatalogProgram",
        instance: "Instance",
        *,
        stats: Optional["EngineStats"] = None,
    ) -> "Instance":
        from repro.core.columnar import columnar_fixpoint

        return columnar_fixpoint(program, instance, stats=stats)


_BACKENDS: Mapping[str, Backend] = MappingProxyType({
    "interpreted": InterpretedBackend(),
    "columnar": ColumnarBackend(),
})


def backend_names() -> tuple[str, ...]:
    """Registered backend names, default first (CLI ``choices``)."""
    return tuple(_BACKENDS)


def get_backend(name: str) -> Backend:
    """The backend registered as ``name``; loud on unknown names."""
    try:
        return _BACKENDS[name]
    except KeyError:
        known = ", ".join(backend_names())
        raise ValueError(
            f"unknown backend {name!r} (known: {known})"
        ) from None
