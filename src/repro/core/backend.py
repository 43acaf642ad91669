"""Evaluation backends: pluggable engines behind ``fixpoint``.

A :class:`Backend` turns ``(program, instance, strategy)`` into the
least fixpoint ``FPEval(Π, I)``.  Two implementations ship:

* ``interpreted`` — the default engine: per-tuple backtracking
  homomorphism search with positional indexes, semi-naive deltas and
  SCC strata (:mod:`repro.core.evaluation`).
* ``columnar`` — compiles each rule body into an explicit hash-join
  plan over column arrays and pushes semi-naive deltas through it as
  column batches (:mod:`repro.core.columnar`).

Both compute exactly the same fixpoint — the engine-equivalence
property tests and, end to end, the PR-4 certificate checker
(``certify.replay`` replays every verdict with naive evaluation only)
enforce that — so backend choice is a performance decision, never a
semantics one.

Selection is by name: explicitly via ``fixpoint(backend=...)`` /
``DatalogQuery.evaluate(backend=...)``, or ambiently through the
current run's :class:`~repro.core.context.RunConfig` (the harness
worker processes and the CLI's ``--backend`` flag use this route so
call sites need no signature change).
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

    ``strategy`` is one of ``"naive"`` / ``"seminaive"`` /
    ``"stratified"`` and every backend must support all three (the
    naive strategy stays the cross-backend correctness oracle).
    ``ordering`` is the join-ordering hint of the interpreted engine;
    backends that plan joins differently may ignore it.
    """

    name: str

    def fixpoint(
        self,
        program: "DatalogProgram",
        instance: "Instance",
        *,
        strategy: str = "stratified",
        stats: Optional["EngineStats"] = None,
        ordering: str = "auto",
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
        strategy: str = "stratified",
        stats: Optional["EngineStats"] = None,
        ordering: str = "auto",
    ) -> "Instance":
        from repro.core import evaluation

        if strategy == "stratified":
            return evaluation.stratified_fixpoint(
                program, instance, stats, ordering
            )
        if strategy == "seminaive":
            return evaluation.seminaive_fixpoint(
                program, instance, stats, ordering
            )
        if strategy == "naive":
            return evaluation.naive_fixpoint(
                program, instance, stats, ordering
            )
        raise ValueError(f"unknown strategy {strategy!r}")


class ColumnarBackend:
    """Hash-join plans over column arrays; no backtracking search."""

    name = "columnar"

    def fixpoint(
        self,
        program: "DatalogProgram",
        instance: "Instance",
        *,
        strategy: str = "stratified",
        stats: Optional["EngineStats"] = None,
        ordering: str = "auto",
    ) -> "Instance":
        from repro.core.columnar import columnar_fixpoint

        return columnar_fixpoint(
            program, instance, strategy=strategy, stats=stats
        )


class AutoBackend:
    """Cost-model-driven backend choice, one decision per fixpoint.

    The static cost analysis (:mod:`repro.analysis.cost`) predicts the
    total join volume — the sum of every rule's intermediate-tuple
    bound under the instance's measured parameters.  Small volumes stay
    on the interpreted engine (per-tuple search with no plan-build
    overhead); volumes at or above ``threshold`` go columnar, where
    batch probes amortize the hash-table builds.  Every decision goes
    through :func:`choose_backend`, so a manifest can say not just
    *what* ran but *why*.
    """

    name = "auto"

    #: predicted join volume at which the columnar engine starts to win;
    #: calibrated on the BENCH_columnar goal-bound chain (volume ~15k,
    #: clearly columnar) vs the evidence suite's paper-sized instances
    #: (volumes in the tens to hundreds, clearly interpreted)
    DEFAULT_THRESHOLD = 4096

    def __init__(self, threshold: int = DEFAULT_THRESHOLD) -> None:
        self.threshold = threshold

    def fixpoint(
        self,
        program: "DatalogProgram",
        instance: "Instance",
        *,
        strategy: str = "stratified",
        stats: Optional["EngineStats"] = None,
        ordering: str = "auto",
    ) -> "Instance":
        from repro.core import stats as _stats

        with _stats.maybe_collecting(stats):
            chosen = choose_backend(program, instance, self.threshold)
        return get_backend(chosen).fixpoint(
            program,
            instance,
            strategy=strategy,
            stats=stats,
            ordering=ordering,
        )


def choose_backend(
    program: "DatalogProgram",
    instance: "Instance",
    threshold: int = AutoBackend.DEFAULT_THRESHOLD,
) -> str:
    """The ``auto`` pick for one fixpoint or maintenance round.

    ``"columnar"`` iff the predicted join volume reaches ``threshold``.
    The pick is counted into the active collector's
    ``auto_backend_*`` counters and, inside a
    :func:`~repro.core.context.running` block, appended to the run's
    ``auto_choices`` as ``{"backend", "volume", "threshold"}``.
    """
    from repro.analysis.cost import predicted_join_volume
    from repro.core import stats as _stats
    from repro.core.context import current

    with _stats.suspended():
        volume = predicted_join_volume(program, instance)
    chosen = "columnar" if volume >= threshold else "interpreted"
    run = current()
    if run.auto_choices is not None:
        run.auto_choices.append(
            {"backend": chosen, "volume": volume, "threshold": threshold}
        )
    if run.stats is not None:
        if chosen == "columnar":
            run.stats.auto_backend_columnar += 1
        else:
            run.stats.auto_backend_interpreted += 1
    return chosen


_BACKENDS: Mapping[str, Backend] = MappingProxyType({
    "interpreted": InterpretedBackend(),
    "columnar": ColumnarBackend(),
    "auto": AutoBackend(),
})


def backend_names() -> tuple[str, ...]:
    """Registered backend names, default first (CLI ``choices``)."""
    names = sorted(_BACKENDS)
    names.remove("interpreted")
    return ("interpreted", *names)


def get_backend(name: str) -> Backend:
    """The backend registered as ``name``; loud on unknown names."""
    try:
        return _BACKENDS[name]
    except KeyError:
        known = ", ".join(backend_names())
        raise ValueError(
            f"unknown backend {name!r} (known: {known})"
        ) from None
