"""The run context: one frozen configuration plus the state of one run.

A :class:`RunConfig` says how a run evaluates: which backend, whether
the certified optimizer runs first, how many shard workers a fixpoint
may use, and which audits watch the run.  :func:`running` installs it,
together with a stats collector, in one :mod:`contextvars` variable.
Everything the engine reads ambiently comes from there:

* the configuration (``fixpoint``, ``DatalogQuery.evaluate`` and
  ``MaterializedView`` fall back to it when a keyword is ``None``);
* the innermost stats collector (:mod:`repro.core.stats` pushes and
  pops collectors on the same variable);
* one audit guard per name in ``RunConfig.audits``.

A context variable follows the code that runs under it and nothing
else.  A new thread starts from an empty context, ``asyncio.to_thread``
runs its function in a copy of the caller's, and a forked worker that
installs its own run leaves its parent's untouched, so two runs in one
process never count into or audit each other.
"""

from __future__ import annotations

import contextvars
import importlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, Mapping, Optional

if TYPE_CHECKING:  # pragma: no cover - types only, avoids import cycles
    from repro.core.stats import EngineStats

#: audit name -> the guard class that checks one static analysis against
#: what the run measures, as ``module:class`` (the guards live in
#: :mod:`repro.analysis`, which imports this module)
AUDITS = {
    "cost": "repro.analysis.cost:CostGuard",
    "maintain": "repro.analysis.maintain:MaintenanceGuard",
    "shard": "repro.analysis.shard:ShardGuard",
}


class Audit:
    """The interface every guard in :data:`AUDITS` shares.

    The engine calls each guard through its own hook.  ``checks`` counts
    the items checked and ``violations`` holds one dict per unsound
    prediction; :meth:`summary` ships both, with the guard's own
    :meth:`tallies`, to the harness manifest, and
    :meth:`render_violation` turns one violation into one line of text.
    """

    def __init__(self) -> None:
        self.checks = 0
        self.violations: list[dict[str, object]] = []

    def tallies(self) -> dict[str, object]:
        return {}

    def summary(self) -> dict[str, object]:
        return {
            "checks": self.checks,
            **self.tallies(),
            "violations": list(self.violations),
        }

    @staticmethod
    def render_violation(violation: Mapping[str, Any]) -> str:
        raise NotImplementedError


def guard_class(name: str) -> type[Audit]:
    """The guard class checking audit ``name``."""
    module, _, attr = AUDITS[name].partition(":")
    cls: type[Audit] = getattr(importlib.import_module(module), attr)
    return cls


@dataclass(frozen=True)
class RunConfig:
    """How one run evaluates; validated on construction.

    ``shards`` is the worker count for large-enough fixpoints (0 or 1:
    single-process).  ``audits`` is drawn from :data:`AUDITS`.
    """

    backend: str = "columnar"
    optimize: bool = False
    shards: int = 0
    audits: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        from repro.core.backend import get_backend

        get_backend(self.backend)  # unknown names raise ValueError
        if self.shards < 0:
            raise ValueError(f"shards must be >= 0, got {self.shards}")
        audits = frozenset(self.audits)
        unknown = sorted(audits.difference(AUDITS))
        if unknown:
            raise ValueError(
                f"unknown audit(s) {', '.join(map(repr, unknown))} "
                f"(known: {', '.join(AUDITS)})"
            )
        object.__setattr__(self, "audits", audits)


class RunContext:
    """What code running under :func:`running` reads ambiently.

    ``stats`` is the innermost active collector; nesting is the chain
    of context-variable tokens, so a context is never mutated to push
    or pop one.  ``audits`` maps each installed audit name to its
    guard.
    """

    __slots__ = ("config", "stats", "audits")

    def __init__(
        self,
        config: RunConfig,
        stats: Optional["EngineStats"] = None,
        audits: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.config = config
        self.stats = stats
        self.audits: Mapping[str, Any] = audits if audits is not None else {}

    def with_stats(self, stats: Optional["EngineStats"]) -> "RunContext":
        """The same run with ``stats`` as the innermost collector."""
        return RunContext(self.config, stats, self.audits)

    def with_audit(self, name: str) -> "RunContext":
        """The same run, plus a new guard for audit ``name`` if it has none."""
        if name in self.audits:
            return self
        audits = {**self.audits, name: guard_class(name)()}
        return RunContext(self.config, self.stats, audits)

    def summaries(self) -> dict[str, dict[str, object]]:
        """``audit name -> guard summary`` for every installed audit."""
        return {name: guard.summary() for name, guard in self.audits.items()}


_CURRENT: contextvars.ContextVar[RunContext] = contextvars.ContextVar(
    "repro_run", default=RunContext(RunConfig())
)


def current() -> RunContext:
    """The run context the calling code runs under."""
    return _CURRENT.get()


@contextmanager
def installed(ctx: RunContext) -> Iterator[RunContext]:
    """Make ``ctx`` current for the block, then restore the previous."""
    token = _CURRENT.set(ctx)
    try:
        yield ctx
    finally:
        _CURRENT.reset(token)


@contextmanager
def running(
    config: RunConfig, stats: Optional["EngineStats"] = None
) -> Iterator[RunContext]:
    """Install a fresh run of ``config`` for the block.

    Fresh means new audit guards and ``stats`` (or no collector) in
    place of whatever the caller had installed.  The block receives
    the :class:`RunContext`, whose :meth:`~RunContext.summaries`
    outlive it.
    """
    audits = {name: guard_class(name)() for name in sorted(config.audits)}
    with installed(RunContext(config, stats, audits)) as ctx:
        yield ctx
