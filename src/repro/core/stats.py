"""Engine instrumentation: counters for the homomorphism/fixpoint core.

An :class:`EngineStats` object aggregates the low-level work the engine
performs — homomorphism searches started, candidate rows scanned,
positional-index rebuilds, fixpoint rounds, join-plan cache traffic and
per-phase wall time.  Collection is strictly opt-in: when no collector
is active the hot paths pay (at most) one ``is None`` check.

Two ways to collect:

* pass ``stats=EngineStats()`` explicitly to :func:`repro.core.evaluation.fixpoint`
  or :func:`repro.core.homomorphism.homomorphisms`; or
* activate a collector ambiently with :func:`collecting` — everything the
  engine does inside the ``with`` block, in the calling thread or
  ``asyncio`` task, is attributed to it.  The CLI's ``--stats`` flag and
  the benchmark harness use this route.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, fields
from typing import Iterator, Optional

from repro.core import context as _context

#: Integer counter fields that :meth:`EngineStats.merge` sums.  Every
#: dataclass field must either appear here or be special-cased in
#: ``merge()``/``to_dict()``/``from_dict()`` — ``merge`` raises
#: ``TypeError`` otherwise, so adding a new counter without wiring its
#: merge strategy fails loudly instead of silently dropping data when
#: worker-process stats are folded back into the parent.
_SUMMED_FIELDS = frozenset({
    "hom_calls",
    "search_steps",
    "rows_scanned",
    "index_rebuilds",
    "index_incremental",
    "fixpoint_rounds",
    "facts_derived",
    "plan_cache_hits",
    "plan_cache_misses",
    "optimize_fallbacks",
    "join_build_rows",
    "join_probe_rows",
    "join_output_rows",
    "columnar_batches",
    "ivm_inserted",
    "ivm_deleted",
    "ivm_rederived",
    "ivm_rounds",
    "maintain_counting_strata",
    "maintain_dred_strata",
    "maintain_skipped_rederive",
    "shard_workers",
    "shard_exchanged_rows",
    "shard_local_rounds",
})


@dataclass
class EngineStats:
    """Counters for one measured region of engine work.

    All counters are cumulative totals for the region during which the
    object was active (a benchmark run may accumulate several rounds).
    """

    hom_calls: int = 0            # homomorphism searches started
    search_steps: int = 0         # backtracking frames pushed
    rows_scanned: int = 0         # candidate rows examined by _search
    index_rebuilds: int = 0       # full positional-index (re)builds
    index_incremental: int = 0    # rows added to a live index in place
    fixpoint_rounds: int = 0      # naive/semi-naive iterations
    facts_derived: int = 0        # new facts added by fixpoint rounds
    plan_cache_hits: int = 0      # join plans reused across rounds
    plan_cache_misses: int = 0    # join plans resolved fresh
    optimize_fallbacks: int = 0   # optimized evaluate() retreats taken
    join_build_rows: int = 0      # rows hashed into build tables (columnar)
    join_probe_rows: int = 0      # batch rows probed against tables (columnar)
    join_output_rows: int = 0     # join matches materialized (columnar)
    columnar_batches: int = 0     # delta batches pushed through plans
    ivm_inserted: int = 0         # facts added by maintenance rounds
    ivm_deleted: int = 0          # facts removed by maintenance rounds
    ivm_rederived: int = 0        # old facts a stratum recompute derived again
    ivm_rounds: int = 0           # incremental maintenance rounds run
    maintain_counting_strata: int = 0  # strata maintained by counting
    maintain_dred_strata: int = 0      # non-counting strata a round touched
    maintain_skipped_rederive: int = 0  # of those, insert-only: no recompute
    shard_workers: int = 0        # worker processes spawned by sharded runs
    shard_exchanged_rows: int = 0  # delta rows re-shuffled between rounds
    shard_local_rounds: int = 0   # per-worker fixpoint rounds (rebased)
    phase_seconds: dict[str, float] = field(default_factory=dict)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Accumulate wall time under ``phase_seconds[name]``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.phase_seconds[name] = (
                self.phase_seconds.get(name, 0.0) + elapsed
            )

    def merge(
        self, other: "EngineStats", *, allow_unknown: bool = False
    ) -> None:
        """Add ``other``'s counters into this object.

        Field-driven so it can never silently skip a counter: a field
        that is neither in ``_SUMMED_FIELDS`` nor handled explicitly
        raises ``TypeError``.  This is what lets worker processes ship
        their stats home as dicts and have the parent fold them in
        without losing anything.

        ``allow_unknown=True`` skips unhandled fields instead — for
        report tooling folding in stats from a newer schema, where
        "render what we understand" beats failing mid-report.
        """
        for f in fields(self):
            if f.name in _SUMMED_FIELDS:
                setattr(
                    self,
                    f.name,
                    getattr(self, f.name) + getattr(other, f.name, 0),
                )
            elif f.name == "phase_seconds":
                for name, secs in other.phase_seconds.items():
                    self.phase_seconds[name] = (
                        self.phase_seconds.get(name, 0.0) + secs
                    )
            elif not allow_unknown:
                raise TypeError(
                    f"EngineStats.merge: no merge strategy for field "
                    f"{f.name!r}; add it to _SUMMED_FIELDS or handle it "
                    f"explicitly in merge()/to_dict()/from_dict()"
                )

    def to_dict(self) -> dict:
        """JSON-ready snapshot; the inverse of :meth:`from_dict`.

        Field-driven, so a newly added counter shows up here (and
        round-trips through worker processes) automatically.
        """
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = dict(value) if isinstance(value, dict) else value
        return out

    # historical name, kept for benchmark extra_info consumers
    as_dict = to_dict

    @classmethod
    def from_dict(
        cls, data: dict, *, allow_unknown: bool = False
    ) -> "EngineStats":
        """Rebuild a collector from :meth:`to_dict` output.

        Strict by default: a key this version doesn't know raises
        ``ValueError`` naming the offenders, so a worker or manifest
        produced by a *newer* schema fails loudly instead of silently
        dropping its counters mid-run.  Report tooling that prefers
        "load what we understand" passes ``allow_unknown=True`` to
        ignore the extras.  Missing keys keep their defaults either way.
        """
        known = {f.name for f in fields(cls)}
        if not allow_unknown:
            unknown = sorted(set(data) - known)
            if unknown:
                raise ValueError(
                    f"EngineStats.from_dict: unknown counter(s) "
                    f"{', '.join(map(repr, unknown))}; produced by a newer "
                    f"schema? Pass allow_unknown=True to ignore them."
                )
        kwargs = {
            name: (dict(value) if isinstance(value, dict) else value)
            for name, value in data.items()
            if name in known
        }
        return cls(**kwargs)

    def render(self) -> str:
        """Human-readable table (the CLI's ``--stats`` output)."""
        rows = [
            ("homomorphism calls", self.hom_calls),
            ("search steps", self.search_steps),
            ("rows scanned", self.rows_scanned),
            ("index rebuilds", self.index_rebuilds),
            ("index rows added in place", self.index_incremental),
            ("fixpoint rounds", self.fixpoint_rounds),
            ("facts derived", self.facts_derived),
            ("join-plan cache hits", self.plan_cache_hits),
            ("join-plan cache misses", self.plan_cache_misses),
            ("optimize fallbacks", self.optimize_fallbacks),
            ("join build rows", self.join_build_rows),
            ("join probe rows", self.join_probe_rows),
            ("join output rows", self.join_output_rows),
            ("columnar batches", self.columnar_batches),
            ("ivm facts inserted", self.ivm_inserted),
            ("ivm facts deleted", self.ivm_deleted),
            ("ivm facts rederived", self.ivm_rederived),
            ("ivm maintenance rounds", self.ivm_rounds),
            ("maintain: counting strata", self.maintain_counting_strata),
            ("maintain: dred strata", self.maintain_dred_strata),
            ("maintain: skipped rederive", self.maintain_skipped_rederive),
            ("shard workers spawned", self.shard_workers),
            ("shard rows exchanged", self.shard_exchanged_rows),
            ("shard local rounds", self.shard_local_rounds),
        ]
        lines = ["engine stats:"]
        for label, value in rows:
            lines.append(f"  {label:<26} {value}")
        for name, secs in sorted(self.phase_seconds.items()):
            lines.append(f"  phase {name:<20} {secs * 1000:.2f} ms")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# ambient collector: the innermost one of the current run context
# (:mod:`repro.core.context`), so collections nest cleanly and stay
# private to the thread or task that opened them
# ---------------------------------------------------------------------------
def active() -> Optional[EngineStats]:
    """The innermost active collector, or None."""
    return _context.current().stats


@contextmanager
def collecting(stats: Optional[EngineStats] = None) -> Iterator[EngineStats]:
    """Activate ``stats`` (a fresh object if None) for the block."""
    if stats is None:
        stats = EngineStats()
    with _context.installed(_context.current().with_stats(stats)):
        yield stats


@contextmanager
def suspended() -> Iterator[EngineStats]:
    """Shadow the active collector with a throwaway one for the block.

    Analysis-side homomorphism work — rule subsumption inside the
    optimizer, most prominently — must not pollute the *evaluation*
    counters a caller is collecting, or before/after engine comparisons
    measure the analysis instead of the plan it produced.  The scratch
    collector still nests cleanly and is yielded for callers that want
    to inspect the suppressed counts.
    """
    with collecting(EngineStats()) as scratch:
        yield scratch


def maybe_collecting(stats: Optional[EngineStats]):
    """``collecting(stats)`` when given a collector, else a no-op context.

    Lets engine entry points accept an optional ``stats`` argument
    without duplicating both code paths.
    """
    if stats is None:
        return nullcontext()
    return collecting(stats)
