"""Job model for the evidence runner.

A :class:`Job` declares one paper claim as an executable check: a
dotted reference to a function, JSON-serializable inputs, the verdict
the paper predicts, and the jobs it depends on.  Functions are referred
to by ``"module:qualname"`` string rather than by object so that worker
processes can resolve them independently and so the cache can
fingerprint the defining module without importing it.

Job functions take their ``inputs`` as keyword arguments and return a
dict with at least ``{"verdict": str}``; ``"measured"`` (a human
summary) and ``"metrics"`` (a JSON-ready dict) are optional.  Raising
is a *failure* (infrastructure/assertion broke), returning an
unexpected verdict is a *mismatch* (the claim check ran but
disagreed) — the manifest distinguishes the two.
"""

from __future__ import annotations

import enum
import importlib
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional


class JobStatus(enum.Enum):
    """Terminal state of one job in a run."""

    OK = "ok"              # ran (or cache hit), verdict == expected
    MISMATCH = "mismatch"  # ran, verdict != expected
    FAILED = "failed"      # raised after exhausting retries
    TIMEOUT = "timeout"    # killed at its wall-clock deadline
    SKIPPED = "skipped"    # a dependency did not reach OK

    @property
    def is_success(self) -> bool:
        return self is JobStatus.OK


@dataclass(frozen=True)
class Job:
    """One claim of the paper, as a schedulable unit of evidence."""

    name: str
    fn: str                      # "module:qualname"
    claim: str                   # what the paper asserts
    expected: str                # verdict the claim predicts
    description: str = ""
    inputs: Mapping[str, Any] = field(default_factory=dict)
    deps: tuple[str, ...] = ()
    tags: tuple[str, ...] = ()
    timeout: Optional[float] = None   # seconds; None -> runner default
    retries: int = 1                  # extra attempts after a crash
    # long-running: the runner starts it before the other ready jobs,
    # and the benchmarks time it for a single round
    heavy: bool = False

    def resolve(self) -> Callable[..., dict[str, Any]]:
        """Import and return the job function."""
        module_name, _, qualname = self.fn.partition(":")
        if not qualname:
            raise ValueError(
                f"job {self.name!r}: fn must be 'module:qualname', "
                f"got {self.fn!r}"
            )
        obj: Any = importlib.import_module(module_name)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        if not callable(obj):
            raise TypeError(f"job {self.name!r}: {self.fn!r} is not callable")
        return obj

    def matches(self, pattern: str) -> bool:
        """Substring filter over name and tags (comma = any-of)."""
        needles = [p.strip() for p in pattern.split(",") if p.strip()]
        if not needles:
            return True
        haystacks = (self.name, *self.tags)
        return any(
            needle in haystack
            for needle in needles
            for haystack in haystacks
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "fn": self.fn,
            "claim": self.claim,
            "expected": self.expected,
            "description": self.description,
            "inputs": dict(self.inputs),
            "deps": list(self.deps),
            "tags": list(self.tags),
            "timeout": self.timeout,
            "retries": self.retries,
        }


@dataclass
class JobResult:
    """Outcome of one job in one run."""

    name: str
    status: JobStatus
    expected: str
    verdict: Optional[str] = None     # None when never produced
    measured: str = ""                # human summary from the job fn
    metrics: dict[str, Any] = field(default_factory=dict)
    engine: dict[str, Any] = field(default_factory=dict)  # EngineStats.to_dict()
    duration: float = 0.0             # seconds of the final attempt
    attempts: int = 0
    cached: bool = False
    error: Optional[str] = None       # traceback text on FAILED
    certificate: Optional[dict[str, Any]] = None  # repro.certify certificate
    ivm: Optional[dict[str, Any]] = None  # incremental-maintenance block
    # ({"rounds", "inserted", "deleted", "rederived", ...}) from jobs
    # that drive a repro.ivm.MaterializedView, else None
    audits: Optional[dict[str, dict[str, Any]]] = None
    # audit name -> its guard's summary() under --audit, else None

    @property
    def matched(self) -> bool:
        return self.verdict == self.expected

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "status": self.status.value,
            "expected": self.expected,
            "verdict": self.verdict,
            "matched": self.matched,
            "measured": self.measured,
            "metrics": self.metrics,
            "engine": self.engine,
            "duration_s": round(self.duration, 6),
            "attempts": self.attempts,
            "cached": self.cached,
            "error": self.error,
            "certificate": self.certificate,
            "ivm": self.ivm,
            "audits": self.audits,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "JobResult":
        return cls(
            name=data["name"],
            status=JobStatus(data["status"]),
            expected=data["expected"],
            verdict=data.get("verdict"),
            measured=data.get("measured", ""),
            metrics=data.get("metrics", {}),
            engine=data.get("engine", {}),
            duration=data.get("duration_s", 0.0),
            attempts=data.get("attempts", 0),
            cached=data.get("cached", False),
            error=data.get("error"),
            certificate=data.get("certificate"),
            ivm=data.get("ivm"),
            audits=data.get("audits"),
        )
