"""Shared helpers for the benchmark harness.

Every benchmark prints the paper's claim next to what we measure, so
``pytest benchmarks/ --benchmark-only -s`` regenerates the rows of
Table 1, Table 2 and the figure constructions (see DESIGN.md §3 and
EXPERIMENTS.md for the recorded outcomes).

Benchmarks that request the :func:`engine_stats` fixture additionally
record the engine's low-level counters (homomorphism calls, rows
scanned, index rebuilds, fixpoint rounds, join-plan cache traffic,
phase wall times) into the benchmark's ``extra_info``, so a run with
``--benchmark-json=BENCH_tables.json`` emits them under
``benchmarks[*].extra_info.engine``.
"""

from __future__ import annotations

import pytest

from repro.core import stats as _stats
from repro.harness.registry import default_registry

#: the evidence-job registry the benchmarks wrap (`repro.harness`)
REGISTRY = default_registry()


def report(experiment: str, claim: str, measured: str) -> None:
    """Uniform claim-vs-measured console row."""
    print(f"\n[{experiment}]")
    print(f"  paper   : {claim}")
    print(f"  measured: {measured}")


def run_evidence_job(benchmark, name: str, **overrides) -> dict:
    """Benchmark a registered evidence job and gate on its verdict.

    The benchmarks are thin timed wrappers over the same functions
    ``python -m repro evidence run`` executes: the job is looked up in
    the registry, its inputs (plus per-test ``overrides``) are applied,
    and the measured verdict must equal the registry's expectation.
    Jobs flagged ``heavy`` run a single pedantic round.
    """
    job = REGISTRY.get(name)
    fn = job.resolve()
    inputs = {**job.inputs, **overrides}

    def invoke():
        return fn(**inputs)

    if job.heavy:
        result = benchmark.pedantic(invoke, rounds=1, iterations=1)
    else:
        result = benchmark(invoke)
    assert result["verdict"] == job.expected, (
        f"{name}: expected verdict {job.expected!r}, measured "
        f"{result['verdict']!r} — {result['measured']}"
    )
    label = name if not overrides else f"{name} {overrides}"
    report(label, job.claim, result["measured"])
    benchmark.extra_info["evidence"] = {
        "job": name,
        "verdict": result["verdict"],
        "metrics": result["metrics"],
    }
    return result


@pytest.fixture
def engine_stats(benchmark):
    """Collect engine counters for the whole test into the bench JSON.

    Counters are cumulative over every benchmark round the test runs
    (pytest-benchmark calibrates with many rounds), so they measure
    *shape* (what the engine did), not per-call cost — the timing
    columns measure cost.
    """
    with _stats.collecting() as stats:
        yield stats
    benchmark.extra_info["engine"] = stats.as_dict()
