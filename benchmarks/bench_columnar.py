"""COL — the columnar hash-join backend vs the interpreted engine.

``pytest benchmarks/bench_columnar.py --benchmark-only -s
--benchmark-json=BENCH_columnar.json`` records, per benchmark, the
engine counters of the interpreted baseline next to the columnar run
in ``extra_info.columnar`` — the committed ``BENCH_columnar.json`` is
the evidence that compiling rule bodies to hash-join plans eliminates
the per-tuple backtracking search (``hom_calls``/``search_steps``/
``rows_scanned`` → 0) and replaces thousands of per-tuple dispatches
with a few hundred column batches, rather than merely relabeling the
same work.
"""

from __future__ import annotations

import time

import pytest

from repro.core.context import RunConfig, running
from repro.core.datalog import DatalogQuery
from repro.core.evaluation import fixpoint, goal_directed_program
from repro.core.parser import parse_instance, parse_program
from repro.core.stats import EngineStats

from benchmarks.conftest import REGISTRY, report

REACH = parse_program(
    """
    Reach(x,y) <- E(x,y).
    Reach(x,y) <- E(x,z), Reach(z,y).
    Goal(y) <- S(x), Reach(x,y).
    """
)

#: the interpreted engine's per-tuple search counters; the columnar
#: backend must drive every one of them to (at least) a 5x reduction
#: on the goal-bound chain workload — in practice to zero
_SEARCH_COUNTERS = ("hom_calls", "search_steps", "rows_scanned")


def _chain(n: int, source: int):
    facts = " ".join(f"E({i},{i + 1})." for i in range(n))
    return parse_instance(f"{facts} S({source}).")


def _counters(program, instance, backend, goal="Goal"):
    stats = EngineStats()
    rows = set(
        fixpoint(program, instance, stats=stats, backend=backend).tuples(goal)
    )
    return rows, stats


def test_goal_bound_chain_columnar(benchmark):
    """The flagship workload of BENCH_optimize, re-run per backend."""
    instance = _chain(120, 110)
    program = goal_directed_program(REACH, "Goal")

    base_rows, base = _counters(program, instance, "interpreted")
    col_rows, col = _counters(program, instance, "columnar")
    assert base_rows == col_rows
    # the hash-join plans never enter the backtracking search at all
    for counter in _SEARCH_COUNTERS:
        assert getattr(col, counter) * 5 <= getattr(base, counter), counter
    assert col.hom_calls == 0 and col.search_steps == 0
    # thousands of per-tuple search steps become a few hundred batches
    assert col.columnar_batches * 5 <= base.search_steps

    benchmark(
        lambda: set(
            fixpoint(program, instance, backend="columnar").tuples("Goal")
        )
    )
    benchmark.extra_info["columnar"] = {
        "job": "goal-bound-reach-chain",
        "baseline": base.to_dict(),
        "columnar": col.to_dict(),
        "search_steps_before": base.search_steps,
        "batches_after": col.columnar_batches,
    }
    report(
        "COL-magic-chain",
        "hash-join plans replace per-tuple homomorphism search",
        f"hom_calls {base.hom_calls} → {col.hom_calls}, search steps "
        f"{base.search_steps} → {col.columnar_batches} batches, "
        f"same {len(col_rows)} goal tuple(s)",
    )


def test_chain_wall_clock_speedup(benchmark):
    """Wall-clock, same workload: the batch engine should win big.

    The counters above prove the *shape* changed; this records that the
    shape change is also a real speedup (≈5-10x here).  The assertion
    is deliberately loose (>1x) so CI jitter cannot flake it — the
    committed JSON carries the measured ratio.
    """
    instance = _chain(120, 110)
    program = goal_directed_program(REACH, "Goal")

    start = time.perf_counter()
    expected = fixpoint(program, instance, backend="interpreted")
    interpreted_wall = time.perf_counter() - start

    start = time.perf_counter()
    assert fixpoint(program, instance, backend="columnar") == expected
    columnar_wall = time.perf_counter() - start
    speedup = interpreted_wall / columnar_wall if columnar_wall else 0.0

    result = benchmark(lambda: fixpoint(program, instance, backend="columnar"))
    assert result == expected
    assert speedup > 1.0
    benchmark.extra_info["columnar"] = {
        "job": "goal-bound-reach-chain-wall",
        "interpreted_seconds": interpreted_wall,
        "columnar_seconds": columnar_wall,
        "speedup": speedup,
    }
    report(
        "COL-wall-clock",
        "(design) batch probes amortize the per-tuple engine overhead",
        f"interpreted {interpreted_wall * 1e3:.1f}ms vs columnar "
        f"{columnar_wall * 1e3:.1f}ms ({speedup:.1f}x)",
    )


@pytest.mark.parametrize("job_name", ["t1-datalog-fgdl"])
def test_evidence_job_backend_delta(benchmark, job_name):
    """A real registered evidence job under each ambient backend."""
    job = REGISTRY.get(job_name)
    fn = job.resolve()

    def run_with(backend: str) -> EngineStats:
        stats = EngineStats()
        with running(RunConfig(backend=backend), stats):
            out = fn(**job.inputs)
        assert out["verdict"] == job.expected
        return stats

    base = run_with("interpreted")
    col = run_with("columnar")
    # jobs also run direct homomorphism checks (containment tests)
    # outside fixpoint, which stay on the search engine by design —
    # only the fixpoint share of hom_calls disappears
    assert col.join_probe_rows > 0
    assert col.hom_calls < base.hom_calls
    benchmark.pedantic(lambda: run_with("columnar"), rounds=1, iterations=1)
    benchmark.extra_info["columnar"] = {
        "job": job_name,
        "baseline": base.to_dict(),
        "columnar": col.to_dict(),
    }
    report(
        f"COL-{job_name}",
        "registered verdicts are backend-independent",
        f"hom_calls {base.hom_calls} → {col.hom_calls} "
        f"(residual = non-fixpoint containment checks), "
        f"join probe rows 0 → {col.join_probe_rows}",
    )


def test_query_evaluate_backend_parity(benchmark):
    """End-user surface: DatalogQuery.evaluate(backend=...) answers the
    same on both engines."""
    query = DatalogQuery(REACH, "Goal")
    instance = _chain(80, 70)
    expected = query.evaluate(instance, backend="interpreted")
    rows = benchmark(lambda: query.evaluate(instance, backend="columnar"))
    assert rows == expected
    report(
        "COL-evaluate-parity",
        "the backend is an engine detail, not a semantics change",
        f"{len(rows)} goal tuple(s), identical on both backends",
    )
