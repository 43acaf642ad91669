"""OPT — the certified optimizer's before/after engine counters.

``pytest benchmarks/bench_optimize.py --benchmark-only -s
--benchmark-json=BENCH_optimize.json`` records, per benchmark, the
engine counters with and without the :mod:`repro.analysis.optimize`
pipeline in ``extra_info.optimize`` — the committed
``BENCH_optimize.json`` is the evidence that the magic-sets pass
reduces ``hom_calls`` on a goal-bound job rather than merely shuffling
rules.
"""

import pytest

from repro.analysis.optimize import optimize_program, optimized_query_program
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


def _chain(n: int, source: int):
    facts = " ".join(f"E({i},{i + 1})." for i in range(n))
    return parse_instance(f"{facts} S({source}).")


def _counters(program, instance, goal="Goal"):
    stats = EngineStats()
    rows = set(fixpoint(program, instance, stats=stats).tuples(goal))
    return rows, stats


def test_goal_bound_chain_magic_sets(benchmark):
    """The flagship goal-bound job: demand-driven beats full fixpoint."""
    instance = _chain(120, 110)
    baseline_program = goal_directed_program(REACH, "Goal")
    optimized = optimized_query_program(REACH, "Goal")

    base_rows, base = _counters(baseline_program, instance)
    opt_rows, opt = _counters(optimized, instance)
    assert base_rows == opt_rows
    assert opt.hom_calls < base.hom_calls

    benchmark(lambda: set(fixpoint(optimized, instance).tuples("Goal")))
    benchmark.extra_info["optimize"] = {
        "job": "goal-bound-reach-chain",
        "goal_bound": True,
        "baseline": base.to_dict(),
        "optimized": opt.to_dict(),
        "hom_calls_before": base.hom_calls,
        "hom_calls_after": opt.hom_calls,
    }
    report(
        "OPT-magic-chain",
        "magic sets restrict recursion to goal-reachable demand",
        f"hom_calls {base.hom_calls} → {opt.hom_calls}, "
        f"rows scanned {base.rows_scanned} → {opt.rows_scanned}, "
        f"same {len(opt_rows)} goal tuple(s)",
    )


def test_optimizer_pipeline_cost(benchmark):
    """What the full certified pipeline itself costs on a small query."""

    def run():
        return optimize_program(REACH, "Goal", certify=True)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.changed
    assert result.certificate is not None
    benchmark.extra_info["optimize"] = {
        "passes": [stage.name for stage in result.stages],
        "claims": len(result.certificate["claims"]),
    }
    report(
        "OPT-pipeline-cost",
        "(design) every applied pass ships a replay-validated "
        "program_equivalence claim",
        f"{len(result.certificate['claims'])} claim(s) over "
        f"{len(result.optimized.rules)} rules",
    )


@pytest.mark.parametrize("job_name", ["t1-datalog-fgdl"])
def test_evidence_job_engine_delta(benchmark, job_name):
    """A real registered evidence job, plain vs ambient-optimized."""
    job = REGISTRY.get(job_name)
    fn = job.resolve()

    def run_with(optimize: bool):
        stats = EngineStats()
        with running(RunConfig(optimize=optimize), stats):
            out = fn(**job.inputs)
        assert out["verdict"] == job.expected
        return stats

    base = run_with(False)
    opt = run_with(True)
    benchmark.pedantic(lambda: run_with(True), rounds=1, iterations=1)
    benchmark.extra_info["optimize"] = {
        "job": job_name,
        "goal_bound": False,
        "baseline": base.to_dict(),
        "optimized": opt.to_dict(),
    }
    report(
        f"OPT-{job_name}",
        "optimization keeps registered verdicts intact",
        f"hom_calls {base.hom_calls} → {opt.hom_calls} "
        f"(tiny random instances; wins need bound goals)",
    )


def test_query_evaluate_parity_large_chain(benchmark):
    """End-user surface: DatalogQuery.evaluate(optimize=True)."""
    query = DatalogQuery(REACH, "Goal")
    instance = _chain(80, 70)
    expected = query.evaluate(instance, optimize=False)
    rows = benchmark(lambda: query.evaluate(instance, optimize=True))
    assert rows == expected
    report(
        "OPT-evaluate-parity",
        "optimize=True is an engine detail, not a semantics change",
        f"{len(rows)} goal tuple(s), identical with and without",
    )
