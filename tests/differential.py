"""The differential fuzzer's oracle and cells.

One generator (:mod:`tests.generators`) draws every input and one
oracle, the certificate checker's independent naive evaluator
:mod:`repro.certify.replay`, decides every answer; no cell compares one
engine with another.  Each ``check_*`` function below is one cell of
the matrix.  It runs with all three audits on (``cost``, ``maintain``,
``shard``) and fails if any guard reports a violation.  The test
modules draw the inputs; ``tests/core/test_evaluation_fuzz.py`` lists
which module runs which cell.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Optional, Sequence
from unittest import mock

import hypothesis
from hypothesis import settings

from repro.analysis.cost import cost_report
from repro.analysis.maintain import maintain_report
from repro.analysis.optimize import optimize_program
from repro.certify import replay
from repro.certify.serialize import relations_from_instance as relations
from repro.core import shard
from repro.core.atoms import Atom
from repro.core.context import RunConfig, RunContext, running
from repro.core.datalog import DatalogProgram, DatalogQuery
from repro.core.evaluation import fixpoint
from repro.core.homomorphism import homomorphisms
from repro.core.instance import Instance
from repro.ivm import MaterializedView

AUDITS = frozenset({"cost", "maintain", "shard"})
BACKENDS = ("interpreted", "columnar")
#: (backend, optimize) for every engine configuration
ENGINES = tuple(
    (backend, optimize) for backend in BACKENDS for optimize in (False, True)
)
Engines = Sequence[tuple[str, bool]]


def oracle(program: DatalogProgram, instance: Instance) -> dict:
    """``FPEval(Π, I)`` by the replayer, empty relations dropped."""
    state = replay.naive_fixpoint(program.rules, relations(instance))
    return {pred: rows for pred, rows in state.items() if rows}


def nonempty(instance: Instance) -> dict:
    """An engine's result in the oracle's form."""
    return {pred: rows for pred, rows in relations(instance).items() if rows}


def _seminaive_insertion(program: DatalogProgram, instance: Instance) -> dict:
    view = MaterializedView(program)
    view.insert(instance.facts())
    return nonempty(view.state)


#: the evaluations a fixed engine result is compared with: the
#: replayer's naive fixpoint, the interpreted engine's semi-naive
#: insertion of the instance into an empty view, and its stratified
#: fixpoint
REFERENCES: dict[str, Callable[[DatalogProgram, Instance], dict]] = {
    "naive": oracle,
    "seminaive": _seminaive_insertion,
    "stratified": lambda program, instance: nonempty(
        fixpoint(program, instance)
    ),
}


@contextmanager
def audited() -> Iterator[RunContext]:
    """A fresh run with every audit on; no guard may flag anything."""
    with running(RunConfig(audits=AUDITS)) as run:
        yield run
    for name, summary in run.summaries().items():
        assert summary["violations"] == [], (name, summary["violations"])


def run_slice(seed: int, examples: int, test: Callable[[], None]) -> None:
    """Run the ``@given`` test ``test`` on ``examples`` examples drawn
    with Hypothesis seed ``seed``: one reproducible slice of a cell."""
    hypothesis.seed(seed)(
        settings(max_examples=examples, deadline=None, database=None)(test)
    )()


def check_fixpoint(
    program: DatalogProgram,
    instance: Instance,
    engines: Engines = ENGINES,
    shards: Sequence[int] = (0,),
) -> RunContext:
    """``fixpoint`` on every engine and shard count equals the oracle.

    The shard executor's size gate is lowered, so tiny instances still
    shard and every communication-free stratum meets the shard audit.
    """
    expected = oracle(program, instance)
    with mock.patch.object(shard, "SHARD_MIN_FACTS", 0), audited() as run:
        for backend, optimize in engines:
            for count in shards:
                result = fixpoint(
                    program, instance, backend=backend, optimize=optimize,
                    shards=count,
                )
                assert nonempty(result) == expected, (
                    backend, optimize, count,
                )
    return run


def check_bounds(
    program: DatalogProgram, instance: Instance, goal: Optional[str] = None
) -> None:
    """The static bounds cover the oracle's relation sizes: every
    predicate's, or, for a ``goal``, every predicate the goal reaches.
    A bound counts rows of its own arity; other rows are never joined.
    """
    state = oracle(program, instance)
    report = cost_report(program, goal=goal, instance=instance)
    for pred, bound in report.bounds.items():
        if pred not in report.unreachable:
            rows = state.get(pred, ())
            measured = sum(len(row) == bound.arity for row in rows)
            assert measured <= bound.bound, (goal, pred, bound)


def check_goal_relations(
    program: DatalogProgram, instance: Instance, engines: Engines = ENGINES
) -> None:
    """``DatalogQuery.evaluate`` of every goal on every engine equals the
    oracle's goal relation."""
    state = oracle(program, instance)
    with audited():
        for goal in sorted(program.idb_predicates()):
            query = DatalogQuery(program, goal)
            for backend, optimize in engines:
                got = query.evaluate(
                    instance, optimize=optimize, backend=backend
                )
                assert got == state.get(goal, set()), (
                    goal, backend, optimize,
                )


def check_passes(
    program: DatalogProgram,
    instance: Instance,
    passes: Optional[Sequence[str]] = None,
) -> None:
    """Every goal's relation survives ``optimize_program`` with
    ``passes`` (``None``: the whole pipeline).  The goal-directed passes
    assume no base-asserted IDB rows."""
    with audited():
        for goal in sorted(program.idb_predicates()):
            query = DatalogQuery(program, goal)
            expected = replay.eval_query(query, relations(instance))
            result = optimize_program(program, goal, passes)
            got = fixpoint(result.optimized, instance)
            assert got.tuples(result.goal) == expected, (goal, passes)


def check_schedule(
    program: DatalogProgram,
    base: Instance,
    schedule: Sequence[tuple[list, list]],
    engines: Engines = ENGINES,
) -> None:
    """A view maintained through ``schedule`` equals the oracle after
    every round, on every engine.  Strata the analysis proves
    counting-safe are maintained by counting, ``predict_delta`` covers
    the facts each round moves, a counted fact is held iff its count is
    positive or the base asserts it, and the ``maintain`` audit checks
    each round once."""
    safe = {
        pred
        for stratum in maintain_report(program).strata
        if stratum.counting_safe
        for pred in stratum.predicates
    }
    with audited() as run:
        for backend, optimize in engines:
            cell = (backend, optimize)
            view = MaterializedView(
                program, base, optimize=optimize, backend=backend
            )
            assert nonempty(view.state) == oracle(program, base), cell
            strategies = view.maintenance_strategies()
            assert all(strategies[pred] == "counting" for pred in safe), cell
            for inserts, retracts in schedule:
                predicted = view.predict_delta(len(inserts) + len(retracts))
                round_ = view.apply(inserts=inserts, retracts=retracts)
                expected = oracle(program, view.base)
                assert nonempty(view.state) == expected, (cell, round_)
                moved = sum(map(len, round_.plus.values()))
                moved += sum(map(len, round_.minus.values()))
                assert moved <= predicted, (cell, round_)
                for (pred, row), count in view._counts.items():
                    derivable = count > 0 or view.base.has_tuple(pred, row)
                    assert count >= 0, (cell, pred, row)
                    assert view.state.has_tuple(pred, row) == derivable
    checks = run.summaries()["maintain"]["checks"]
    assert checks == len(engines) * len(schedule)


def check_orderings(body: Sequence[Atom], instance: Instance) -> None:
    """Every join ordering finds each of the replayer's matches once."""
    expected = {
        frozenset(binding.items())
        for binding in replay.match(body, relations(instance))
    }
    for ordering in ("dynamic", "static", "connected"):
        found = [
            frozenset(hom.items())
            for hom in homomorphisms(body, instance, ordering=ordering)
        ]
        assert len(found) == len(set(found)), ordering
        assert set(found) == expected, ordering
