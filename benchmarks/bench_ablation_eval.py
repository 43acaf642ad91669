"""ABL-EVAL — naive vs semi-naive fixpoint evaluation.

The design choice DESIGN.md calls out for the evaluation substrate:
semi-naive delta evaluation should dominate naive re-derivation on
recursive workloads, increasingly so with instance size.  The naive
side is the certificate checker's replayer
(:func:`repro.certify.replay.naive_fixpoint`), the semi-naive side the
engine's :func:`repro.core.evaluation.fixpoint`.
"""

import pytest

from repro.certify.replay import naive_fixpoint
from repro.certify.serialize import relations_from_instance
from repro.core.evaluation import fixpoint
from repro.core.instance import Instance
from repro.core.parser import parse_program

TC_PROGRAM = parse_program(
    """
    T(x,y) <- R(x,y).
    T(x,y) <- R(x,z), T(z,y).
    """
)


def _chain(n: int) -> Instance:
    inst = Instance()
    for i in range(n):
        inst.add_tuple("R", (i, i + 1))
    return inst


def _grid(n: int) -> Instance:
    inst = Instance()
    for i in range(n):
        for j in range(n):
            if i + 1 < n:
                inst.add_tuple("R", ((i, j), (i + 1, j)))
            if j + 1 < n:
                inst.add_tuple("R", ((i, j), (i, j + 1)))
    return inst


@pytest.mark.parametrize("n", [10, 20, 30])
def test_seminaive_chain(benchmark, engine_stats, n):
    inst = _chain(n)
    result = benchmark(fixpoint, TC_PROGRAM, inst)
    assert len(result.tuples("T")) == n * (n + 1) // 2


@pytest.mark.parametrize("n", [10, 20, 30])
def test_naive_chain(benchmark, engine_stats, n):
    relations = relations_from_instance(_chain(n))
    result = benchmark(naive_fixpoint, TC_PROGRAM.rules, relations)
    assert len(result["T"]) == n * (n + 1) // 2


@pytest.mark.parametrize("n", [3, 4])
def test_seminaive_grid(benchmark, engine_stats, n):
    inst = _grid(n)
    result = benchmark(fixpoint, TC_PROGRAM, inst)
    assert relations_from_instance(result) == naive_fixpoint(
        TC_PROGRAM.rules, relations_from_instance(inst)
    )


@pytest.mark.parametrize("n", [3, 4])
def test_naive_grid(benchmark, engine_stats, n):
    relations = relations_from_instance(_grid(n))
    benchmark(naive_fixpoint, TC_PROGRAM.rules, relations)
