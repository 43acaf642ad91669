"""Backend registry, selection plumbing, and the optimize fallback.

The columnar engine's *semantic* equivalence is covered by the
property suite in ``test_backend_equivalence.py``; here we pin the
seams: name resolution, ambient defaults, counter routing, and the
``DatalogQuery.evaluate(optimize=True)`` retreat on IDB-fact-carrying
instances (which used to be silent).
"""

from __future__ import annotations

import pytest

from repro.core import stats as _stats
from repro.core.backend import backend_names, get_backend
from repro.core.columnar import columnar_fixpoint
from repro.core.context import RunConfig, current, running
from repro.core.evaluation import fixpoint
from repro.core.instance import Instance
from repro.core.parser import parse_program, parse_query
from repro.core.stats import EngineStats


TC = parse_program(
    "T(x,y) :- R(x,y). T(x,y) :- R(x,z), T(z,y)."
)


def _chain(n: int) -> Instance:
    return Instance.from_tuples({"R": [(i, i + 1) for i in range(n)]})


# ---------------------------------------------------------------------------
# registry and defaults
# ---------------------------------------------------------------------------

def test_backend_names_lists_default_first():
    names = backend_names()
    assert names[0] == "interpreted"
    assert "columnar" in names


def test_get_backend_resolves_both_shipped_engines():
    assert get_backend("interpreted").name == "interpreted"
    assert get_backend("columnar").name == "columnar"


def test_get_backend_unknown_name_is_loud():
    with pytest.raises(ValueError, match="vectorized.*known"):
        get_backend("vectorized")


def test_set_default_backend_returns_previous_and_validates():
    """The ambient backend is the run's: a run sets it, leaving the run
    restores the previous one, and unknown names never get in."""
    assert current().config.backend == "interpreted"
    with running(RunConfig(backend="columnar")):
        assert current().config.backend == "columnar"
        with pytest.raises(ValueError, match="unknown backend"):
            RunConfig(backend="nope")
        assert current().config.backend == "columnar"
    assert current().config.backend == "interpreted"


def test_backend_registry_is_constant():
    from repro.core import backend as backend_module

    with pytest.raises(TypeError):
        backend_module._BACKENDS["echo-test"] = get_backend("interpreted")
    assert "echo-test" not in backend_names()


# ---------------------------------------------------------------------------
# fixpoint/evaluate plumbing
# ---------------------------------------------------------------------------

def test_fixpoint_backend_param_selects_columnar():
    inst = _chain(8)
    stats = EngineStats()
    result = fixpoint(TC, inst, backend="columnar", stats=stats)
    assert result == fixpoint(TC, inst)
    # no backtracking search ran at all
    assert stats.hom_calls == 0
    assert stats.search_steps == 0
    assert stats.rows_scanned == 0
    # and the hash-join engine reported its own work
    assert stats.join_probe_rows > 0
    assert stats.join_output_rows > 0
    assert stats.facts_derived == 8 * 9 // 2


def test_fixpoint_unknown_backend_is_loud():
    with pytest.raises(ValueError, match="unknown backend"):
        fixpoint(TC, _chain(2), backend="nope")


def test_columnar_unknown_strategy_is_loud():
    """The columnar engine has one strategy and takes no name for it."""
    with pytest.raises(TypeError, match="strategy"):
        columnar_fixpoint(TC, _chain(2), strategy="bogus")


def test_fixpoint_uses_ambient_default_backend():
    inst = _chain(6)
    stats = EngineStats()
    with running(RunConfig(backend="columnar")):
        result = fixpoint(TC, inst, stats=stats)
    assert result == fixpoint(TC, inst)
    assert stats.hom_calls == 0
    assert stats.join_probe_rows > 0


def test_query_evaluate_backend_param():
    query = parse_query("T(x,y) :- R(x,y). T(x,y) :- R(x,z), T(z,y).", "T")
    inst = _chain(5)
    expected = query.evaluate(inst)
    for optimize in (False, True):
        assert (
            query.evaluate(inst, optimize=optimize, backend="columnar")
            == expected
        )


# ---------------------------------------------------------------------------
# the optimize fallback on IDB-fact-carrying instances (regression)
# ---------------------------------------------------------------------------

def test_evaluate_optimize_falls_back_on_idb_facts_and_says_so():
    """An instance carrying IDB facts makes magic sets unsound, so the
    optimized path retreats — and now records that it did."""
    query = parse_query("T(x,y) :- R(x,y). T(x,y) :- R(x,z), T(z,y).", "T")
    inst = _chain(4)
    inst.add_tuple("T", (99, 100))  # a fact for the *intensional* T
    stats = EngineStats()
    with _stats.collecting(stats):
        rows = query.evaluate(inst, optimize=True)
    assert stats.optimize_fallbacks == 1
    # the fallback still computes the right answer, IDB facts included
    assert (99, 100) in rows
    assert rows == query.evaluate(inst, optimize=False)
    # and the counter round-trips like every other counter
    assert EngineStats.from_dict(stats.to_dict()) == stats


def test_evaluate_optimize_no_fallback_on_edb_only_instances():
    query = parse_query("T(x,y) :- R(x,y). T(x,y) :- R(x,z), T(z,y).", "T")
    stats = EngineStats()
    with _stats.collecting(stats):
        query.evaluate(_chain(4), optimize=True)
    assert stats.optimize_fallbacks == 0


def test_evaluate_fallback_counts_on_every_backend():
    query = parse_query("T(x,y) :- R(x,y). T(x,y) :- R(x,z), T(z,y).", "T")
    inst = _chain(3)
    inst.add_tuple("T", (7, 8))
    for backend in ("interpreted", "columnar"):
        stats = EngineStats()
        with _stats.collecting(stats):
            rows = query.evaluate(inst, optimize=True, backend=backend)
        assert stats.optimize_fallbacks == 1, backend
        assert (7, 8) in rows


def test_columnar_handles_idb_facts_in_input():
    """Input facts for intensional predicates seed the fixpoint."""
    inst = _chain(3)
    inst.add_tuple("T", (50, 60))
    a = fixpoint(TC, inst)
    b = fixpoint(TC, inst, backend="columnar")
    assert a == b
    assert (50, 60) in b.tuples("T")


def test_columnar_mixed_arity_relation_names_do_not_crash():
    """Instances may hold rows of different arities under one name;
    atoms simply never match rows of the wrong arity (both backends)."""
    inst = Instance.from_tuples({"R": [(1, 2), (2, 3)]})
    inst.add_tuple("R", (1, 2, 3))
    a = fixpoint(TC, inst)
    b = fixpoint(TC, inst, backend="columnar")
    assert a == b
    assert (1, 3) in b.tuples("T")


@pytest.mark.parametrize("backend", ["interpreted", "columnar"])
@pytest.mark.parametrize(
    "text,rows,expected",
    [
        # the interpreted engine derived R(q,r) from E(q,r,s) ...
        ("R(x,y) <- E(x,y).", [("q", "r", "s"), ("a", "b")],
         {("a", "b")}),
        # ... and failed on E(q) with a non-ground R(q, ?y)
        ("R(x,y) <- E(x,y).", [("q",), ("a", "b")], {("a", "b")}),
        # a positional-index lookup offered E(q) as a candidate for the
        # fully bound E(q,r) and indexed it past its end (IndexError)
        ("R(x,y) <- E(x,y), E(y,x).",
         [("q",), ("q", "r"), ("r", "q"), ("s", "r")],
         {("q", "r"), ("r", "q")}),
    ],
)
def test_wrong_arity_rows_never_match(backend, text, rows, expected):
    out = fixpoint(
        parse_program(text), Instance.from_tuples({"E": rows}),
        backend=backend,
    )
    assert out.tuples("R") == frozenset(expected)


def test_columnar_counters_round_trip_through_manifest_merge():
    stats = EngineStats()
    fixpoint(TC, _chain(6), backend="columnar", stats=stats)
    totals = EngineStats()
    totals.merge(EngineStats.from_dict(stats.to_dict()))
    assert totals.join_probe_rows == stats.join_probe_rows
    assert totals.columnar_batches == stats.columnar_batches


def test_cli_eval_backend_flag(tmp_path, capsys):
    from repro.cli import main

    query_file = tmp_path / "q.dl"
    query_file.write_text(
        "# goal: T\nT(x,y) :- R(x,y).\nT(x,y) :- R(x,z), T(z,y).\n"
    )
    inst_file = tmp_path / "i.dl"
    inst_file.write_text("R(1,2). R(2,3).\n")
    assert main(["eval", str(query_file), str(inst_file)]) == 0
    plain = capsys.readouterr().out
    assert main([
        "eval", str(query_file), str(inst_file), "--backend", "columnar",
    ]) == 0
    columnar = capsys.readouterr().out
    assert plain == columnar
    assert "(1, 3)" in columnar
    # the ambient backend is restored after the command
    assert current().config.backend == "interpreted"


def test_cli_decide_accepts_backend_flag(tmp_path, capsys):
    from repro.cli import main

    query_file = tmp_path / "q.dl"
    query_file.write_text("Q(x) :- R(x,y).\n")
    views_file = tmp_path / "v.dl"
    views_file.write_text("# view: V\nV(x,y) :- R(x,y).\n")
    code = main([
        "decide", str(query_file), str(views_file), "--backend", "columnar",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict" in out
    assert current().config.backend == "interpreted"


# ---------------------------------------------------------------------------
# no runtime path reads the cost model
# ---------------------------------------------------------------------------

def _cost_model_unreachable(monkeypatch) -> None:
    """Make the cost model raise wherever it is read: its report, and
    the parameters it measures off an instance."""
    from repro.analysis import cost

    def read(*args, **kwargs):
        raise AssertionError("the cost model was read")

    monkeypatch.setattr(cost, "cost_report", read)
    monkeypatch.setattr(
        cost.CostParameters, "from_instance", staticmethod(read)
    )


# a program of its own: no other test warms the optimizer's caches with it
GUARDED = parse_program(
    "G(x,y) :- R(x,y). G(x,y) :- R(x,z), G(z,y). G(x,y) :- R(x,y), R(x,y)."
)


@pytest.mark.parametrize("optimize", [False, True])
@pytest.mark.parametrize("backend", ["interpreted", "columnar"])
def test_fixpoint_reads_no_cost_model(monkeypatch, backend, optimize):
    expected = fixpoint(GUARDED, _chain(6), optimize=False)
    _cost_model_unreachable(monkeypatch)
    assert fixpoint(
        GUARDED, _chain(6), backend=backend, optimize=optimize
    ) == expected


def test_the_cost_audit_is_the_runtime_reader_left(monkeypatch):
    _cost_model_unreachable(monkeypatch)
    with running(RunConfig(audits={"cost"})):
        with pytest.raises(AssertionError, match="cost model was read"):
            fixpoint(GUARDED, _chain(6))
