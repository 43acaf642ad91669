"""The benchmark's own tests.

    python3 -m pytest -q perfbench

Each oracle is cross-checked against the program's independent naive
replayer (``repro.certify.replay``) on small instances of every
generator family; the tracer, the serve stream and the comparison rule
get a check each.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402
import oracles  # noqa: E402
from repro.certify.replay import eval_query  # noqa: E402
from repro.core.datalog import DatalogQuery  # noqa: E402
from repro.core.parser import parse_program  # noqa: E402


def replay(query_text: str, relations: dict) -> set:
    goal = query_text.split("# goal:", 1)[1].split()[0]
    query = DatalogQuery(parse_program(query_text), goal)
    return eval_query(query, {p: set(rows) for p, rows in relations.items()})


def small_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    names = [f"n{i}" for i in range(9)]
    return {
        "chain": gen.chain(rng, 7),
        "grid": gen.grid(rng, 3),
        "dag": gen.dag(rng, 10, 14)[1],
        "pairs": gen.pairs(rng, names, 14),
    }


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("family", ["chain", "grid", "dag", "pairs"])
def test_transitive_closure(seed, family):
    edges = small_inputs(seed)[family]
    assert oracles.transitive_closure(edges) == replay(
        gen.TC_QUERY, {"E": edges})


@pytest.mark.parametrize("seed", range(4))
def test_tenant_closure(seed):
    rows = gen.tenants(random.Random(seed), 3, 6, extra=2)
    assert oracles.tenant_closure(rows) == replay(
        gen.TENANT_QUERY, {"E": rows})


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("family", ["dag", "pairs"])
def test_bound_reach(seed, family):
    edges = small_inputs(seed)[family]
    sources = sorted({x for x, _ in edges})[:2]
    assert oracles.bound_reach(edges, sources) == replay(
        gen.BOUND_REACH_QUERY,
        {"E": edges, "S": [(s,) for s in sources]})


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("family", ["chain", "grid", "pairs"])
def test_reach_from(seed, family):
    edges = small_inputs(seed)[family]
    hubs = [edges[0][0]]
    assert oracles.reach_from(edges, hubs) == replay(
        gen.REACH_QUERY, {"Flight": edges, "Hub": [(h,) for h in hubs]})


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_same_generation(depth):
    root, par = gen.binary_tree(random.Random(depth), depth)
    assert oracles.same_generation(root, par) == replay(
        gen.SG_QUERY, {"Root": [(root,)], "Par": par})


@pytest.mark.parametrize("seed", range(4))
def test_certain_reach(seed):
    """Against the inverse-rule chase, evaluated by the replayer: each
    VTwo pair gets its own unknown middle airport, and rows that mention
    one are not certain."""
    rng = random.Random(seed)
    names = [f"a{i}" for i in range(8)]
    legs, twos = gen.pairs(rng, names, 7), gen.pairs(rng, names, 5)
    hubs = names[:2]
    flights = list(legs)
    for x, z in twos:
        middle = ("skolem", x, z)
        flights += [(x, middle), (middle, z)]
    chased = replay(gen.REACH_QUERY,
                    {"Flight": flights, "Hub": [(h,) for h in hubs]})
    certain = {row for row in chased if not isinstance(row[0], tuple)}
    assert oracles.certain_reach(hubs, legs, twos) == certain


def test_every_eval_kind_has_an_answer():
    for kind in gen.EVAL_KINDS:
        inp = gen.eval_input(kind, 0, 0)
        assert oracles.eval_answer(kind, inp["data"]), kind


def test_serve_stream_replays_consistently():
    import wl_serve

    specs = {spec.name: spec for spec in wl_serve.sessions(5)}
    for conn in range(len(wl_serve.OWNERS)):
        base = {name: set(specs[name].base) for name in wl_serve.OWNERS[conn]}
        for request in wl_serve.stream(5, conn, specs)[:3000]:
            if request["op"] == "query":
                continue
            ins, ret = wl_serve.request_facts(request)
            rows = base[request["session"]]
            assert set(ret) <= rows and not set(ins) & rows
            assert 1 <= len(ins) + len(ret) <= 3
            rows.difference_update(ret)
            rows.update(ins)
            assert rows <= set(specs[request["session"]].universe)


def test_compare_rule():
    import compare

    parent = [100.0 + i for i in range(10)]
    faster = [p * 0.8 for p in parent]
    slower = [p * 1.3 for p in parent]
    assert compare.verdict(parent, faster, "lower", 0.1) == (10, "gain")
    assert compare.verdict(parent, slower, "lower", 0.1) == (0, "regression")
    assert compare.verdict(parent, list(parent), "lower", 0.1) == (0, "same")


def test_tracer_spans_nest(tmp_path):
    """The traced CLI records parser and engine spans whose self times
    never exceed their inclusive times."""
    query = tmp_path / "q.txt"
    facts = tmp_path / "i.txt"
    query.write_text(gen.TC_QUERY)
    facts.write_text(gen.facts_text("E", gen.chain(random.Random(1), 6)))
    env = {"PYTHONPATH": f"{ROOT / 'src'}:{HERE}", "PATH": "/usr/bin:/bin"}
    out = subprocess.run(
        [sys.executable, str(HERE / "traced_main.py"), str(tmp_path / "spans"),
         "eval", str(query), str(facts)],
        capture_output=True, text=True, env=env, check=True, timeout=120)
    assert len(out.stdout.splitlines()) == 15
    (dump,) = [json.loads(p.read_text())
               for p in (tmp_path / "spans").glob("spans-*.json")]
    kinds = {kind for kind, *_ in dump["rollup"]}
    assert {"core.parser", "core.evaluation", "core.homomorphism"} <= kinds
    for kind, name, calls, layer_entries, kind_entries, incl, self_ns in dump["rollup"]:
        assert calls >= kind_entries >= 0 and self_ns >= 0
    assert dump["counters"]["core.parser.facts"] == 5
