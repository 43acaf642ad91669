"""Seeded inputs for the ``eval`` and ``serve`` workloads.

Plain Python that never imports ``repro``: the same structures are
rendered into the program's input files or protocol requests and handed
to the independent oracles in :mod:`oracles`.  The same seed always
gives the same inputs.
"""

from __future__ import annotations

import random

# --------------------------------------------------------------------------
# query texts (the example queries of examples/inputs are copied, so an
# edit there cannot silently change what this benchmark measures)
# --------------------------------------------------------------------------
TC_QUERY = """# goal: T
T(x,y) <- E(x,y).
T(x,y) <- T(x,z), E(z,y).
"""

TENANT_QUERY = """# goal: T
T(g,x,y) <- E(g,x,y).
T(g,x,y) <- T(g,x,z), E(g,z,y).
"""

BOUND_REACH_QUERY = """# goal: Goal
Reach(x,y) <- E(x,y).
Reach(x,y) <- E(x,z), Reach(z,y).
Goal(y) <- S(x), Reach(x,y).
"""

REACH_QUERY = """# goal: GoalReach
Reach(x) <- Hub(x).
Reach(y) <- Reach(x), Flight(x,y).
GoalReach(x) <- Reach(x).
"""

SG_QUERY = """# goal: SG
SG(x,x) <- Root(x).
SG(x,y) <- Par(x,p), SG(p,q), Par(y,q).
"""

FLIGHT_VIEWS = """# view: VHub
VHub(x) <- Hub(x).
# view: VLeg
VLeg(x,y) <- Flight(x,y).
# view: VTwo
VTwo(x,z) <- Flight(x,y), Flight(y,z).
"""


def _labels(rng: random.Random, n: int, prefix: str) -> list[str]:
    """``n`` distinct constants in a seeded order."""
    ids = list(range(n))
    rng.shuffle(ids)
    return [f"{prefix}{i}" for i in ids]


def facts_text(pred: str, rows) -> str:
    """Rows rendered in the instance-file syntax, one fact a line."""
    out = []
    for row in rows:
        args = ",".join(f"'{value}'" for value in row)
        out.append(f"{pred}({args}).")
    return "\n".join(out) + "\n"


# --------------------------------------------------------------------------
# graph families
# --------------------------------------------------------------------------
def chain(rng: random.Random, nodes: int, prefix: str = "c") -> list[tuple]:
    names = _labels(rng, nodes, prefix)
    return [(names[i], names[i + 1]) for i in range(nodes - 1)]


def grid(rng: random.Random, side: int, prefix: str = "g") -> list[tuple]:
    """Right and down edges of a ``side`` x ``side`` grid."""
    names = _labels(rng, side * side, prefix)
    edges = []
    for i in range(side):
        for j in range(side):
            here = names[i * side + j]
            if i + 1 < side:
                edges.append((here, names[(i + 1) * side + j]))
            if j + 1 < side:
                edges.append((here, names[i * side + j + 1]))
    return edges


def tenants(
    rng: random.Random, count: int, nodes: int, extra: int = 3
) -> list[tuple]:
    """``count`` tenant chains of ``nodes`` nodes, each with ``extra``
    seeded forward shortcuts; rows are ``(tenant, x, y)``."""
    rows = []
    for t in range(count):
        tenant = f"t{t}"
        names = _labels(rng, nodes, f"{tenant}n")
        edges = {(names[i], names[i + 1]) for i in range(nodes - 1)}
        while len(edges) < nodes - 1 + extra:
            i = rng.randrange(nodes - 2)
            j = rng.randrange(i + 2, nodes)
            edges.add((names[i], names[j]))
        rows.extend((tenant, x, y) for x, y in sorted(edges))
    return rows


def dag(rng: random.Random, nodes: int, edges: int) -> tuple[list, list]:
    """A random DAG: ``(nodes in topological order, edges)``, each edge
    leading at most 11 positions forward."""
    names = _labels(rng, nodes, "d")
    out: set[tuple] = set()
    while len(out) < edges:
        i = rng.randrange(nodes - 1)
        j = rng.randrange(i + 1, min(nodes, i + 12))
        out.add((names[i], names[j]))
    return names, sorted(out)


def pairs(rng: random.Random, names: list[str], count: int) -> list[tuple]:
    """``count`` distinct random edges between distinct ``names``."""
    out: set[tuple] = set()
    while len(out) < count:
        x, y = rng.choice(names), rng.choice(names)
        if x != y:
            out.add((x, y))
    return sorted(out)


def binary_tree(rng: random.Random, depth: int) -> tuple[str, list[tuple]]:
    """A complete binary tree: ``(root, [(child, parent), ...])``."""
    size = 2 ** (depth + 1) - 1
    names = _labels(rng, size, "v")
    par = [(names[k], names[(k - 1) // 2]) for k in range(1, size)]
    return names[0], par


# --------------------------------------------------------------------------
# seeds
# --------------------------------------------------------------------------
def relabel(data, rng: random.Random):
    """``data`` under a seeded bijection of its string constants.

    An input whose structure is drawn from a fixed seed and renamed per
    run seed asks for the same work under every seed, while its values
    (and the hash order of every set built from them) change.
    """
    values = sorted(set(_constants(data)))
    shuffled = values[:]
    rng.shuffle(shuffled)
    return _mapped(data, dict(zip(values, shuffled)))


def _constants(obj):
    if isinstance(obj, str):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _constants(value)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _constants(item)


def _mapped(obj, mapping: dict):
    if isinstance(obj, str):
        return mapping[obj]
    if isinstance(obj, dict):
        return {key: _mapped(value, mapping) for key, value in obj.items()}
    if isinstance(obj, tuple):
        return tuple(_mapped(item, mapping) for item in obj)
    if isinstance(obj, list):
        return [_mapped(item, mapping) for item in obj]
    return obj


# --------------------------------------------------------------------------
# eval op kinds
# --------------------------------------------------------------------------
#: kind -> (command, query, views, instance predicate -> data key)
EVAL_KINDS = {
    "tc-chain": ("eval", TC_QUERY, None, {"E": "edges"}),
    "tc-grid": ("eval", TC_QUERY, None, {"E": "edges"}),
    "tc-tenant": ("eval", TENANT_QUERY, None, {"E": "rows"}),
    "bound-dag": ("eval", BOUND_REACH_QUERY, None,
                  {"E": "edges", "S": "sources"}),
    "reach-flights": ("eval", REACH_QUERY, None,
                      {"Hub": "hubs", "Flight": "edges"}),
    "sg-tree": ("eval", SG_QUERY, None, {"Root": "root", "Par": "par"}),
    "certain-flights": ("certain", REACH_QUERY, FLIGHT_VIEWS,
                        {"VHub": "hubs", "VLeg": "legs", "VTwo": "twos"}),
}


def _structure(kind: str, rng: random.Random) -> dict:
    if kind == "tc-chain":
        return {"edges": chain(rng, 121)}
    if kind == "tc-grid":
        return {"edges": grid(rng, 10)}
    if kind == "tc-tenant":
        return {"rows": tenants(rng, 8, 30)}
    if kind == "bound-dag":
        names, edges = dag(rng, 150, 260)
        # sources early in the order reach most of the DAG
        return {"edges": edges, "sources": names[:3]}
    if kind == "reach-flights":
        names = _labels(rng, 5000, "city")
        return {"edges": pairs(rng, names, 15000),
                "hubs": rng.sample(names, 3)}
    if kind == "sg-tree":
        root, par = binary_tree(rng, 7)
        return {"root": root, "par": par}
    if kind == "certain-flights":
        # out-degree 3: one giant component holds the hubs' answers
        names = _labels(rng, 800, "apt")
        return {"legs": pairs(rng, names, 1600),
                "twos": pairs(rng, names, 800),
                "hubs": rng.sample(names, 4)}
    raise ValueError(f"unknown eval op kind {kind!r}")


def _rows(value) -> list:
    if isinstance(value, str):
        return [(value,)]
    return [row if isinstance(row, tuple) else (row,) for row in value]


def eval_input(kind: str, variant: int, seed: int) -> dict:
    """Input ``variant`` of an ``eval`` op kind under run ``seed``.

    Variant 0's structure is drawn from a fixed seed, so part of every
    run's work is the same; the other variants' are drawn from the run
    seed, so a fresh seed also gives fresh random graphs (the DAG, the
    flight networks, the tenant shortcuts).  Chains, grids and trees
    differ only in their constants.

    Returns ``{"command", "query", "instance", "views"?, "data"}``:
    texts for the program's files plus the structured ``data`` the
    oracle answers from.
    """
    drawn = f"eval:{kind}:0" if variant == 0 else f"{seed}:eval:{kind}:{variant}"
    structure = _structure(kind, random.Random(drawn))
    data = relabel(structure, random.Random(f"{seed}:eval:{kind}:{variant}"))
    command, query, views, facts = EVAL_KINDS[kind]
    out = {
        "command": command,
        "query": query,
        "instance": "".join(
            facts_text(pred, _rows(data[key])) for pred, key in facts.items()
        ),
        "data": data,
    }
    if views is not None:
        out["views"] = views
    return out
