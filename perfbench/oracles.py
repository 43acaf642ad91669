"""Independent reference answers for the ``eval`` and ``serve`` ops.

Plain-Python graph search that never imports ``repro``, so a wrong
answer from any of the program's engines cannot also be the expected
answer.  ``test_oracles.py`` cross-checks every function here against
the program's own naive replayer (``repro.certify.replay``) on small
instances of every generator family; the replayer itself is far too
slow at benchmark sizes.
"""

from __future__ import annotations

from collections import defaultdict


def _successors(edges) -> dict:
    succ: dict = defaultdict(list)
    for x, y in edges:
        succ[x].append(y)
    return succ


def _reached(succ: dict, starts) -> set:
    """Nodes reachable from ``starts`` in zero or more steps."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for nxt in succ.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _reached_strict(succ: dict, start) -> set:
    """Nodes reachable from ``start`` in one or more steps."""
    return _reached(succ, succ.get(start, ()))


def transitive_closure(edges) -> set[tuple]:
    """``{(x, y)}`` joined by a path of one or more edges."""
    succ = _successors(edges)
    return {(x, y) for x in list(succ) for y in _reached_strict(succ, x)}


def tenant_closure(rows) -> set[tuple]:
    """Per-tenant transitive closure of ``(tenant, x, y)`` edge rows."""
    by_tenant: dict = defaultdict(list)
    for tenant, x, y in rows:
        by_tenant[tenant].append((x, y))
    return {
        (tenant, x, y)
        for tenant, edges in by_tenant.items()
        for x, y in transitive_closure(edges)
    }


def bound_reach(edges, sources) -> set[tuple]:
    """``Goal(y) <- S(x), Reach(x,y)``: one or more steps from a source."""
    succ = _successors(edges)
    out: set = set()
    for source in sources:
        out |= _reached_strict(succ, source)
    return {(y,) for y in out}


def reach_from(edges, hubs) -> set[tuple]:
    """Monadic reachability: hubs plus every node a path leads to."""
    return {(x,) for x in _reached(_successors(edges), hubs)}


def same_generation(root, par) -> set[tuple]:
    """``SG(x,x) <- Root(x). SG(x,y) <- Par(x,p), SG(p,q), Par(y,q).``

    A worklist over pairs: from each same-generation pair of parents,
    every pair of their children.
    """
    children: dict = defaultdict(list)
    for child, parent in par:
        children[parent].append(child)
    seen = {(root, root)}
    stack = [(root, root)]
    while stack:
        p, q = stack.pop()
        for x in children.get(p, ()):
            for y in children.get(q, ()):
                if (x, y) not in seen:
                    seen.add((x, y))
                    stack.append((x, y))
    return seen


def certain_reach(hubs, legs, twos) -> set[tuple]:
    """Certain answers of the flights reachability query over the
    ``VHub``/``VLeg``/``VTwo`` views, under the open-world assumption.

    Every instance whose view image contains the given one has a hub at
    each ``VHub`` airport, a flight for each ``VLeg`` pair and a two-leg
    route for each ``VTwo`` pair, through an airport that may differ in
    every instance.  An airport is reachable in all of them exactly
    when a path of legs and two-leg routes leads to it from a hub; the
    unknown middle airports are never answers.
    """
    return reach_from(list(legs) + list(twos), hubs)


def eval_answer(kind: str, data: dict) -> set[tuple]:
    """The expected rows of one ``eval`` op (see :func:`gen.eval_input`)."""
    if kind in ("tc-chain", "tc-grid"):
        return transitive_closure(data["edges"])
    if kind == "tc-tenant":
        return tenant_closure(data["rows"])
    if kind == "bound-dag":
        return bound_reach(data["edges"], data["sources"])
    if kind == "reach-flights":
        return reach_from(data["edges"], data["hubs"])
    if kind == "sg-tree":
        return same_generation(data["root"], data["par"])
    if kind == "certain-flights":
        return certain_reach(data["hubs"], data["legs"], data["twos"])
    raise ValueError(f"unknown eval op kind {kind!r}")
