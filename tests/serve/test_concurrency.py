"""The service without a process-wide lock: sessions run side by side.

Rounds of different sessions overlap in worker threads, so each round
must count into its own session only; queries take the session lock,
so they see a round's before or after state, never a half-maintained
one; and a long-lived service keeps nothing per round in
process-global state.
"""

from __future__ import annotations

import asyncio
import sys
from collections import deque

import pytest

from repro.serve import ReproServer, ServeService

CHAIN_TC = "T(x,y) <- E(x,y). T(x,y) <- E(x,z), T(z,y)."


def run(coro):
    return asyncio.run(coro)


def _chain(n: int, offset: int = 0) -> str:
    return " ".join(f"E({offset + i},{offset + i + 1})." for i in range(n))


def _create(session: str, instance: str, **extra) -> dict:
    return {
        "op": "create", "session": session, "program": CHAIN_TC,
        "instance": instance, **extra,
    }


def _update(session: str, step: int, nodes: int) -> dict:
    """Cut one chain edge (odd steps put it back)."""
    edge = ["E", [(7 * (step // 2)) % nodes, (7 * (step // 2)) % nodes + 1]]
    if step % 2:
        return {"op": "insert", "session": session, "facts": [edge]}
    return {"op": "retract", "session": session, "facts": [edge]}


class _FastSwitching:
    """Switch threads as often as the interpreter allows."""

    def __enter__(self):
        self.previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)

    def __exit__(self, *exc):
        sys.setswitchinterval(self.previous)


# ---------------------------------------------------------------------------
# two sessions, overlapping rounds
# ---------------------------------------------------------------------------
def test_concurrent_sessions_count_exactly_their_own_rounds():
    sessions = {"a": 30, "b": 24}

    async def drive(concurrent: bool) -> dict:
        service = ServeService()
        for name, nodes in sessions.items():
            created = await service.handle(_create(name, _chain(nodes)))
            assert created["ok"]

        async def updates(name: str) -> None:
            for step in range(12):
                response = await service.handle(
                    _update(name, step, sessions[name])
                )
                assert response["ok"], response

        if concurrent:
            await asyncio.gather(*(updates(name) for name in sessions))
        else:
            for name in sessions:
                await updates(name)
        return {
            name: (await service.handle(
                {"op": "stats", "session": name}
            ))["engine"]
            for name in sessions
        }

    solo = run(drive(concurrent=False))
    with _FastSwitching():
        both = run(asyncio.wait_for(drive(concurrent=True), 120))
    assert both == solo
    assert all(engine["ivm_rounds"] == 12 for engine in both.values())


# ---------------------------------------------------------------------------
# queries during a round
# ---------------------------------------------------------------------------
def test_queries_during_a_round_see_the_before_or_after_relation():
    async def drive() -> tuple[list[int], int, int, int]:
        service = ServeService()
        await service.handle(_create("c", _chain(70)))
        query = {"op": "query", "session": "c", "pred": "T"}
        before = len((await service.handle(query))["rows"])
        lock = service.sessions["c"].lock
        round_ = asyncio.create_task(service.handle(
            {"op": "retract", "session": "c", "facts": [["E", [35, 36]]]}
        ))
        seen: list[int] = []
        issued_in_flight = 0

        async def hammer() -> None:
            nonlocal issued_in_flight
            while not round_.done():
                if lock.locked():
                    issued_in_flight += 1
                response = await service.handle(query)
                seen.append(len(response["rows"]))
                await asyncio.sleep(0)

        await asyncio.gather(*(hammer() for _ in range(4)))
        assert (await round_)["ok"]
        after = len((await service.handle(query))["rows"])
        return seen, before, after, issued_in_flight

    with _FastSwitching():
        seen, before, after, in_flight = run(asyncio.wait_for(drive(), 120))
    assert (before, after) == (70 * 71 // 2, 35 * 36 // 2 + 34 * 35 // 2)
    assert in_flight >= 1  # the race was really exercised
    assert set(seen) <= {before, after}


# ---------------------------------------------------------------------------
# create reports the engine the rounds use
# ---------------------------------------------------------------------------
@pytest.mark.parametrize(
    "requested, reported, engines",
    [
        (None, "interpreted", {"interpreted"}),
        ("columnar", "columnar", {"columnar"}),
    ],
)
def test_create_reports_the_engine_its_rounds_use(
    requested, reported, engines
):
    async def drive() -> tuple[str, list[str]]:
        service = ServeService()
        extra = {} if requested is None else {"backend": requested}
        created = await service.handle(_create("s", _chain(12), **extra))
        backends = []
        for step in range(4):
            response = await service.handle(_update("s", step, 12))
            backends.append(response["round"]["backend"])
        return created["backend"], backends

    created, rounds = run(drive())
    assert created == reported
    assert set(rounds) <= engines
    assert set(rounds) == {created}


# ---------------------------------------------------------------------------
# a long-lived service keeps no per-round process state
# ---------------------------------------------------------------------------
def _module_container_sizes() -> dict[str, int]:
    """``module.attribute -> len`` for every container a loaded
    ``repro`` module holds at top level."""
    sizes = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if isinstance(value, (list, dict, set, deque)):
                sizes[f"{name}.{attr}"] = len(value)
    return sizes


def test_long_session_leaves_no_process_state_behind():
    rounds = 60

    async def drive(name: str, count: int) -> dict:
        service = ServeService()
        await service.handle(_create(name, _chain(20)))
        for step in range(count):
            response = await service.handle(_update(name, step, 20))
            assert response["ok"], response
        stats = await service.handle({"op": "stats", "session": name})
        await service.handle({"op": "close", "session": name})
        return stats["engine"]

    run(drive("warm", 2))  # every lazy import happens here
    before = _module_container_sizes()
    engine = run(drive("long", rounds))
    after = _module_container_sizes()
    # every round is counted in the session's own stats ...
    assert engine["ivm_rounds"] == rounds
    # ... and nothing process-wide grew with the rounds
    grown = {
        key: (before.get(key, 0), size)
        for key, size in after.items()
        if size - before.get(key, 0) >= rounds
    }
    assert grown == {}


# ---------------------------------------------------------------------------
# shutdown drains per session
# ---------------------------------------------------------------------------
def test_stop_waits_for_the_in_flight_round():
    async def drive() -> bool:
        service = ServeService()
        await service.handle(_create("c", _chain(60)))
        round_ = asyncio.create_task(service.handle(
            {"op": "retract", "session": "c", "facts": [["E", [30, 31]]]}
        ))
        while not service.sessions["c"].lock.locked():
            await asyncio.sleep(0)
        await ReproServer(service).stop()
        done = round_.done()
        assert (await round_)["ok"]
        return done

    assert run(asyncio.wait_for(drive(), 120))
