"""The determinacy service: ops, coalescing, cache, socket, --once."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.serve import ProgramCache, ReproServer, ServeService

TC_TEXT = (
    "Reach(x,y) <- E(x,y). "
    "Reach(x,y) <- E(x,z), Reach(z,y). "
    "Goal(y) <- S(x), Reach(x,y)."
)


def run(coro):
    return asyncio.run(coro)


def _create(session="s", **extra):
    return {
        "op": "create", "session": session, "program": TC_TEXT,
        "instance": "E('a','b'). S('a').", **extra,
    }


# ---------------------------------------------------------------------------
# op dispatch (no socket)
# ---------------------------------------------------------------------------
def test_create_insert_query_retract_query_lifecycle():
    async def drive():
        service = ServeService()
        created = await service.handle(_create())
        assert created["ok"] and created["session"] == "s"
        assert created["idb"] == ["Goal", "Reach"]

        inserted = await service.handle({
            "op": "insert", "session": "s",
            "facts": [["E", ["b", "c"]]],
        })
        assert inserted["ok"] and inserted["round"]["round"] == 1

        rows = await service.handle(
            {"op": "query", "session": "s", "pred": "Goal"}
        )
        assert rows["rows"] == [["b"], ["c"]]

        retracted = await service.handle({
            "op": "retract", "session": "s",
            "facts": [["E", ["a", "b"]]],
        })
        assert retracted["ok"] and retracted["round"]["deleted"] > 0

        rows = await service.handle(
            {"op": "query", "session": "s", "pred": "Goal"}
        )
        assert rows["rows"] == []

        closed = await service.handle({"op": "close", "session": "s"})
        assert closed["closed"] and closed["rounds"] == 2
        assert "s" not in service.sessions

    run(drive())


def test_certify_sessions_ship_checked_certificates():
    async def drive():
        service = ServeService(certify=True)
        await service.handle(_create())
        response = await service.handle({
            "op": "insert", "session": "s",
            "facts": [["E", ["b", "c"]]],
        })
        verdict = response["certificate"]
        assert verdict["valid"] is True
        assert verdict["claims"] == 1
        assert verdict["schema"] == 3

    run(drive())


def test_certified_rounds_stay_valid_after_a_wrong_arity_insert():
    """Regression: an interpreted session fed ``E(z)`` stored a
    non-ground ``T(z, ?y)`` and a wrong ``T(z, b)``, and every later
    certified round of the session read invalid."""
    async def drive():
        service = ServeService(certify=True)
        await service.handle({
            "op": "create", "session": "s", "backend": "interpreted",
            "program": "T(x,y) <- E(x,y). T(x,y) <- E(x,z), T(z,y).",
            "instance": "E('a','b').",
        })
        for op, facts in [
            ("insert", [["E", ["z"]]]),
            ("insert", [["E", ["b", "c"]]]),
            ("retract", [["E", ["a", "b"]]]),
        ]:
            response = await service.handle(
                {"op": op, "session": "s", "facts": facts}
            )
            assert response["ok"], response
            assert response["certificate"]["valid"] is True, response
        rows = await service.handle(
            {"op": "query", "session": "s", "pred": "T"}
        )
        assert rows["rows"] == [["b", "c"]]

    run(drive())


def test_protocol_errors_are_in_band_not_fatal():
    async def drive():
        service = ServeService()
        for request, needle in [
            ({"op": "frobnicate"}, "unknown op"),
            ({"op": "query", "session": "nope", "pred": "X"},
             "no such session"),
            ({"op": "create", "session": "s"}, "program"),
            ({"op": "create", "session": "s", "program": "Goal(x <-"},
             ""),  # parse error text varies; ok flag matters
            (_create(backend="auto"), "unknown backend"),
            ("not a dict", "JSON object"),
        ]:
            response = await service.handle(request)
            assert response["ok"] is False
            assert needle in response.get("error", "")
        # the service still works after every error
        assert (await service.handle(_create()))["ok"]

    run(drive())


def test_bad_facts_rejected_before_any_mutation():
    async def drive():
        service = ServeService()
        await service.handle(_create())
        before = len(service.sessions["s"].view.state)
        response = await service.handle({
            "op": "insert", "session": "s", "facts": [["E", [[1], 2]]],
        })
        assert response["ok"] is False
        assert "scalar" in response["error"]
        assert len(service.sessions["s"].view.state) == before

    run(drive())


def test_duplicate_session_rejected():
    async def drive():
        service = ServeService()
        assert (await service.handle(_create()))["ok"]
        dup = await service.handle(_create())
        assert not dup["ok"] and "already exists" in dup["error"]

    run(drive())


def test_concurrent_updates_coalesce_into_one_round():
    async def drive():
        service = ServeService()
        await service.handle(_create())
        session = service.sessions["s"]
        # enqueue while the session lock is held: both updates land in
        # the queue, one leader drains them into a single round
        async with session.lock:
            tasks = [
                asyncio.create_task(service.handle({
                    "op": "insert", "session": "s",
                    "facts": [["E", [i, i + 1]]],
                }))
                for i in (10, 20, 30)
            ]
            await asyncio.sleep(0)  # let all three enqueue
        first, second, third = await asyncio.gather(*tasks)
        assert first == second == third
        assert first["coalesced"] == 3
        assert session.view.rounds == 1
        assert session.view.state == session.view.recompute()

    run(drive())


def test_program_cache_hits_across_sessions():
    async def drive():
        service = ServeService()
        a = await service.handle(_create(session="a"))
        b = await service.handle(_create(session="b"))
        assert a["cached_program"] is False
        assert b["cached_program"] is True
        assert a["program_sha256"] == b["program_sha256"]
        stats = await service.handle({"op": "stats", "session": "b"})
        assert stats["cache"] == {"hits": 1, "misses": 1, "entries": 1}

    run(drive())


def test_stats_op_reports_engine_counters():
    async def drive():
        service = ServeService()
        await service.handle(_create())
        await service.handle({
            "op": "update", "session": "s",
            "inserts": [["E", ["b", "c"]]], "retracts": [["S", ["a"]]],
        })
        stats = await service.handle({"op": "stats", "session": "s"})
        assert stats["rounds"] == 1
        assert stats["engine"]["ivm_rounds"] == 1
        assert stats["engine"]["ivm_inserted"] > 0

    run(drive())


def test_reap_idle_drops_only_stale_sessions():
    async def drive():
        service = ServeService()
        await service.handle(_create(session="old"))
        service.sessions["old"].last_used -= 100.0
        await service.handle(_create(session="fresh"))
        assert service.reap_idle(50.0) == ["old"]
        assert set(service.sessions) == {"fresh"}

    run(drive())


def test_cache_eviction_is_lru():
    cache = ProgramCache(capacity=2)
    cache.fetch("T(x,y) <- E(x,y).", False)
    cache.fetch("U(x,y) <- E(x,y).", False)
    cache.fetch("T(x,y) <- E(x,y).", False)  # refresh T
    cache.fetch("V(x,y) <- E(x,y).", False)  # evicts U
    assert len(cache) == 2
    _, _, cached = cache.fetch("T(x,y) <- E(x,y).", False)
    assert cached is True
    _, _, cached = cache.fetch("U(x,y) <- E(x,y).", False)
    assert cached is False


# ---------------------------------------------------------------------------
# the socket layer
# ---------------------------------------------------------------------------
def test_socket_round_trip_and_graceful_shutdown():
    async def wrapped():
        service = ServeService(certify=True)
        server = ReproServer(service, port=0, request_timeout=10.0)
        runner = asyncio.create_task(server.run())
        while server._server is None:  # started?
            await asyncio.sleep(0.01)
        host, port = server.address
        reader, writer = await asyncio.open_connection(host, port)

        async def rpc(obj):
            writer.write(json.dumps(obj).encode() + b"\n")
            await writer.drain()
            return json.loads(await reader.readline())

        pong = await rpc({"op": "ping"})
        assert pong["ok"] and pong["protocol"] == 1
        assert (await rpc(_create()))["ok"]
        inserted = await rpc({
            "op": "insert", "session": "s",
            "facts": [["E", ["b", "c"]]],
        })
        assert inserted["certificate"]["valid"] is True

        bad = await rpc({"op": "query", "session": "s"})
        assert not bad["ok"]  # missing pred reported in-band

        garbage = await rpc(["not", "an", "object"])
        assert not garbage["ok"]

        writer.write(b"this is not json\n")
        await writer.drain()
        broken = json.loads(await reader.readline())
        assert "invalid JSON" in broken["error"]

        down = await rpc({"op": "shutdown"})
        assert down["shutting_down"] is True
        writer.close()
        await asyncio.wait_for(runner, timeout=5.0)

    run(wrapped())


def test_idle_connection_dropped_after_request_timeout():
    async def drive():
        service = ServeService()
        server = ReproServer(service, port=0, request_timeout=0.2)
        await server.start()
        host, port = server.address
        reader, writer = await asyncio.open_connection(host, port)
        # no request: the server must hang up on us
        line = await asyncio.wait_for(reader.readline(), timeout=5.0)
        assert line == b""  # EOF
        writer.close()
        await server.stop()

    run(drive())


async def _rpc(reader, writer, line: bytes) -> dict:
    writer.write(line + b"\n")
    await writer.drain()
    return json.loads(await reader.readline())


def test_a_line_that_is_not_utf8_is_answered_and_the_connection_lives():
    async def drive():
        server = ReproServer(ServeService(), port=0, request_timeout=10.0)
        await server.start()
        reader, writer = await asyncio.open_connection(*server.address)
        broken = await _rpc(reader, writer, b'{"op":"ping","x":"\xff\xfe"}')
        assert broken["ok"] is False and "invalid JSON" in broken["error"]
        assert (await _rpc(reader, writer, b'{"op":"ping"}'))["ok"] is True
        writer.close()
        await writer.wait_closed()
        await server.stop()

    run(drive())


def test_a_create_above_64_kib_is_read_whole():
    async def drive():
        server = ReproServer(ServeService(), port=0, request_timeout=10.0)
        await server.start()
        reader, writer = await asyncio.open_connection(*server.address)
        facts = [["S", [f"n{i}"]] for i in range(6000)]
        line = json.dumps({**_create(), "facts": facts}).encode()
        assert len(line) > 64 * 1024
        created = await _rpc(reader, writer, line)
        assert created["ok"] is True and created["facts"] > 6000
        writer.close()
        await writer.wait_closed()
        await server.stop()

    run(drive())


def test_a_line_over_the_limit_is_answered_and_sessions_survive(monkeypatch):
    from repro.serve import service as service_module

    monkeypatch.setattr(service_module, "REQUEST_LIMIT", 4096)

    async def drive():
        server = ReproServer(ServeService(), port=0, request_timeout=10.0)
        await server.start()
        keeper = await asyncio.open_connection(*server.address)
        assert (await _rpc(*keeper, json.dumps(_create()).encode()))["ok"]

        reader, writer = await asyncio.open_connection(*server.address)
        huge = json.dumps({"op": "ping", "pad": "x" * 10_000}).encode()
        refused = await _rpc(reader, writer, huge)
        assert refused["ok"] is False
        assert "exceeds 4096 bytes" in refused["error"]
        assert await reader.readline() == b""  # framing lost: hung up
        writer.close()
        await writer.wait_closed()

        query = {"op": "query", "session": "s", "pred": "Goal"}
        rows = await _rpc(*keeper, json.dumps(query).encode())
        assert rows["ok"] is True and rows["rows"] == [["b"]]
        keeper[1].close()
        await keeper[1].wait_closed()
        await server.stop()

    run(drive())


def test_an_op_that_raises_answers_in_band(monkeypatch):
    async def drive():
        service = ServeService()

        async def broken(request):
            raise RuntimeError("planted failure")

        monkeypatch.setattr(service, "_op_ping", broken)
        assert await service.handle({"op": "ping"}) == {
            "ok": False, "op": "ping", "error": "RuntimeError: planted failure",
        }
        assert (await service.handle(_create()))["ok"] is True

    run(drive())


# ---------------------------------------------------------------------------
# --once scripted mode
# ---------------------------------------------------------------------------
def test_once_runs_the_shipped_example_script(capsys):
    from pathlib import Path

    from repro.serve.cli import run_script

    script = (
        Path(__file__).resolve().parents[2]
        / "examples" / "inputs" / "serve_session.json"
    )
    assert run_script(script) == 0
    lines = [
        json.loads(line)
        for line in capsys.readouterr().out.strip().splitlines()
    ]
    assert all(line["ok"] for line in lines)
    certified = [line for line in lines if "certificate" in line]
    assert certified, "script must exercise certified rounds"
    assert all(line["certificate"]["valid"] for line in certified)


def test_once_fails_on_invalid_request(tmp_path, capsys):
    from repro.serve.cli import run_script

    script = tmp_path / "bad.json"
    script.write_text(json.dumps([
        {"op": "query", "session": "ghost", "pred": "X"},
    ]))
    assert run_script(script) == 1


def test_once_cli_entry_point(capsys):
    from pathlib import Path

    from repro.cli import main

    script = (
        Path(__file__).resolve().parents[2]
        / "examples" / "inputs" / "serve_session.json"
    )
    assert main(["serve", "--once", str(script)]) == 0
    out = capsys.readouterr().out
    assert '"ok": true' in out


def test_rejects_unknown_backend():
    with pytest.raises(ValueError):
        ServeService(backend="warp-drive")


# ---------------------------------------------------------------------------
# analysis-driven admission (--max-delta)
# ---------------------------------------------------------------------------
def test_create_reports_maintenance_strategies():
    async def drive():
        service = ServeService()
        created = await service.handle(_create())
        assert created["maintain"] == {
            "Goal": "counting", "Reach": "dred",
        }

    run(drive())


def test_updates_carry_the_predicted_delta_bound():
    async def drive():
        service = ServeService()
        await service.handle(_create())
        response = await service.handle({
            "op": "insert", "session": "s",
            "facts": [["E", ["b", "c"]]],
        })
        assert response["ok"]
        predicted = response["predicted_delta"]
        assert isinstance(predicted, int)
        moved = (
            response["round"]["inserted"] + response["round"]["deleted"]
        )
        assert moved <= predicted

    run(drive())


def test_over_threshold_update_rejected_in_band_never_fatal():
    async def drive():
        service = ServeService(max_delta=0)
        await service.handle(_create())
        rejected = await service.handle({
            "op": "insert", "session": "s",
            "facts": [["E", ["b", "c"]]],
        })
        assert rejected["ok"] is False
        assert rejected["rejected"] is True
        assert rejected["predicted_delta"] > 0
        assert "max-delta" in rejected["error"]
        # the base was never touched and the session still works
        rows = await service.handle(
            {"op": "query", "session": "s", "pred": "Reach"}
        )
        assert rows["rows"] == [["a", "b"]]

    run(drive())


def test_a_failing_round_answers_in_band(monkeypatch):
    async def drive():
        service = ServeService()
        await service.handle(_create())
        view = service.sessions["s"].view

        def broken(*args, **kwargs):
            raise RuntimeError("ivm: planted failure")

        monkeypatch.setattr(view, "apply", broken)
        response = await service.handle({
            "op": "insert", "session": "s",
            "facts": [["E", ["b", "c"]]],
        })
        assert response["ok"] is False
        assert response["error"] == "RuntimeError: ivm: planted failure"
        assert (await service.handle({"op": "ping"}))["ok"] is True

    run(drive())


def test_generous_threshold_admits_updates():
    async def drive():
        service = ServeService(max_delta=10**9)
        await service.handle(_create())
        response = await service.handle({
            "op": "insert", "session": "s",
            "facts": [["E", ["b", "c"]]],
        })
        assert response["ok"]
        assert response["round"]["inserted"] >= 1

    run(drive())


def test_negative_max_delta_rejected():
    with pytest.raises(ValueError):
        ServeService(max_delta=-1)


def test_once_threads_max_delta(tmp_path, capsys):
    from repro.serve.cli import run_script

    script = tmp_path / "script.json"
    script.write_text(json.dumps([
        _create(),
        {"op": "insert", "session": "s", "facts": [["E", ["b", "c"]]]},
    ]))
    assert run_script(script, max_delta=0) == 1
    lines = [
        json.loads(line)
        for line in capsys.readouterr().out.strip().splitlines()
        if line.startswith("{")
    ]
    assert lines[-1]["rejected"] is True
