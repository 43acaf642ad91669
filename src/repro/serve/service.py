"""The determinacy service: sessions, program cache, JSON-lines server.

Three layers, outermost first:

* :class:`ReproServer` — a stdlib ``asyncio`` TCP server speaking
  newline-delimited JSON.  Connections are independent; requests on one
  connection are handled in order, requests across connections
  interleave freely.  An idle connection is dropped after
  ``request_timeout`` seconds, idle sessions are reaped after
  ``session_timeout``, and the ``shutdown`` op drains in-flight
  maintenance before the sockets close.
* :class:`ServeService` — the transport-agnostic op dispatcher.  The
  ``--once`` scripted mode drives it directly, no socket involved, so
  the smoke test and the live server exercise identical code.
* :class:`Session` — one named :class:`repro.ivm.MaterializedView`
  plus its coalescing queue.  Concurrent ``insert``/``retract``/
  ``update`` requests against the same session are merged into a
  *single* maintenance round: every waiter receives the shared round
  report (with ``coalesced`` = batch size).  Retractions across a
  merged batch apply before insertions, matching
  :meth:`MaterializedView.apply`; concurrent conflicting updates to
  the same fact have no ordering guarantee (they raced).

Maintenance rounds run in a worker thread (``asyncio.to_thread``) so
the event loop keeps accepting — and therefore coalescing — requests
while a round is in flight.  Each session serializes on its own lock;
rounds of different sessions may overlap.  Every round, and every
session's initial fixpoint, runs in its own run context
(:func:`repro.core.context.running`) with the session's stats as the
collector, so overlapping rounds never count into or audit each other.
``query`` and ``stats`` take the session lock too: they see the state
before a round or after it, never halfway through.

Compiled programs are cached across sessions in :class:`ProgramCache`,
keyed on content-addressed fingerprints: the hash of every source file
in the ``repro`` package (so an engine edit invalidates everything),
the hash of the program text, and the optimize flag.  A cache hit
skips both parsing and the certified syntactic optimizer.

When a session is created with ``certify`` (or the service default is
on), every maintenance round's response carries an ``ivm_state``
certificate verdict from the independent replay checker — the
service's running proof that incremental state equals the from-scratch
fixpoint.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import time
from collections import OrderedDict
from typing import Any, Callable, Optional

from repro.core import parse_instance, parse_program
from repro.core import stats as _stats
from repro.core.atoms import Fact
from repro.core.backend import backend_names
from repro.core.context import RunConfig, current, running
from repro.core.datalog import DatalogProgram
from repro.core.instance import Instance
from repro.core.parser import ParseError
from repro.core.stats import EngineStats
from repro.ivm import MaintenanceRound, MaterializedView

#: bumped when the request/response vocabulary changes incompatibly
PROTOCOL = 1

#: the longest request line a connection reads (asyncio's stream
#: default is 64 KiB, below a create carrying a realistic instance)
REQUEST_LIMIT = 16 * 2**20

OPS = (
    "ping", "create", "insert", "retract", "update",
    "query", "stats", "close", "shutdown",
)


class ProtocolError(ValueError):
    """A malformed request — reported to the client, never fatal."""


# ---------------------------------------------------------------------------
# program cache
# ---------------------------------------------------------------------------
class ProgramCache:
    """LRU of compiled (and optionally optimized) programs.

    Keys are ``(code fingerprint, sha256(program text), optimize)``:
    content-addressed on both the engine sources and the program, so a
    stale entry is structurally impossible — any edit to either side
    changes the key.  Values keep the *source* program alongside the
    maintained one because certificates must claim the pre-optimizer
    program.
    """

    def __init__(self, capacity: int = 64) -> None:
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._code: Optional[str] = None
        self._entries: OrderedDict[
            tuple[str, str, bool], tuple[DatalogProgram, DatalogProgram]
        ] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def _code_fingerprint(self) -> str:
        if self._code is None:
            from repro.harness.cache import code_fingerprint

            self._code = code_fingerprint()
        return self._code

    def key(self, text: str, optimize: bool) -> tuple[str, str, bool]:
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return (self._code_fingerprint(), digest, bool(optimize))

    def fetch(
        self, text: str, optimize: bool
    ) -> tuple[DatalogProgram, DatalogProgram, bool]:
        """``(source, maintained, was_cached)`` for program ``text``."""
        key = self.key(text, optimize)
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[0], entry[1], True
        self.misses += 1
        source = parse_program(text)
        maintained = source
        if optimize:
            from repro.analysis.optimize import (
                OPTIMIZE_RULE_LIMIT,
                syntactic_fixpoint_program,
            )

            if len(source.rules) <= OPTIMIZE_RULE_LIMIT:
                with _stats.suspended():
                    maintained = syntactic_fixpoint_program(source)
        self._entries[key] = (source, maintained)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
        return source, maintained, False


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------
_PendingUpdate = tuple[
    "list[Fact]", "list[Fact]", "asyncio.Future[dict[str, Any]]"
]


class Session:
    """One client-visible materialization plus its coalescing queue."""

    def __init__(
        self, name: str, view: MaterializedView, *, certify: bool
    ) -> None:
        self.name = name
        self.view = view
        self.certify = certify
        self.stats = EngineStats()
        self.created = time.monotonic()
        self.last_used = time.monotonic()
        self.pending: list[_PendingUpdate] = []
        self.lock = asyncio.Lock()
        # the program-only stratum plan, built once for the session's
        # lifetime (the classification is instance-independent; only
        # the numeric delta bounds are re-derived per update)
        self.maintain = view.maintenance_plan()

    def touch(self) -> None:
        self.last_used = time.monotonic()


def _decode_facts(payload: Any, field: str) -> list[Fact]:
    """``[["E", [1, 2]], ...]`` → ground facts, or :class:`ProtocolError`."""
    if payload is None:
        return []
    if not isinstance(payload, list):
        raise ProtocolError(f"{field!r} must be a list of [pred, args] pairs")
    facts: list[Fact] = []
    for entry in payload:
        if (
            not isinstance(entry, (list, tuple))
            or len(entry) != 2
            or not isinstance(entry[0], str)
            or not isinstance(entry[1], (list, tuple))
        ):
            raise ProtocolError(
                f"{field!r} entries must be [pred, [arg, ...]] pairs, "
                f"got {entry!r}"
            )
        pred, args = entry
        for arg in args:
            if isinstance(arg, (list, dict)):
                raise ProtocolError(
                    f"fact arguments must be scalars, got {arg!r}"
                )
        facts.append(Fact(pred, tuple(args)))
    return facts


def _require_str(request: dict[str, Any], field: str) -> str:
    value = request.get(field)
    if not isinstance(value, str) or not value:
        raise ProtocolError(f"request needs a non-empty string {field!r}")
    return value


# ---------------------------------------------------------------------------
# the op dispatcher
# ---------------------------------------------------------------------------
class ServeService:
    """Transport-agnostic request handler.

    Every op returns a JSON-ready dict with an ``ok`` flag; protocol
    and evaluation errors are reported in-band (``ok: false`` plus an
    ``error`` string) and never tear down the service.
    """

    def __init__(
        self,
        *,
        optimize: bool = False,
        backend: Optional[str] = None,
        certify: bool = False,
        session_limit: int = 64,
        cache: Optional[ProgramCache] = None,
        max_delta: Optional[int] = None,
    ) -> None:
        if max_delta is not None and max_delta < 0:
            raise ValueError("max_delta must be non-negative")
        #: defaults for new sessions, and the run every round and
        #: initial fixpoint executes in (``backend=None``: the current
        #: run's engine)
        self.config = RunConfig(
            backend=backend if backend is not None
            else current().config.backend,
            optimize=bool(optimize),
        )
        self.certify = bool(certify)
        #: analysis-driven admission: updates whose predicted delta
        #: bound exceeds this are rejected in-band (None: accept all)
        self.max_delta = max_delta
        self.session_limit = session_limit
        self.cache = cache if cache is not None else ProgramCache()
        self.sessions: dict[str, Session] = {}
        self.shutdown_requested = asyncio.Event()

    # -- dispatch ------------------------------------------------------
    async def handle(self, request: Any) -> dict[str, Any]:
        if not isinstance(request, dict):
            return {"ok": False, "error": "request must be a JSON object"}
        op = request.get("op")
        if op not in OPS:
            return {
                "ok": False,
                "error": f"unknown op {op!r} (one of: {', '.join(OPS)})",
            }
        handler = getattr(self, f"_op_{op}")
        try:
            result: dict[str, Any] = await handler(request)
            return result
        except (ProtocolError, ParseError, ValueError) as exc:
            return {"ok": False, "op": op, "error": str(exc)}
        except Exception as exc:  # any other failure is answered too
            return {
                "ok": False, "op": op,
                "error": f"{type(exc).__name__}: {exc}",
            }

    def _session(self, request: dict[str, Any]) -> Session:
        name = _require_str(request, "session")
        session = self.sessions.get(name)
        if session is None:
            raise ProtocolError(f"no such session {name!r}")
        session.touch()
        return session

    # -- ops -----------------------------------------------------------
    async def _op_ping(self, request: dict[str, Any]) -> dict[str, Any]:
        return {
            "ok": True,
            "protocol": PROTOCOL,
            "sessions": sorted(self.sessions),
        }

    async def _op_create(self, request: dict[str, Any]) -> dict[str, Any]:
        name = _require_str(request, "session")
        if name in self.sessions:
            raise ProtocolError(f"session {name!r} already exists")
        if len(self.sessions) >= self.session_limit:
            raise ProtocolError(
                f"session limit reached ({self.session_limit})"
            )
        text = _require_str(request, "program")
        optimize = bool(request.get("optimize", self.config.optimize))
        backend = request.get("backend")
        if backend is None:
            backend = self.config.backend
        elif backend not in backend_names():
            raise ProtocolError(f"unknown backend {backend!r}")
        certify = bool(request.get("certify", self.certify))

        source, maintained, cached = self.cache.fetch(text, optimize)
        base = Instance()
        instance_text = request.get("instance")
        if instance_text is not None:
            if not isinstance(instance_text, str):
                raise ProtocolError("'instance' must be a program string")
            base = parse_instance(instance_text)
        base.update(_decode_facts(request.get("facts"), "facts"))

        # the initial fixpoint is a maintenance-sized computation: run
        # it off-loop
        view: MaterializedView = await asyncio.to_thread(
            self._in_run, None, MaterializedView,
            maintained, base, optimize=False, backend=backend,
        )
        # the cache already ran the optimizer; re-point the certificate
        # subject at the pre-optimizer program
        view.source_program = source
        view.optimize = optimize
        session = Session(name, view, certify=certify)
        self.sessions[name] = session
        return {
            "ok": True,
            "session": name,
            "cached_program": cached,
            "program_sha256": self.cache.key(text, optimize)[1],
            "optimize": optimize,
            "backend": view.backend,
            "certify": certify,
            "facts": len(view.state),
            "idb": sorted(view.program.idb_predicates()),
            "maintain": view.maintenance_strategies(),
        }

    async def _op_insert(self, request: dict[str, Any]) -> dict[str, Any]:
        session = self._session(request)
        facts = _decode_facts(request.get("facts"), "facts")
        return await self._apply_update(session, facts, [])

    async def _op_retract(self, request: dict[str, Any]) -> dict[str, Any]:
        session = self._session(request)
        facts = _decode_facts(request.get("facts"), "facts")
        return await self._apply_update(session, [], facts)

    async def _op_update(self, request: dict[str, Any]) -> dict[str, Any]:
        session = self._session(request)
        inserts = _decode_facts(request.get("inserts"), "inserts")
        retracts = _decode_facts(request.get("retracts"), "retracts")
        return await self._apply_update(session, inserts, retracts)

    async def _op_query(self, request: dict[str, Any]) -> dict[str, Any]:
        session = self._session(request)
        pred = _require_str(request, "pred")
        async with session.lock:
            rows = sorted(session.view.query(pred), key=repr)
        return {
            "ok": True,
            "session": session.name,
            "pred": pred,
            "rows": [list(row) for row in rows],
        }

    async def _op_stats(self, request: dict[str, Any]) -> dict[str, Any]:
        session = self._session(request)
        async with session.lock:
            rounds = session.view.rounds
            facts = len(session.view.state)
            engine = session.stats.to_dict()
        return {
            "ok": True,
            "session": session.name,
            "rounds": rounds,
            "facts": facts,
            "engine": engine,
            "cache": {
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "entries": len(self.cache),
            },
        }

    async def _op_close(self, request: dict[str, Any]) -> dict[str, Any]:
        session = self._session(request)
        del self.sessions[session.name]
        return {
            "ok": True,
            "session": session.name,
            "closed": True,
            "rounds": session.view.rounds,
        }

    async def _op_shutdown(self, request: dict[str, Any]) -> dict[str, Any]:
        self.shutdown_requested.set()
        return {"ok": True, "shutting_down": True}

    # -- coalesced maintenance -----------------------------------------
    async def _apply_update(
        self, session: Session, inserts: list[Fact], retracts: list[Fact]
    ) -> dict[str, Any]:
        """Queue an update; the first waiter through the session lock
        drains the whole queue into one maintenance round and fans the
        shared report out to every waiter."""
        loop = asyncio.get_running_loop()
        waiter: asyncio.Future[dict[str, Any]] = loop.create_future()
        session.pending.append((inserts, retracts, waiter))
        async with session.lock:
            if not waiter.done():
                batch, session.pending = session.pending, []
                merged_ins = [f for group in batch for f in group[0]]
                merged_del = [f for group in batch for f in group[1]]
                response = await self._run_round(
                    session, merged_ins, merged_del, len(batch)
                )
                for _, _, pending in batch:
                    if not pending.done():
                        pending.set_result(response)
        return waiter.result()

    async def _run_round(
        self,
        session: Session,
        inserts: list[Fact],
        retracts: list[Fact],
        coalesced: int,
    ) -> dict[str, Any]:
        try:
            predicted: Optional[int] = None
            if session.maintain is not None:
                predicted = await asyncio.to_thread(
                    session.view.predict_delta,
                    len(inserts) + len(retracts),
                )
            if (
                self.max_delta is not None
                and predicted is not None
                and predicted > self.max_delta
            ):
                # admission control: the update is refused in-band
                # (never fatal) before any maintenance work runs
                return {
                    "ok": False,
                    "session": session.name,
                    "error": (
                        f"update rejected: predicted delta bound "
                        f"{predicted} exceeds max-delta "
                        f"{self.max_delta}"
                    ),
                    "rejected": True,
                    "predicted_delta": predicted,
                    "coalesced": coalesced,
                }
            round_: MaintenanceRound = await asyncio.to_thread(
                self._in_run, session.stats, session.view.apply,
                inserts, retracts,
            )
            response: dict[str, Any] = {
                "ok": True,
                "session": session.name,
                "round": round_.as_dict(),
                "coalesced": coalesced,
            }
            if predicted is not None:
                response["predicted_delta"] = predicted
            if session.certify:
                response["certificate"] = await asyncio.to_thread(
                    self._certificate_verdict, session
                )
            return response
        except Exception as exc:  # every coalesced waiter gets an answer
            return {
                "ok": False,
                "session": session.name,
                "error": f"{type(exc).__name__}: {exc}",
            }

    def _in_run(
        self,
        stats: Optional[EngineStats],
        fn: Callable[..., Any],
        *args: Any,
        **kwargs: Any,
    ) -> Any:
        """``fn(*args, **kwargs)`` in a fresh run of the service's
        config, counting into ``stats`` (a session's collector)."""
        with running(self.config, stats):
            return fn(*args, **kwargs)

    def _certificate_verdict(self, session: Session) -> dict[str, Any]:
        """Emit + independently check an ``ivm_state`` certificate."""
        from repro.certify import check_certificate

        cert = session.view.certificate(meta={"session": session.name})
        result = check_certificate(cert)
        verdict: dict[str, Any] = {
            "valid": result.valid,
            "claims": result.claims,
            "schema": cert["schema"],
        }
        if not result.valid:
            verdict["failures"] = list(result.failures)[:3]
        return verdict

    def reap_idle(self, timeout: float) -> list[str]:
        """Drop sessions idle longer than ``timeout`` seconds."""
        now = time.monotonic()
        stale = [
            name
            for name, session in self.sessions.items()
            if now - session.last_used > timeout and not session.pending
        ]
        for name in stale:
            del self.sessions[name]
        return stale


# ---------------------------------------------------------------------------
# the socket server
# ---------------------------------------------------------------------------
class ReproServer:
    """JSON-lines-over-TCP front end for a :class:`ServeService`."""

    def __init__(
        self,
        service: ServeService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        request_timeout: Optional[float] = 300.0,
        session_timeout: Optional[float] = None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.request_timeout = request_timeout
        self.session_timeout = session_timeout
        self._server: Optional[asyncio.base_events.Server] = None
        self._reaper: Optional[asyncio.Task[None]] = None

    @property
    def address(self) -> tuple[str, int]:
        assert self._server is not None, "server not started"
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return str(host), int(port)

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._client, self.host, self.port, limit=REQUEST_LIMIT
        )
        if self.session_timeout is not None:
            self._reaper = asyncio.create_task(self._reap_loop())

    async def stop(self) -> None:
        if self._reaper is not None:
            self._reaper.cancel()
            try:
                await self._reaper
            except asyncio.CancelledError:
                pass
            self._reaper = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # drain every in-flight maintenance round before reporting done
        for session in list(self.service.sessions.values()):
            async with session.lock:
                pass

    async def run(self) -> None:
        """Start, serve until a ``shutdown`` op, stop gracefully."""
        await self.start()
        try:
            await self.service.shutdown_requested.wait()
        finally:
            await self.stop()

    async def _reap_loop(self) -> None:
        assert self.session_timeout is not None
        interval = max(self.session_timeout / 4.0, 0.05)
        while True:
            await asyncio.sleep(interval)
            self.service.reap_idle(self.session_timeout)

    async def _client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while not self.service.shutdown_requested.is_set():
                try:
                    line = await asyncio.wait_for(
                        reader.readline(), self.request_timeout
                    )
                except asyncio.TimeoutError:
                    break  # idle connection: drop it
                except ValueError:
                    # over the limit: the rest of the line is still on
                    # the wire, so the framing is lost; answer, then hang up
                    await self._reply(writer, {
                        "ok": False,
                        "error": (
                            f"request line exceeds {REQUEST_LIMIT} bytes"
                        ),
                    })
                    break
                if not line:
                    break  # client hung up
                if not line.strip():
                    continue
                try:
                    request = json.loads(line)
                except ValueError as exc:  # bad JSON or bad UTF-8
                    response: dict[str, Any] = {
                        "ok": False,
                        "error": f"invalid JSON: {exc}",
                    }
                else:
                    response = await self.service.handle(request)
                await self._reply(writer, response)
        except ConnectionResetError:
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,
            ):
                pass  # cleanup only: the handler ends either way

    @staticmethod
    async def _reply(
        writer: asyncio.StreamWriter, response: dict[str, Any]
    ) -> None:
        writer.write(
            json.dumps(response, sort_keys=True, default=repr).encode("utf-8")
            + b"\n"
        )
        await writer.drain()
