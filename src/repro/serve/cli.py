"""``repro serve`` — CLI front end for the determinacy service.

Two modes share one dispatcher (:class:`repro.serve.ServeService`):

* socket mode (default) binds a JSON-lines TCP server and runs until a
  client sends ``{"op": "shutdown"}`` or the process is interrupted;
* ``--once SCRIPT`` replays a scripted session from a JSON file —
  either a bare list of requests or ``{"requests": [...]}`` — printing
  one response per line and exiting non-zero if any request fails or
  any round's ``ivm_state`` certificate is rejected by the independent
  checker.  CI smokes the service this way.
"""

from __future__ import annotations

import argparse
import asyncio
import json
from pathlib import Path
from typing import Any, Optional

from repro.core.backend import backend_names
from repro.serve.service import ReproServer, ServeService


def add_serve_parser(sub: Any) -> None:
    from repro.cli import at_least

    serve = sub.add_parser(
        "serve",
        help="long-lived incremental determinacy service (JSON lines)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (socket mode)"
    )
    serve.add_argument(
        "--port", type=int, default=8642,
        help="bind port (socket mode; 0 picks a free port)",
    )
    serve.add_argument(
        "--once", metavar="SCRIPT", default=None,
        help="replay a scripted session from a JSON file and exit",
    )
    serve.add_argument(
        "--certify", action="store_true",
        help="attach an independently checked ivm_state certificate "
        "verdict to every maintenance round",
    )
    serve.add_argument(
        "--optimize", action="store_true",
        help="run new sessions' programs through the certified optimizer",
    )
    serve.add_argument(
        "--backend", choices=backend_names(), default=None,
        help="default evaluation backend for new sessions",
    )
    serve.add_argument(
        "--max-delta", type=at_least(0), default=None, metavar="N",
        help="reject updates whose statically predicted delta bound "
        "exceeds N (in-band error, never fatal)",
    )
    serve.add_argument(
        "--timeout", type=float, default=300.0,
        help="idle seconds before a connection is dropped and a "
        "session is reaped (socket mode)",
    )
    serve.set_defaults(func=cmd_serve)


def _service(args: argparse.Namespace) -> ServeService:
    return ServeService(
        optimize=bool(args.optimize),
        backend=args.backend,
        certify=bool(args.certify),
        max_delta=args.max_delta,
    )


def load_script(path: Path) -> list[dict[str, Any]]:
    data = json.loads(path.read_text("utf-8"))
    if isinstance(data, dict):
        data = data.get("requests")
    if not isinstance(data, list):
        raise ValueError(
            f"{path}: script must be a JSON list of requests or an "
            "object with a 'requests' list"
        )
    return data


def run_script(
    path: Path,
    *,
    optimize: bool = False,
    backend: Optional[str] = None,
    certify: bool = False,
    max_delta: Optional[int] = None,
) -> int:
    """Drive a service through a scripted session; 0 iff all ok."""
    requests = load_script(path)
    service = ServeService(
        optimize=optimize,
        backend=backend,
        certify=certify,
        max_delta=max_delta,
    )

    async def _drive() -> list[dict[str, Any]]:
        return [await service.handle(request) for request in requests]

    responses = asyncio.run(_drive())
    failures = 0
    for response in responses:
        print(json.dumps(response, sort_keys=True, default=repr))
        if not response.get("ok"):
            failures += 1
        verdict = response.get("certificate")
        if verdict is not None and not verdict.get("valid"):
            failures += 1
    if failures:
        print(f"serve --once: {failures} failing response(s)")
        return 1
    return 0


async def _serve_socket(args: argparse.Namespace) -> None:
    service = _service(args)
    server = ReproServer(
        service,
        host=args.host,
        port=args.port,
        request_timeout=args.timeout,
        session_timeout=args.timeout,
    )
    await server.start()
    host, port = server.address
    print(f"repro serve: listening on {host}:{port}", flush=True)
    try:
        await service.shutdown_requested.wait()
        print("repro serve: shutdown requested, draining", flush=True)
    finally:
        await server.stop()


def cmd_serve(args: argparse.Namespace) -> int:
    if args.once is not None:
        return run_script(
            Path(args.once),
            optimize=bool(args.optimize),
            backend=args.backend,
            certify=bool(args.certify),
            max_delta=args.max_delta,
        )
    try:
        asyncio.run(_serve_socket(args))
    except KeyboardInterrupt:
        print("repro serve: interrupted", flush=True)
    return 0
