"""Workload ``serve``: a ``repro serve --port 0`` process over TCP.

Why this workload: ``repro serve`` keeps recursive queries materialized
under updates, so incremental view maintenance, the ``maintain``
analysis (``predict_delta`` runs every round) and the service's
dispatch and transport do the work.  Writes sit beside reads, so a gain
for one that costs the other shows.  Two connections, each owning its
own sessions, turn the process-wide maintenance lock into a measured
wait; disjoint sessions mean no request coalescing, so the work is
deterministic.

Five sessions are created per server: a 60-node chain transitive
closure on the default engine; 6x6 grid reachability whose retractions
make DRed overdelete and rederive; tenant reachability on the columnar
engine; the flights reachability query (monadic Datalog) through the
optimizer; and a 12-node ``certify`` audit session, kept small because
certifying every round of a larger one cuts throughput several times.
The sessions' initial structures are drawn from a fixed seed, so every
run starts from views of the same shape; the run seed renames their
constants and draws the update stream.  A fresh seed therefore gives a
fresh stream over the same five graphs, not fresh graphs: a change
tuned to these particular graphs is not caught by changing the seed.

Load is a closed loop: each connection sends its next request when the
previous reply arrives.  With two CPUs or more, the server runs pinned
to one and this load generator to another: the server is single-core by
design (one interpreter lock, one maintenance lock), and unpinned its
event-loop and round threads hand off across CPUs, which on a 2-vCPU VM
cost 20-30% of throughput and doubled the run-to-run spread.  A seeded
stream sends about 75% insert, retract and update ops of 1-3 facts and
about 25% queries.  Every reply must be ``ok``; every audit round's
certificate must be valid; every query's rows must equal the
independent oracle's answer for the session's base facts at that point
of the stream.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import selectors
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field

import gen
import oracles
from common import (
    Context,
    geomean,
    median_of,
    note,
    percentile,
    popen,
    stop,
    tail_ok,
    wait_rusage,
)

SETUPS = 3
#: a reply slower than this means the server is stuck: the run fails
REPLY_TIMEOUT_S = 60.0
#: stream length per connection; far more than a run can send
STREAM_OPS = 20_000

TC_PROGRAM = "T(x,y) <- E(x,y). T(x,y) <- E(x,z), T(z,y)."
GRID_PROGRAM = "R(x,y) <- E(x,y). R(x,y) <- R(x,z), E(z,y)."
TENANT_PROGRAM = "T(g,x,y) <- E(g,x,y). T(g,x,y) <- E(g,x,z), T(g,z,y)."
FLIGHTS_PROGRAM = (
    "Reach(x) <- Hub(x). Reach(y) <- Reach(x), Flight(x,y). "
    "GoalReach(x) <- Reach(x)."
)


@dataclass
class SessionSpec:
    """One session: its program, base facts and the oracle for its goal."""

    name: str
    program: str
    pred: str                 # the base predicate updates change
    goal: str                 # the predicate queries read
    base: list                # initial rows of ``pred``
    universe: list            # rows an insert may add
    options: dict
    fixed: dict = field(default_factory=dict)  # pred -> rows never updated

    def create(self, op_id: int) -> dict:
        text = gen.facts_text(self.pred, self.base)
        for pred, rows in self.fixed.items():
            text += gen.facts_text(pred, rows)
        return {"op": "create", "session": self.name, "program": self.program,
                "instance": text, "id": op_id, **self.options}

    def expected(self, base: set) -> set:
        if self.name == "tenant":
            return oracles.tenant_closure(base)
        if self.name == "flights":
            return oracles.reach_from(base, [h for (h,) in self.fixed["Hub"]])
        return oracles.transitive_closure(base)


def sessions(seed: int) -> list[SessionSpec]:
    """The five sessions: structures drawn from a fixed seed, constants
    renamed per run seed (see :func:`gen.relabel`)."""
    rng = random.Random("serve-sessions")
    chain = gen.chain(rng, 60, "c")
    chain_nodes = [x for x, _ in chain] + [chain[-1][1]]
    grid = gen.grid(rng, 6, "g")
    tenant = gen.tenants(rng, 4, 15, extra=2)
    nodes: dict = {}
    for t, x, y in tenant:
        nodes.setdefault(t, set()).update((x, y))
    tenant_extra = {(t, x, y) for t in sorted(nodes)
                    for x, y in gen.pairs(rng, sorted(nodes[t]), 7)}
    cities = [f"city{i}" for i in range(150)]
    flights = gen.pairs(rng, cities, 450)
    audit = gen.chain(rng, 12, "a")
    audit_nodes = [x for x, _ in audit] + [audit[-1][1]]
    specs = [
        SessionSpec("chain", TC_PROGRAM, "E", "T", chain,
                    chain + _forward(rng, chain_nodes, 20), {}),
        SessionSpec("grid", GRID_PROGRAM, "E", "R", grid, grid, {}),
        SessionSpec("tenant", TENANT_PROGRAM, "E", "T", tenant,
                    sorted(set(tenant) | tenant_extra),
                    {"backend": "columnar"}),
        SessionSpec("flights", FLIGHTS_PROGRAM, "Flight", "GoalReach",
                    flights, sorted(set(flights) | set(gen.pairs(rng, cities, 600))),
                    {"optimize": True},
                    fixed={"Hub": [(c,) for c in rng.sample(cities, 2)]}),
        SessionSpec("audit", TC_PROGRAM, "E", "T", audit,
                    audit + _forward(rng, audit_nodes, 6), {"certify": True}),
    ]
    labels = random.Random(f"{seed}:serve-labels")
    return [
        dataclasses.replace(spec, **gen.relabel(
            {"base": spec.base, "universe": spec.universe, "fixed": spec.fixed},
            labels))
        for spec in specs
    ]


def _forward(rng: random.Random, nodes: list, count: int) -> list:
    """``count`` extra forward edges that skip at least one chain node."""
    out: set = set()
    while len(out) < count:
        i = rng.randrange(len(nodes) - 2)
        j = rng.randrange(i + 2, len(nodes))
        out.add((nodes[i], nodes[j]))
    return sorted(out)


#: connection -> the sessions it owns
OWNERS = (("chain", "tenant", "audit"), ("grid", "flights"))


class _Pool:
    """A set with seeded O(1) sampling: a list plus element positions."""

    def __init__(self, items) -> None:
        self.items = list(items)
        self.where = {item: i for i, item in enumerate(self.items)}

    def add(self, item) -> None:
        self.where[item] = len(self.items)
        self.items.append(item)

    def remove(self, item) -> None:
        i = self.where.pop(item)
        last = self.items.pop()
        if i < len(self.items):
            self.items[i] = last
            self.where[last] = i

    def sample(self, rng: random.Random, k: int) -> list:
        return rng.sample(self.items, min(k, len(self.items)))


def stream(seed: int, conn: int, specs: dict) -> list[dict]:
    """The seeded request stream of one connection."""
    rng = random.Random(f"{seed}:serve-stream:{conn}")
    target = {n: len(specs[n].base) for n in OWNERS[conn]}
    present = {n: _Pool(specs[n].base) for n in OWNERS[conn]}
    absent = {n: _Pool(sorted(set(specs[n].universe) - set(specs[n].base)))
              for n in OWNERS[conn]}
    out = []
    for n in range(STREAM_OPS):
        spec = specs[rng.choice(OWNERS[conn])]
        have, free = present[spec.name], absent[spec.name]
        roll = rng.random()
        op_id = conn * 10_000_000 + n
        if roll < 0.25:
            out.append({"op": "query", "session": spec.name,
                        "pred": spec.goal, "id": op_id})
            continue
        k = rng.randint(1, 3)
        if roll < 0.75:
            # lean back toward the session's initial size, so every run
            # maintains views of about the same size
            lean = (target[spec.name] - len(have.items)) / 8
            insert = rng.random() < min(0.9, max(0.1, 0.5 + lean))
            kind = "insert" if insert else "retract"
        else:
            kind = "update"
        if kind == "update" and not (have.items and free.items):
            kind = "insert"
        if kind == "insert" and not free.items:
            kind = "retract"
        if kind == "retract" and not have.items:
            kind = "insert"
        if kind == "insert":
            ins, ret = free.sample(rng, k), []
        elif kind == "retract":
            ins, ret = [], have.sample(rng, k)
        else:
            n_ret = rng.randint(1, max(1, k - 1))
            ret = have.sample(rng, n_ret)
            ins = free.sample(rng, max(1, k - n_ret))
        for row in ret:
            have.remove(row)
            free.add(row)
        for row in ins:
            free.remove(row)
            have.add(row)
        facts_in = [[spec.pred, list(r)] for r in ins]
        facts_out = [[spec.pred, list(r)] for r in ret]
        if ins and ret:
            request = {"op": "update", "inserts": facts_in,
                       "retracts": facts_out}
        elif ins:
            request = {"op": "insert", "facts": facts_in}
        else:
            request = {"op": "retract", "facts": facts_out}
        out.append({**request, "session": spec.name, "id": op_id})
    return out


class Client:
    """One JSON-lines connection with at most one request in flight."""

    def __init__(self, address: tuple, requests: list[dict]) -> None:
        self.sock = socket.create_connection(address, timeout=REPLY_TIMEOUT_S)
        self.buf = b""
        self.requests = requests
        self.next = 0
        self.sent_at = 0.0
        #: (request, reply bytes, latency s, perf_counter at send)
        self.done: list[tuple] = []

    def call(self, request: dict) -> dict:
        self.sock.sendall(json.dumps(request).encode() + b"\n")
        while b"\n" not in self.buf:
            data = self.sock.recv(1 << 16)
            if not data:
                raise ConnectionError("server closed the connection")
            self.buf += data
        line, self.buf = self.buf.split(b"\n", 1)
        return json.loads(line)

    def send_next(self) -> None:
        request = self.requests[self.next]
        self.sent_at = time.perf_counter()
        self.sock.sendall(json.dumps(request).encode() + b"\n")

    def receive(self) -> bool:
        """Read what arrived; True once the in-flight reply is complete."""
        data = self.sock.recv(1 << 20)
        if not data:
            raise ConnectionError("server closed the connection")
        self.buf += data
        if b"\n" not in self.buf:
            return False
        arrived = time.perf_counter()
        line, self.buf = self.buf.split(b"\n", 1)
        self.done.append((self.requests[self.next], line,
                          arrived - self.sent_at, self.sent_at))
        self.next += 1
        return True

    def close(self) -> None:
        self.sock.close()


#: the CPUs this run may use, read before any pinning
CPUS = sorted(os.sched_getaffinity(0))


def _server_cpu() -> None:
    """In the server's process before it starts: its own CPU."""
    if len(CPUS) >= 2:
        os.sched_setaffinity(0, {CPUS[0]})


def pin_client() -> None:
    """Keep this process (the load generator) off the server's CPU."""
    if len(CPUS) >= 2:
        os.sched_setaffinity(0, set(CPUS[1:]))


def start_server(ctx: Context, trace_dir=None):
    """Launch the server; ``(process, address, launch wall time)``."""
    if trace_dir is None:
        cmd = [sys.executable, "-m", "repro", "serve", "--port", "0"]
    else:
        cmd = [sys.executable, str(ctx.root / "perfbench" / "traced_main.py"),
               str(trace_dir), "serve", "--port", "0"]
    launched = time.time()
    proc = popen(cmd, ctx, stdout=subprocess.PIPE, preexec_fn=_server_cpu)
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    line = b""
    if sel.select(timeout=min(REPLY_TIMEOUT_S, ctx.time_left())):
        line = proc.stdout.readline()
    sel.close()
    text = line.decode().strip()
    if "listening on" not in text:
        stop(proc)
        raise RuntimeError(f"serve did not start: {text!r}")
    host, port = text.rsplit(" ", 1)[1].rsplit(":", 1)
    return proc, (host, int(port)), launched


def create_sessions(client: Client, specs: list[SessionSpec]) -> list[dict]:
    return [client.call(spec.create(-1 - i)) for i, spec in enumerate(specs)]


def shutdown(ctx: Context, proc, client: Client) -> tuple[int, float]:
    try:
        client.call({"op": "shutdown"})
    except (OSError, ValueError):
        pass
    client.close()
    code, rss = wait_rusage(proc, min(REPLY_TIMEOUT_S, ctx.time_left()))
    proc.stdout.close()
    return code, rss


def setup_only(ctx: Context, specs: list[SessionSpec]) -> tuple[float, list]:
    proc, address, launched = start_server(ctx)
    try:
        client = Client(address, [])
        replies = create_sessions(client, specs)
        ready = time.time()
    except BaseException:
        stop(proc)
        raise
    shutdown(ctx, proc, client)
    return ready - launched, replies


def timed_phase(ctx: Context, specs: list[SessionSpec], seconds: float,
                trace_dir=None) -> dict:
    """One server: creates, the closed loop, stats, shutdown."""
    by_name = {spec.name: spec for spec in specs}
    streams = [stream(ctx.seed, conn, by_name) for conn in range(len(OWNERS))]
    proc, address, launched = start_server(ctx, trace_dir)
    try:
        admin = Client(address, [])
        creates = create_sessions(admin, specs)
        ready = time.time()
        clients = [Client(address, s) for s in streams]
        sel = selectors.DefaultSelector()
        started = time.perf_counter()
        deadline = started + seconds
        for client in clients:
            sel.register(client.sock, selectors.EVENT_READ, client)
            client.send_next()
        inflight = len(clients)
        last = started
        while inflight:
            events = sel.select(timeout=min(REPLY_TIMEOUT_S, ctx.time_left()))
            if not events:
                raise TimeoutError("no reply within the timeout")
            for key, _ in events:
                client = key.data
                if not client.receive():
                    continue
                last = time.perf_counter()
                if last < deadline and client.next < len(client.requests):
                    client.send_next()
                else:
                    sel.unregister(client.sock)
                    inflight -= 1
        sel.close()
        stats = {spec.name: admin.call({"op": "stats", "session": spec.name})
                 for spec in specs}
    except BaseException:
        stop(proc)
        raise
    for client in clients:
        client.close()
    code, rss = shutdown(ctx, proc, admin)
    return {
        "setup_s": ready - launched,
        "creates": creates,
        "wall_s": last - started,
        "done": [entry for client in clients for entry in client.done],
        "stats": stats,
        "exit_code": code,
        "peak_rss_mb": rss,
    }


def request_facts(request: dict) -> tuple[list, list]:
    """``(inserted rows, retracted rows)`` of an update request."""
    op = request["op"]
    if op == "insert":
        ins, ret = request["facts"], []
    elif op == "retract":
        ins, ret = [], request["facts"]
    else:
        ins, ret = request["inserts"], request["retracts"]
    return [tuple(args) for _, args in ins], [tuple(args) for _, args in ret]


def verify(specs: list[SessionSpec], phase: dict) -> tuple[list, dict]:
    """Check every reply; ``(per-op records, engine per session)``."""
    by_name = {spec.name: spec for spec in specs}
    base = {spec.name: set(spec.base) for spec in specs}
    engines: dict = {}
    records = []
    for request, line, latency, _sent in phase["done"]:
        reply = json.loads(line)
        spec = by_name[request["session"]]
        rows = base[spec.name]
        op = request["op"]
        ok = bool(reply.get("ok"))
        if op == "query":
            got = {tuple(row) for row in reply.get("rows", [])}
            ok = ok and got == spec.expected(rows)
        else:
            ins, ret = request_facts(request)
            rows.difference_update(ret)
            rows.update(ins)
            round_ = reply.get("round") or {}
            engines.setdefault(spec.name, set()).add(round_.get("backend"))
            ok = ok and reply.get("coalesced") == 1
            if spec.options.get("certify"):
                certificate = reply.get("certificate") or {}
                ok = ok and certificate.get("valid") is True
        records.append({"op": op, "session": spec.name, "ok": ok,
                        "latency_s": latency, "id": request["id"]})
    records += create_records(phase["creates"])
    return records, {k: sorted(map(str, v)) for k, v in engines.items()}


def create_records(replies: list[dict]) -> list[dict]:
    """``create`` replies as untimed op records (they count when they fail)."""
    return [{"op": "create", "session": reply.get("session"),
             "ok": bool(reply.get("ok")), "latency_s": None}
            for reply in replies]


def latency_metrics(records: list[dict]) -> dict:
    """Client-side latency percentiles (ms) by op class, each reported
    only when at least ten samples lie beyond it."""
    updates = [r["latency_s"] * 1000 for r in records
               if r["op"] in ("insert", "retract", "update") and r["ok"]]
    queries = [r["latency_s"] * 1000 for r in records
               if r["op"] == "query" and r["ok"]]
    out = {"update_count": len(updates), "query_count": len(queries),
           "update_p50_ms": percentile(updates, 50),
           "query_p50_ms": percentile(queries, 50)}
    if tail_ok(updates, 99):
        out["update_p99_ms"] = percentile(updates, 99)
    if tail_ok(queries, 95):
        out["query_p95_ms"] = percentile(queries, 95)
    return out


def session_latencies(records: list[dict]) -> dict:
    """Median latency (ms) and op count per session and op class."""
    groups: dict = {}
    for r in records:
        if r["latency_s"] is not None:
            kind = "query" if r["op"] == "query" else "update"
            groups.setdefault(f"{r['session']}.{kind}", []).append(
                r["latency_s"] * 1000)
    return {k: [median_of(v), len(v)] for k, v in sorted(groups.items())}


def summarize(setups: list[float], phase: dict, records: list[dict]) -> dict:
    timed = [r for r in records if r["latency_s"] is not None]
    good = [r for r in timed if r["ok"]]
    failed = len(records) - sum(r["ok"] for r in records)
    if phase["exit_code"] != 0:
        failed += 1
    return {
        "attempted": len(records),
        "failed": failed,
        "metrics": {
            "setup_s": median_of(setups),
            "ops_per_s": len(good) / phase["wall_s"],
            "op_geomean_ms": geomean(r["latency_s"] * 1000 for r in good),
            "peak_rss_mb": phase["peak_rss_mb"],
            **latency_metrics(records),
        },
    }


def run(ctx: Context) -> dict:
    if ctx.trace:
        from traced import serve_traced

        return serve_traced(ctx)
    pin_client()
    specs = sessions(ctx.seed)
    setups, setup_creates = [], []
    for _ in range(SETUPS - 1):
        seconds, replies = setup_only(ctx, specs)
        setups.append(seconds)
        setup_creates += replies
    phase = timed_phase(ctx, specs, ctx.seconds)
    setups.append(phase["setup_s"])
    records, engines = verify(specs, phase)
    records += create_records(setup_creates)
    note(f"serve: {len(phase['done'])} ops in {phase['wall_s']:.1f}s, "
         f"setups {[round(s, 3) for s in setups]}, engines {engines}")
    result = summarize(setups, phase, records)
    result["raw"] = {"setups": setups, "engines": engines,
                     "latency": latency_metrics(records),
                     "session_ms": session_latencies(records)}
    return result
