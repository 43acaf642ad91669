"""Sharded parallel fixpoint execution, planned by the static analysis.

:func:`sharded_fixpoint` walks the SCC condensation in evaluation
order, reads each stratum's shard class and keys from the program-only
stratum plan (:func:`repro.analysis.plan.program_plan`), and executes
each stratum by its classification:

* **communication_free** — every relation the stratum reads or writes
  is hash-partitioned on the planned key position
  (:func:`~repro.analysis.shard.shard_of`), each worker closes its
  partition with a completely ordinary backend fixpoint of the stratum
  subprogram, and the parent unions the results.  The plan guarantees
  the union equals the global stratum fixpoint: every rule's pivot
  variable sits at the key position of the head and of every body
  atom, so all facts that can join live on one worker;
* **exchange_required** — the relevant state is broadcast, round 0
  splits the stratum's rules round-robin across workers (heads renamed
  to scratch predicates so one application never feeds back locally),
  and every later semi-naive round evaluates the *delta program* —
  each rule expanded per tracked body position with that atom renamed
  to a delta predicate — against the full state plus a hash-sliced
  delta.  Fresh facts the parent deduplicates are re-broadcast, which
  is the exchange the plan predicted (``shard_exchanged_rows``);
* **sequential** — evaluated on the parent process exactly as today.

Workers are plain ``multiprocessing`` processes speaking a tiny
pipe protocol (``reset`` / ``extend`` / ``fixpoint`` / ``stop``); they
run the same ``interpreted``/``columnar`` backend seam as the parent
and ship their :class:`~repro.core.stats.EngineStats` back with every
result (worker fixpoint rounds surface as ``shard_local_rounds``).
Small inputs never pay any of this: below :data:`SHARD_MIN_FACTS`
total (or per-stratum) facts the plain single-process path runs, so
``--shards`` is safe to leave on ambiently.
"""

from __future__ import annotations

import multiprocessing
import traceback
from typing import Any, Mapping, Optional, Sequence

from repro.core import stats as _stats
from repro.core.atoms import Atom
from repro.core.context import RunConfig, current, running
from repro.core.datalog import DatalogProgram, Rule
from repro.core.instance import Instance
from repro.core.stats import EngineStats

#: below this many facts (whole instance, or the slice a stratum
#: reads) sharding is pure overhead — stay single-process
SHARD_MIN_FACTS = 256

#: scratch-predicate prefixes of the exchange protocol; double
#: underscores keep them out of every user namespace
_OUT = "__shard_out__"
_DELTA = "__shard_delta__"


def _worker_main(conn: Any) -> None:
    """One shard worker: hold relations, run backend fixpoints on demand.

    Forked workers inherit the parent's run context, with its
    collectors, audits and shard count; the worker runs under a fresh
    default one instead, so it is an ordinary single-process engine
    whose only channel back is the pipe.
    """
    with running(RunConfig()):
        _serve_worker(conn)


def _serve_worker(conn: Any) -> None:
    from repro.core.backend import get_backend

    relations: dict[str, set[tuple[Any, ...]]] = {}
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return  # parent died or closed the pipe: exit quietly
        op = message[0]
        try:
            if op == "stop":
                return
            elif op == "reset":
                relations = {}
            elif op == "extend":
                for pred, rows in message[1].items():
                    relations.setdefault(pred, set()).update(
                        tuple(row) for row in rows
                    )
            elif op == "fixpoint":
                _, rules, extra, return_preds, backend = message
                merged = {
                    pred: list(rows) for pred, rows in relations.items()
                }
                for pred, rows in extra.items():
                    merged.setdefault(pred, []).extend(
                        tuple(row) for row in rows
                    )
                stats = EngineStats()
                result = get_backend(backend).fixpoint(
                    DatalogProgram(tuple(rules)),
                    Instance.from_tuples(merged),
                    stats=stats,
                )
                payload = {
                    pred: sorted(result.tuples(pred), key=repr)
                    for pred in return_preds
                }
                conn.send(("ok", payload, stats.to_dict()))
            else:  # pragma: no cover - protocol misuse
                conn.send(("error", f"unknown op {op!r}"))
        except Exception:
            conn.send(("error", traceback.format_exc()))


class _WorkerPool:
    """``shards`` persistent worker processes behind duplex pipes."""

    def __init__(self, shards: int) -> None:
        # fork shares the parsed program/instance pages copy-on-write;
        # fall back to the platform default where fork is unavailable
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-fork platforms
            ctx = multiprocessing.get_context()
        self.shards = shards
        self.connections = []
        self.processes = []
        for _ in range(shards):
            parent_conn, child_conn = ctx.Pipe()
            process = ctx.Process(
                target=_worker_main, args=(child_conn,), daemon=True
            )
            process.start()
            child_conn.close()
            self.connections.append(parent_conn)
            self.processes.append(process)

    def send(self, worker: int, message: tuple) -> None:
        self.connections[worker].send(message)

    def recv(self, worker: int) -> tuple:
        reply = self.connections[worker].recv()
        if reply[0] == "error":
            raise RuntimeError(
                f"shard worker {worker} failed:\n{reply[1]}"
            )
        return reply

    def broadcast(self, message: tuple) -> None:
        for conn in self.connections:
            conn.send(message)

    def close(self) -> None:
        for conn in self.connections:
            try:
                conn.send(("stop",))
                conn.close()
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
        for process in self.processes:
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=5)


def _relevant_predicates(rules: Sequence[Rule]) -> set[str]:
    preds: set[str] = set()
    for rule in rules:
        preds.add(rule.head.pred)
        preds |= rule.body_predicates()
    return preds


def _slice_of(
    state: Instance, preds: set[str]
) -> dict[str, list[tuple[Any, ...]]]:
    return {
        pred: sorted(state.tuples(pred), key=repr)
        for pred in sorted(preds)
        if state.size(pred)
    }


def _round0_rules(rules: Sequence[Rule]) -> list[Rule]:
    """Stratum rules with heads renamed to scratch output predicates."""
    return [
        Rule(Atom(_OUT + rule.head.pred, rule.head.args), rule.body)
        for rule in rules
    ]


def _delta_rules(rules: Sequence[Rule], tracked: set[str]) -> list[Rule]:
    """The semi-naive delta expansion of ``rules`` over ``tracked``.

    One rule per tracked body position, that atom renamed to the delta
    predicate and the head to the scratch output — any new derivation
    uses at least one fresh fact, and the remaining positions join the
    full (already-extended) state, so firing these once per round is
    exactly one semi-naive step.
    """
    out: list[Rule] = []
    for rule in rules:
        for i, atom in enumerate(rule.body):
            if atom.pred not in tracked:
                continue
            body = tuple(
                Atom(_DELTA + a.pred, a.args) if j == i else a
                for j, a in enumerate(rule.body)
            )
            out.append(Rule(Atom(_OUT + rule.head.pred, rule.head.args), body))
    return out


def _merge_worker_stats(
    collected: EngineStats, payload: Mapping[str, Any]
) -> None:
    """Fold one worker's counters in, rebasing its fixpoint rounds.

    A worker's rounds are *local* rounds — the parent's own
    ``fixpoint_rounds`` would double-count parallel work, so they move
    to ``shard_local_rounds`` before the merge.
    """
    stats = EngineStats.from_dict(dict(payload))
    stats.shard_local_rounds += stats.fixpoint_rounds
    stats.fixpoint_rounds = 0
    collected.merge(stats)


def sharded_fixpoint(
    program: DatalogProgram,
    instance: Instance,
    shards: int,
    *,
    stats: Optional[EngineStats] = None,
    backend: Optional[str] = None,
) -> Instance:
    """``FPEval(Π, I)`` across ``shards`` worker processes.

    Produces exactly the single-process result (the evidence suite is
    certified against the independent replayer to prove it); falls
    back to the plain backend path whenever sharding cannot pay —
    fewer than 2 shards, no rules, or an instance below
    :data:`SHARD_MIN_FACTS`.
    """
    from repro.analysis.plan import COMMUNICATION_FREE, SEQUENTIAL, program_plan
    from repro.analysis.shard import shard_of
    from repro.core.backend import get_backend

    run = current()
    if backend is None:
        backend = run.config.backend
    engine = get_backend(backend)
    if shards <= 1 or not program.rules or len(instance) < SHARD_MIN_FACTS:
        return engine.fixpoint(program, instance, stats=stats)

    collector = stats if stats is not None else run.stats
    collected = EngineStats()
    with _stats.suspended():
        # planning is analysis, not evaluation: keep it out of counters;
        # only the program-only part (shard classes and keys) is read
        plan = program_plan(program)
    guard = run.audits.get("shard")

    state = instance.copy()
    pool: Optional[_WorkerPool] = None
    try:
        for stratum in plan.strata:
            rules = [program.rules[i] for i in stratum.rule_indices]
            if not rules:
                continue
            relevant = _relevant_predicates(rules)
            slice_size = sum(state.size(pred) for pred in relevant)
            classification = stratum.classification
            keys = stratum.keys
            run_local = (
                classification == SEQUENTIAL
                or slice_size < SHARD_MIN_FACTS
                or (classification == COMMUNICATION_FREE
                    and not (relevant <= keys.keys()))
            )
            if run_local:
                local = engine.fixpoint(
                    DatalogProgram(tuple(rules)),
                    state.restrict(relevant),
                    stats=collected,
                )
                for pred in stratum.predicates:
                    for row in local.tuples(pred):
                        state.add_tuple(pred, row)
                continue

            if pool is None:
                pool = _WorkerPool(shards)
                collected.shard_workers += shards

            if classification == COMMUNICATION_FREE:
                partitions: list[dict[str, list[tuple[Any, ...]]]] = [
                    {} for _ in range(shards)
                ]
                for pred in sorted(relevant):
                    key = keys[pred]
                    for row in state.tuples(pred):
                        if len(row) <= key:
                            continue  # too narrow for any atom of pred
                        worker = shard_of(row[key], shards)
                        partitions[worker].setdefault(pred, []).append(row)
                return_preds = list(stratum.predicates)
                for worker in range(shards):
                    pool.send(worker, ("reset",))
                    pool.send(worker, ("extend", partitions[worker]))
                    pool.send(worker, (
                        "fixpoint", tuple(rules), {}, return_preds, backend,
                    ))
                per_worker: dict[int, list[tuple[str, tuple]]] = {}
                for worker in range(shards):
                    _, payload, worker_stats = pool.recv(worker)
                    _merge_worker_stats(collected, worker_stats)
                    derived: list[tuple[str, tuple]] = []
                    for pred, rows in payload.items():
                        for row in rows:
                            state.add_tuple(pred, tuple(row))
                            derived.append((pred, tuple(row)))
                    per_worker[worker] = derived
                if guard is not None:
                    guard.check_stratum(stratum, shards, per_worker)
                continue

            # ---------------------------------------- exchange_required
            tracked = set(stratum.predicates)
            pool.broadcast(("reset",))
            pool.broadcast(("extend", _slice_of(state, relevant)))
            round0 = _round0_rules(rules)
            out_preds = sorted({rule.head.pred for rule in round0})
            active_workers = []
            for worker in range(shards):
                share = tuple(round0[worker::shards])
                if not share:
                    continue
                pool.send(worker, (
                    "fixpoint", share, {},
                    sorted({rule.head.pred for rule in share}),
                    backend,
                ))
                active_workers.append(worker)
            fresh: dict[str, set[tuple[Any, ...]]] = {}
            for worker in active_workers:
                _, payload, worker_stats = pool.recv(worker)
                _merge_worker_stats(collected, worker_stats)
                for out_pred, rows in payload.items():
                    pred = out_pred[len(_OUT):]
                    for row in rows:
                        row = tuple(row)
                        if state.add_tuple(pred, row):
                            fresh.setdefault(pred, set()).add(row)
            delta_program = _delta_rules(rules, tracked)
            while fresh and delta_program:
                fresh_rows = {
                    pred: sorted(rows, key=repr)
                    for pred, rows in fresh.items()
                }
                exchanged = sum(len(rows) for rows in fresh.values())
                collected.shard_exchanged_rows += exchanged * (shards - 1)
                pool.broadcast(("extend", fresh_rows))
                slices: list[dict[str, list[tuple[Any, ...]]]] = [
                    {} for _ in range(shards)
                ]
                for pred, rows in fresh_rows.items():
                    for row in rows:
                        worker = shard_of(row, shards)
                        slices[worker].setdefault(
                            _DELTA + pred, []
                        ).append(row)
                round_workers = []
                for worker in range(shards):
                    if not slices[worker]:
                        continue
                    pool.send(worker, (
                        "fixpoint", tuple(delta_program), slices[worker],
                        out_preds, backend,
                    ))
                    round_workers.append(worker)
                fresh = {}
                for worker in round_workers:
                    _, payload, worker_stats = pool.recv(worker)
                    _merge_worker_stats(collected, worker_stats)
                    for out_pred, rows in payload.items():
                        pred = out_pred[len(_OUT):]
                        for row in rows:
                            row = tuple(row)
                            if state.add_tuple(pred, row):
                                fresh.setdefault(pred, set()).add(row)
    finally:
        if pool is not None:
            pool.close()

    if collector is not None:
        collector.merge(collected)
    return state
