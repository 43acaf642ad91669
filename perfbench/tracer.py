"""Spans around the calls into each of the program's layers.

Nothing in ``src/`` is changed: :func:`install` wraps the public
functions a layer exposes, from the outside, before (or while) the
program imports them.  Call sites import these functions by name, so
every ``repro.*`` module attribute bound to an original is re-pointed at
its wrapper, and an import hook does the same for modules imported
later (the CLI and the job workers import lazily).

A span records its name, start, end, parent and op id.  Spans live in
memory; :meth:`Recorder.dump` writes them out when the process is done.
A span's self time is its duration minus the time its child spans
cover.  A generator function's span covers only the time spent inside
the generator, resumption by resumption.

Layer keys (``kind``) and the layer each rolls up into:

* ``core.parser``, ``core.evaluation`` (with the interpreted and auto
  backends), ``core.columnar``, ``core.homomorphism``, ``core.shard``;
* ``core.containment`` (with ``repro.automata``), ``determinacy``,
  ``views``, ``rewriting``, ``constructions`` (with ``repro.games`` and
  ``repro.td``): every public module-level function of those packages;
* ``analysis.dependency``, ``analysis.cost``, ``analysis.maintain``,
  ``analysis.shard``, ``analysis.optimize``;
* ``ivm.init``, ``ivm.apply``, ``ivm.predict`` -> ``ivm``;
* ``certify.emit``, ``certify.check`` -> ``certify``;
* ``serve.dispatch``, ``serve.lock_wait`` -> ``serve``;
* ``harness.fingerprint``, ``.schedule``, ``.manifest``, ``.dispatch``
  -> ``harness``;
* ``other``: the root span of each op (an ``eval`` CLI call, an evidence
  job function, the evidence CLI command itself); its self time is the
  op's time that no layer accounts for.
"""

from __future__ import annotations

import asyncio
import contextlib
import contextvars
import fnmatch
import functools
import importlib.abc
import importlib.machinery
import inspect
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path

_now = time.perf_counter_ns
_current: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)
_op: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_op", default=None
)

#: layer key -> the layer its spans roll up into
LAYER_OF = {
    "ivm.init": "ivm", "ivm.apply": "ivm", "ivm.predict": "ivm",
    "certify.emit": "certify", "certify.check": "certify",
    "serve.dispatch": "serve", "serve.lock_wait": "serve",
    "harness.fingerprint": "harness", "harness.schedule": "harness",
    "harness.manifest": "harness", "harness.dispatch": "harness",
}

#: packages whose every public module-level function is a layer entry
PACKAGES = (
    ("repro.core.containment", "core.containment"),
    ("repro.automata", "core.containment"),
    ("repro.determinacy", "determinacy"),
    ("repro.views", "views"),
    ("repro.rewriting", "rewriting"),
    ("repro.constructions", "constructions"),
    ("repro.games", "constructions"),
    ("repro.td", "constructions"),
)


def _facts(result, args, kwargs) -> dict:
    return {"core.parser.facts": len(result)}


def _claims(result, args, kwargs) -> dict:
    return {"certify.claims": result.claims}


def _rules_removed(result, args, kwargs) -> dict:
    program = args[0] if args else kwargs.get("program")
    after = getattr(result, "optimized", result)
    return {"analysis.optimize.rules_removed":
            len(program.rules) - len(after.rules)}


#: module -> [(attribute or class.attribute pattern, layer key, counter)]
TARGETS = {
    "repro.core.parser": [("parse_instance", "core.parser", _facts),
                          ("parse_*", "core.parser", None)],
    "repro.core.evaluation": [("fixpoint", "core.evaluation", None)],
    "repro.core.backend": [
        ("InterpretedBackend.fixpoint", "core.evaluation", None),
        ("AutoBackend.fixpoint", "core.evaluation", None),
        ("ColumnarBackend.fixpoint", "core.columnar", None),
    ],
    "repro.core.columnar": [("columnar_fixpoint", "core.columnar", None)],
    "repro.core.homomorphism": [
        ("*homomorphism*", "core.homomorphism", None),
    ],
    "repro.core.shard": [("sharded_fixpoint", "core.shard", None)],
    "repro.analysis.dependency": [
        ("DependencyGraph.__init__", "analysis.dependency", None),
        ("DependencyGraph.prune_unreachable", "analysis.dependency", None),
    ],
    "repro.analysis.cost": [
        ("cost_report", "analysis.cost", None),
        ("predicted_join_volume", "analysis.cost", None),
    ],
    "repro.analysis.maintain": [("maintain_report", "analysis.maintain", None)],
    "repro.analysis.shard": [("shard_report", "analysis.shard", None)],
    "repro.analysis.optimize": [
        ("optimize_program", "analysis.optimize", _rules_removed),
        ("syntactic_fixpoint_program", "analysis.optimize", _rules_removed),
        ("optimized_query_program", "analysis.optimize", None),
        ("reorder_joins", "analysis.optimize", None),
    ],
    "repro.ivm.materialized": [
        ("MaterializedView.__init__", "ivm.init", None),
        ("MaterializedView.apply", "ivm.apply", None),
        ("MaterializedView.predict_delta", "ivm.predict", None),
        ("MaterializedView.certificate", "certify.emit", None),
    ],
    "repro.certify.checker": [("check_certificate", "certify.check", _claims)],
    "repro.certify.emit": [("certificate", "certify.emit", None),
                           ("claim_*", "certify.emit", None)],
    "repro.serve.service": [("ServeService.handle", "serve.dispatch", None)],
    "repro.harness.cache": [("code_fingerprint", "harness.fingerprint", None)],
    "repro.harness.schedule": [("schedule_jobs", "harness.schedule", None)],
    "repro.harness.manifest": [
        ("build_manifest", "harness.manifest", None),
        ("write_manifest", "harness.manifest", None),
    ],
    "repro.harness.runner": [("run_jobs", "harness.dispatch", None)],
    "repro.harness.cli": [("cmd_evidence_run", "other", None)],
}

#: generator functions whose items are counted, counter name per key
ITEM_COUNTERS = {
    "repro.determinacy.tests.tests_for_approximation":
        "determinacy.canonical_tests",
}


class Span:
    """One call in flight: its layer key, name, parent, op id and the
    time its child spans have covered so far."""

    __slots__ = ("kind", "layer", "name", "parent", "child", "op", "sid",
                 "start")

    def __init__(self, kind: str, name: str, parent) -> None:
        self.kind = kind
        self.layer = LAYER_OF.get(kind, kind)
        self.name = name
        self.parent = parent
        self.child = 0
        self.op = _op.get()
        self.sid = next(_ids)
        self.start = 0


_ids = itertools.count(1)


class Recorder:
    """Finished spans and per-function rollups of one process."""

    def __init__(self, keep: int = 50_000) -> None:
        self.keep = keep
        self.lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        with self.lock:
            #: (kind, name) -> [calls, layer entries, kind entries,
            #:                   inclusive ns of kind entries, self ns]
            self.rollup: dict = {}
            self.counters: dict = {}
            self.ops: dict = {}
            self.events: list = []
            self.dropped = 0

    def finish(self, span: Span, dur: int) -> None:
        self_ns = dur - span.child
        if self_ns < 0:
            self_ns = 0
        parent = span.parent
        if parent is not None:
            parent.child += dur
        key = (span.kind, span.name)
        with self.lock:
            entry = self.rollup.get(key)
            if entry is None:
                entry = self.rollup[key] = [0, 0, 0, 0, 0]
            entry[0] += 1
            if parent is None or parent.layer != span.layer:
                entry[1] += 1
            if parent is None or parent.kind != span.kind:
                entry[2] += 1
                entry[3] += dur
            entry[4] += self_ns
            if span.op is not None and span.kind in ("other", "serve.dispatch"):
                self.ops[str(span.op)] = self.ops.get(str(span.op), 0) + dur
            if len(self.events) < self.keep:
                self.events.append((
                    span.name, span.kind, span.start, dur,
                    threading.get_ident(), span.op, span.sid,
                    parent.sid if parent is not None else None,
                ))
            else:
                self.dropped += 1

    def count(self, values: dict) -> None:
        with self.lock:
            for name, value in values.items():
                self.counters[name] = self.counters.get(name, 0) + value

    @contextlib.contextmanager
    def span(self, kind: str, name: str):
        span = Span(kind, name, _current.get())
        token = _current.set(span)
        span.start = _now()
        try:
            yield span
        finally:
            end = _now()
            _current.reset(token)
            self.finish(span, end - span.start)

    @contextlib.contextmanager
    def op(self, op_id):
        """A root span for one op; spans inside carry its id."""
        token = _op.set(op_id)
        try:
            with self.span("other", "op"):
                yield
        finally:
            _op.reset(token)

    def dump(self, directory: Path) -> Path:
        """Write this process's spans and rollups as one JSON file."""
        directory.mkdir(parents=True, exist_ok=True)
        with self.lock:
            payload = {
                "pid": os.getpid(),
                "rollup": [[k, n, *v] for (k, n), v in self.rollup.items()],
                "counters": self.counters,
                "ops": self.ops,
                "events": self.events,
                "dropped": self.dropped,
            }
        path = directory / f"spans-{os.getpid()}-{next(_ids)}.json"
        path.write_text(json.dumps(payload, default=str))
        return path


RECORDER = Recorder()
_ORIGINALS: dict = {}   # id(original) -> wrapper
_WRAPPED: set = set()   # ids of wrappers


def _wrap(fn, kind: str, name: str, counter=None, op_from=None):
    """A wrapper recording one span per call of ``fn``."""
    rec = RECORDER
    items = ITEM_COUNTERS.get(name)

    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            op_token = _op.set(op_from(args)) if op_from else None
            span = Span(kind, name, _current.get())
            token = _current.set(span)
            span.start = _now()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = _now()
                _current.reset(token)
                if op_token is not None:
                    _op.reset(op_token)
                rec.finish(span, end - span.start)

    elif inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(kind, name, _current.get())
            span.start = _now()
            active = 0
            produced = 0
            it = fn(*args, **kwargs)
            try:
                while True:
                    token = _current.set(span)
                    began = _now()
                    try:
                        item = next(it)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        active += _now() - began
                        _current.reset(token)
                    produced += 1
                    yield item
            finally:
                it.close()
                rec.finish(span, active)
                if items:
                    rec.count({items: produced})

    else:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op_token = _op.set(op_from(args)) if op_from else None
            span = Span(kind, name, _current.get())
            token = _current.set(span)
            span.start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _now()
                _current.reset(token)
                if op_token is not None:
                    _op.reset(op_token)
                rec.finish(span, end - span.start)
            if counter is not None:
                rec.count(counter(result, args, kwargs))
            return result

    _ORIGINALS[id(fn)] = wrapper
    _WRAPPED.add(id(wrapper))
    return wrapper


def _is_function(obj) -> bool:
    """A plain function, or one behind ``functools.lru_cache``."""
    return inspect.isfunction(obj) or inspect.isfunction(
        getattr(obj, "__wrapped__", None))


def _public_functions(module) -> list[str]:
    return [
        attr for attr, value in vars(module).items()
        if not attr.startswith("_") and inspect.isfunction(value)
        and value.__module__ == module.__name__
    ]


def _patch_module(module) -> None:
    """Wrap the targets ``module`` defines, then re-point references."""
    modname = module.__name__
    specs = list(TARGETS.get(modname, ()))
    for prefix, kind in PACKAGES:
        if modname == prefix or modname.startswith(prefix + "."):
            specs += [(attr, kind, None) for attr in _public_functions(module)]
    for job_module, attr, job_name in _JOB_FUNCTIONS:
        if job_module == modname:
            specs.append((attr, "other", None, job_name))
    done: set = set()
    for spec in specs:
        pattern, kind, counter = spec[:3]
        job_name = spec[3] if len(spec) > 3 else None
        if "." in pattern:
            cls_name, attr = pattern.split(".", 1)
            cls = getattr(module, cls_name, None)
            fn = cls.__dict__.get(attr) if cls is not None else None
            if fn is None or id(fn) in _WRAPPED or pattern in done:
                continue
            name = f"{modname}.{pattern}"
            op_from = _request_id if pattern == "ServeService.handle" else None
            setattr(cls, attr, _wrap(fn, kind, name, counter, op_from))
            done.add(pattern)
            continue
        for attr in _public_functions(module) if "*" in pattern else [pattern]:
            if not fnmatch.fnmatch(attr, pattern) or attr in done:
                continue
            fn = getattr(module, attr, None)
            if not _is_function(fn) or id(fn) in _WRAPPED:
                continue
            name = f"{modname}.{attr}"
            if job_name is not None:
                wrapper = _wrap(fn, "other", "op",
                                op_from=lambda args, n=job_name: n)
            else:
                wrapper = _wrap(fn, kind, name, counter)
            setattr(module, attr, wrapper)
            done.add(attr)
    if modname not in _SPECIAL_DONE:
        if modname == "repro.serve.service":
            _time_maintenance_lock(module)
            _SPECIAL_DONE.add(modname)
        elif modname == "repro.harness.runner":
            _dump_from_job_workers(module)
            _SPECIAL_DONE.add(modname)
    _repoint()


def _repoint() -> None:
    """Every loaded ``repro.*`` attribute bound to an original now
    points at its wrapper."""
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = _ORIGINALS.get(id(value))
            if wrapper is not None and wrapper is not value:
                setattr(module, attr, wrapper)


def _request_id(args):
    request = args[1] if len(args) > 1 else None
    return request.get("id") if isinstance(request, dict) else None


def _time_maintenance_lock(module) -> None:
    """Give each service a lock that records how long rounds wait."""

    class TimedLock(asyncio.Lock):
        async def acquire(self):
            if not self.locked():
                return await super().acquire()
            with RECORDER.span("serve.lock_wait", "serve.maintenance_lock"):
                return await super().acquire()

    service = module.ServeService
    original = service.__init__

    @functools.wraps(original)
    def __init__(self, *args, **kwargs):
        original(self, *args, **kwargs)
        self._maintenance = TimedLock()

    service.__init__ = __init__


def _dump_from_job_workers(module) -> None:
    """Forked job workers start from a copy of the parent's spans: clear
    it, and write the worker's own spans before it exits."""
    original = module._worker

    @functools.wraps(original)
    def _worker(*args, **kwargs):
        RECORDER.reset()
        _current.set(None)
        _op.set(None)
        try:
            original(*args, **kwargs)
        finally:
            RECORDER.dump(Path(TRACE_DIR))

    module._worker = _worker


class _Finder(importlib.abc.MetaPathFinder):
    """Patches every ``repro`` module as soon as it has executed."""

    def find_spec(self, fullname, path, target=None):
        if fullname != "repro" and not fullname.startswith("repro."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return spec
        loader = spec.loader
        execute = loader.exec_module

        def exec_module(module):
            execute(module)
            _patch_module(module)

        loader.exec_module = exec_module
        return spec


TRACE_DIR = "."
_JOB_FUNCTIONS: list = []
_SPECIAL_DONE: set = set()


def install(trace_dir=None) -> Recorder:
    """Wrap the layers' functions in every ``repro`` module loaded now
    and, through an import hook, in every one loaded later."""
    global TRACE_DIR
    if trace_dir is not None:
        TRACE_DIR = str(trace_dir)
    if not any(isinstance(f, _Finder) for f in sys.meta_path):
        sys.meta_path.insert(0, _Finder())
    _patch_loaded()
    return RECORDER


def add_jobs(jobs) -> None:
    """Make calls of job functions op root spans; ``jobs`` are
    ``(module, function, job name)`` triples."""
    _JOB_FUNCTIONS.extend(jobs)
    _patch_loaded()


def _patch_loaded() -> None:
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            _patch_module(module)
