"""Deliberately misbehaving job functions for runner tests.

These run inside worker *processes*, so they must be importable by
dotted reference (``tests.harness.sample_jobs:<name>``) — cross-process
state (the flaky sentinel) goes through the filesystem.
"""

from __future__ import annotations

import os
import pkgutil
import sys
import threading
import time


def ok_job(verdict: str = "fine", measured: str = "all good") -> dict:
    return {"verdict": verdict, "measured": measured}


def hang_job(seconds: float = 60.0) -> dict:
    time.sleep(seconds)
    return {"verdict": "woke-up"}


def lingering_job(seconds: float = 60.0) -> dict:
    """Delivers its result but leaves a non-daemon thread behind, which
    keeps the worker process alive for ``seconds`` after the send."""
    threading.Thread(target=time.sleep, args=(seconds,)).start()
    return {"verdict": "fine", "measured": "sent, still running"}


def unloaded_modules_job() -> dict:
    """Lists the ``repro`` modules not yet imported when the job starts."""
    import repro

    loaded = set(sys.modules)
    missing = [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.name not in loaded and info.name != "repro.__main__"
    ]
    return {
        "verdict": "warm" if not missing else "cold",
        "metrics": {"missing": missing},
    }


def crash_job(message: str = "boom") -> dict:
    raise RuntimeError(message)


def flaky_job(sentinel: str) -> dict:
    """Crashes on the first attempt, succeeds once ``sentinel`` exists."""
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as fh:
            fh.write("first attempt\n")
        raise RuntimeError("flaky: failing the first attempt")
    return {"verdict": "recovered", "measured": "succeeded on retry"}


def engine_job() -> dict:
    """Does real engine work so EngineStats flow back across the pipe."""
    from repro.core.parser import parse_cq, parse_instance

    q = parse_cq("Q(x) <- R(x,y)")
    inst = parse_instance("R('a','b'). R('b','c').")
    rows = q.evaluate(inst)
    return {
        "verdict": "evaluated",
        "measured": f"{len(rows)} rows",
        "metrics": {"rows": len(rows)},
    }


def bad_return_job():
    return ["not", "a", "dict"]


def certified_job() -> dict:
    """Emits a small, genuinely valid certificate."""
    from repro.certify.emit import certificate, claim_query_output
    from repro.core.parser import parse_cq, parse_instance
    from repro.harness.evidence_common import finish

    q = parse_cq("Q(x) <- R(x,y)")
    inst = parse_instance("R('a','b'). R('b','c').")
    return finish(
        "evaluated", [("ran", True)], "with certificate",
        certificate=certificate([claim_query_output(q, inst)]),
    )


def forged_certificate_job() -> dict:
    """Emits a certificate whose recorded output is a lie."""
    from repro.certify.emit import certificate, claim_query_output
    from repro.core.parser import parse_cq, parse_instance
    from repro.harness.evidence_common import finish

    q = parse_cq("Q(x) <- R(x,y)")
    inst = parse_instance("R('a','b').")
    return finish(
        "evaluated", [("ran", True)], "with forged certificate",
        certificate=certificate(
            [claim_query_output(q, inst, output={("a",), ("zzz",)})]
        ),
    )


def optimize_probe_job() -> dict:
    """Reports whether the worker's run evaluates through the optimizer."""
    from repro.core.context import current

    optimize = current().config.optimize
    return {
        "verdict": "optimized" if optimize else "plain",
        "measured": f"optimize={optimize}",
    }


def backend_probe_job() -> dict:
    """Reports the worker's run backend."""
    from repro.core.context import current

    backend = current().config.backend
    return {"verdict": backend, "measured": f"backend={backend}"}


def datalog_fixpoint_job() -> dict:
    """Runs a real recursive fixpoint so --audit cost has something
    to audit in worker processes."""
    from repro.core.evaluation import fixpoint
    from repro.core.parser import parse_instance, parse_program

    program = parse_program(
        "T(x,y) <- R(x,y). T(x,y) <- R(x,z), T(z,y)."
    )
    inst = parse_instance("R(1,2). R(2,3). R(3,4).")
    result = fixpoint(program, inst)
    return {"verdict": "computed", "measured": f"{result.size('T')} facts"}


def maintenance_job() -> dict:
    """Runs two maintenance rounds so a ``maintain`` audit checks
    something in exactly this job."""
    from repro.core.parser import parse_instance, parse_program
    from repro.ivm import MaterializedView

    view = MaterializedView(
        parse_program("T(x,y) <- R(x,y). T(x,y) <- R(x,z), T(z,y)."),
        parse_instance("R(1,2). R(2,3)."),
    )
    view.insert([("R", (3, 4))])
    view.retract([("R", (1, 2))])
    return {"verdict": "maintained", "measured": f"{view.rounds} rounds"}
