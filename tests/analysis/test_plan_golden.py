"""Golden outputs of the cost, maintain and shard analyses.

``plan_golden.json`` pins, byte for byte:

* ``repro analyze cost|maintain|shard --format json`` and ``repro lint
  --semantic --format json`` on every example query, in full;
* the same reports for every Datalog program literal the evidence jobs
  evaluate, as sha256 digests of canonical JSON (the file stays small);
* each under assumed parameters, parameters measured from an instance,
  and an instance that also seeds an IDB predicate (which changes the
  retraction sources and insert-monotonicity), plus the per-view flags
  ``--update-size 3``, ``--append-only E`` and ``--workers 8``;
* the ``predicted_delta`` of every update round of
  ``examples/inputs/serve_session.json``.
"""

from __future__ import annotations

import ast
import hashlib
import inspect
import json
import textwrap
from pathlib import Path


ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = ROOT / "examples" / "inputs"
FIXTURE = Path(__file__).with_name("plan_golden.json")

QUERIES = ("bound_reach_query.txt", "broken_lint.txt", "reach_query.txt")

#: the per-view flags run on top of every parameter mode
VIEW_FLAGS = {
    "cost": ((),),
    "maintain": ((), ("--update-size", "3"), ("--append-only", "E")),
    "shard": ((), ("--workers", "8")),
}

MODES = ("assumed", "measured", "seeded")


def _instance_text(program, mode: str) -> str:
    """Deterministic facts for every EDB predicate of ``program``; the
    ``seeded`` mode adds two facts of its last IDB predicate by name."""
    preds = sorted(program.edb_predicates())
    if mode == "seeded":
        preds += sorted(program.idb_predicates())[-1:]
    lines = []
    for number, pred in enumerate(preds):
        rows = 2 if pred in program.idb_predicates() else 4
        for row in range(rows):
            args = ", ".join(
                f"'c{(row + position + number) % 5}'"
                for position in range(program.arity_of(pred))
            )
            lines.append(f"{pred}({args}).")
    return "\n".join(lines) + "\n"


def _cli_json(argv, capsys) -> object:
    from repro.cli import main

    capsys.readouterr()
    code = main(list(argv))
    out = capsys.readouterr().out
    return {"exit": code, "output": json.loads(out)}


def _example_outputs(tmp_path: Path, capsys) -> dict:
    from repro.core.parser import parse_program_source

    outputs: dict = {}
    for name in QUERIES:
        path = EXAMPLES / name
        program = parse_program_source(path.read_text()).program()
        per_query: dict = {}
        for mode in MODES:
            extra: tuple[str, ...] = ()
            if mode != "assumed":
                instance = tmp_path / f"{name}.{mode}.facts"
                instance.write_text(_instance_text(program, mode))
                extra = ("--instance", str(instance))
            for view, flag_sets in VIEW_FLAGS.items():
                for flags in flag_sets:
                    key = " ".join((view, mode, *flags))
                    per_query[key] = _cli_json(
                        ["analyze", view, str(path), "--format", "json",
                         *extra, *flags],
                        capsys,
                    )
        per_query["lint"] = _cli_json(
            ["lint", str(path), "--semantic", "--format", "json"], capsys
        )
        outputs[name] = per_query
    return outputs


def _digest(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _program_literals(job) -> list[str]:
    """Datalog-looking string constants (``<-``) in the job function's
    source."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(job.resolve())))
    return [
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and "<-" in node.value
    ]


def _evidence_programs() -> dict:
    """Every parsable program literal of the evidence jobs, by digest."""
    from repro.core.parser import ParseError, parse_program
    from repro.harness.registry import default_registry

    programs = {}
    for job in default_registry().select(None):
        for text in _program_literals(job):
            for candidate in (text, text + "."):
                try:
                    program = parse_program(candidate)
                except (ParseError, ValueError):
                    continue
                if program.rules:
                    digest = hashlib.sha256(candidate.encode()).hexdigest()
                    programs[digest[:16]] = program
                break
    return programs


def _evidence_outputs() -> dict:
    from repro.analysis import analyze_query
    from repro.analysis.cost import cost_report
    from repro.analysis.maintain import maintain_report
    from repro.analysis.shard import shard_report
    from repro.core.parser import parse_instance

    outputs = {}
    for key, program in sorted(_evidence_programs().items()):
        entry = {}
        for mode in MODES:
            instance = (
                None if mode == "assumed"
                else parse_instance(_instance_text(program, mode))
            )
            entry[f"cost {mode}"] = cost_report(program, instance=instance)
            entry[f"maintain {mode}"] = maintain_report(
                program, instance=instance
            )
            entry[f"shard {mode}"] = shard_report(program, instance=instance)
        entry["maintain assumed --update-size 3"] = maintain_report(
            program, update_size=3
        )
        entry["maintain assumed --append-only E"] = maintain_report(
            program, append_only=frozenset({"E"})
        )
        entry["shard assumed --workers 8"] = shard_report(program, workers=8)
        entry["lint"] = analyze_query(program, semantic=True)
        outputs[key] = {
            name: _digest(report.as_dict()) for name, report in entry.items()
        }
    return outputs


def _serve_predictions() -> list:
    import asyncio

    from repro.serve.cli import load_script
    from repro.serve.service import ServeService

    requests = load_script(EXAMPLES / "serve_session.json")
    service = ServeService()

    async def drive() -> list:
        return [await service.handle(request) for request in requests]

    return [
        response["predicted_delta"]
        for response in asyncio.run(drive())
        if "predicted_delta" in response
    ]


def collect(tmp_path: Path, capsys) -> dict:
    return {
        "examples": _example_outputs(tmp_path, capsys),
        "evidence_programs": _evidence_outputs(),
        "serve_predicted_delta": _serve_predictions(),
    }


def test_analysis_outputs_match_the_golden_fixture(tmp_path, capsys):
    current = collect(tmp_path, capsys)
    golden = json.loads(FIXTURE.read_text())
    assert current["serve_predicted_delta"] == golden["serve_predicted_delta"]
    assert current["evidence_programs"].keys() == (
        golden["evidence_programs"].keys()
    )
    for key, outputs in golden["evidence_programs"].items():
        assert current["evidence_programs"][key] == outputs, key
    for name, outputs in golden["examples"].items():
        for view, expected in outputs.items():
            assert current["examples"][name][view] == expected, (name, view)
    assert current == golden
