"""Compare benchmark runs: metric runs by the paired rule, traced runs per layer.

    python3 perfbench/compare.py runs PARENT CHANGE
    python3 perfbench/compare.py layers PARENT_TRACE CHANGE_TRACE

``PARENT``/``CHANGE`` are run records written by ``run.py`` (files or
directories of them, e.g. ``.perfbench-out/runs`` of two checkouts).
Each workload gets its own rows.

``runs`` pairs the i-th parent run with the i-th change run (in the
order they were made; make them alternately, parent first in even pairs
and change first in odd ones, one fresh seed per pair, so host drift
falls on both sides alike) and, per end-to-end metric, prints each side's
median and quartiles, the change's wins over the pairs (ties count for
neither) and a verdict: ``gain`` when the change wins at least nine
tenths of the pairs and the medians differ by more than the parent's
interquartile distance; ``regression`` when the change's median is worse
than the parent's by more than the metric's bound; ``unresolved`` when
the parent's own spread is wider than the bound, unless every change run
is better than every parent run; ``same`` otherwise.  Extra values a run
records (the serve latency percentiles) are shown without a verdict.

``layers`` prints every per-layer metric of two traced runs of the same
workload side by side with the relative change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from common import spec


def load(paths) -> list[dict]:
    records = []
    for path in map(Path, paths):
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        for file in files:
            record = json.loads(file.read_text())
            record["_file"] = str(file)
            records.append(record)
    return sorted(records, key=lambda r: r.get("started", 0))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], better: str,
            bound: float | None) -> tuple[int, str]:
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pairs = min(len(parent), len(change))
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    if bound is None:
        return wins, "-"
    if pairs and wins >= 0.9 * pairs and sign * (cm - pm) > (p3 - p1):
        return wins, "gain"
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if (p3 - p1) / pm > bound and not all_better:
        return wins, "unresolved"
    if -sign * (cm - pm) / pm > bound:
        return wins, "regression"
    return wins, "same"


def cmd_runs(parent_paths, change_paths) -> int:
    declared = {m["name"]: m for m in spec()["end_to_end"]}
    parent = [r for r in load(parent_paths) if not r["trace"]]
    change = [r for r in load(change_paths) if not r["trace"]]
    worst = 0
    for workload in sorted({r["workload"] for r in parent + change}):
        ps = [r for r in parent if r["workload"] == workload]
        cs = [r for r in change if r["workload"] == workload]
        print(f"{workload}: {len(ps)} parent run(s), {len(cs)} change run(s)")
        if not ps or not cs:
            continue
        names = list(declared) + sorted({k for r in ps for k in r.get("extra", {})})
        for name in names:
            def values(runs):
                return [r["metrics"][name]["value"] if name in r["metrics"]
                        else r.get("extra", {}).get(name) for r in runs]
            pv, cv = values(ps), values(cs)
            if None in pv or None in cv:
                continue
            meta = declared.get(name, {"better": "lower", "bound": None})
            wins, outcome = verdict(pv, cv, meta["better"], meta.get("bound"))
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            change_pct = (cm - pm) / pm * 100 if pm else 0.0
            print(f"  {name:<16} parent {pm:10.4g} [{p1:.4g}, {p3:.4g}]  "
                  f"change {cm:10.4g} [{c1:.4g}, {c3:.4g}]  {change_pct:+6.1f}%  "
                  f"wins {wins}/{min(len(pv), len(cv))}  {outcome}")
            if outcome == "regression":
                worst = 1
    return worst


def cmd_layers(parent_path, change_path) -> int:
    (parent,), (change,) = load([parent_path]), load([change_path])
    if parent["workload"] != change["workload"]:
        print("the two traced runs are of different workloads", file=sys.stderr)
        return 2
    print(f"{parent['workload']}: per layer, parent -> change")
    for name, entry in parent["metrics"].items():
        a = entry["value"]
        b = change["metrics"].get(name, {}).get("value", 0.0)
        if a == 0 and b == 0:
            continue
        delta = f"{(b - a) / a * 100:+7.1f}%" if a else "    new"
        print(f"  {name:<40} {a:12.6g} -> {b:12.6g} {entry['unit']:<6} {delta}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    runs = sub.add_parser("runs")
    runs.add_argument("parent")
    runs.add_argument("change")
    layers = sub.add_parser("layers")
    layers.add_argument("parent")
    layers.add_argument("change")
    args = parser.parse_args(argv)
    if args.command == "runs":
        return cmd_runs([args.parent], [args.change])
    return cmd_layers(args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main())
