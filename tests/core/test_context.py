"""The run context: one frozen configuration, scoped per thread and task.

A :class:`RunConfig` is validated once, :func:`running` installs it with
fresh audits and a collector, and nothing it installs leaks to another
thread — the stats and audits of two concurrent runs stay apart,
which is what lets ``repro serve`` drop its process-wide lock.
"""

from __future__ import annotations

import dataclasses
import sys
import threading

import pytest

from repro.analysis.cost import CostGuard
from repro.core import parse_instance, parse_program
from repro.core.context import AUDITS, RunConfig, current, running
from repro.core.evaluation import fixpoint
from repro.core.stats import EngineStats, active, collecting, suspended
from repro.ivm import MaterializedView

TC = parse_program(
    """
    Reach(x,y) <- E(x,y).
    Reach(x,y) <- E(x,z), Reach(z,y).
    Goal(y) <- S(x), Reach(x,y).
    """
)


def _chain(n: int):
    return parse_instance(
        " ".join(f"E({i},{i + 1})." for i in range(n)) + " S(0)."
    )


# ---------------------------------------------------------------------------
# RunConfig
# ---------------------------------------------------------------------------
def test_run_config_defaults_are_the_plain_engine():
    config = RunConfig()
    assert config.backend == "columnar"
    assert config.optimize is False
    assert config.shards == 0
    assert config.audits == frozenset()


def test_run_config_is_frozen_and_hashable():
    config = RunConfig(audits={"cost", "shard"})
    assert isinstance(config.audits, frozenset)
    assert hash(config) == hash(RunConfig(audits=frozenset({"shard", "cost"})))
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.backend = "columnar"  # type: ignore[misc]


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"backend": "vectorized"}, "unknown backend"),
        ({"shards": -1}, "shards must be >= 0"),
        ({"audits": {"cost", "vibes"}}, "unknown audit"),
    ],
)
def test_run_config_validates_on_construction(kwargs, message):
    with pytest.raises(ValueError, match=message):
        RunConfig(**kwargs)


def test_every_audit_name_builds_its_guard():
    with running(RunConfig(audits=frozenset(AUDITS))) as run:
        assert set(run.audits) == set(AUDITS)
        assert isinstance(run.audits["cost"], CostGuard)
    assert set(run.summaries()) == set(AUDITS)


# ---------------------------------------------------------------------------
# scoping
# ---------------------------------------------------------------------------
def test_running_installs_and_restores():
    outer = current()
    with running(RunConfig(backend="columnar")) as run:
        assert current() is run
        assert run.config.backend == "columnar"
    assert current() is outer


def test_running_is_fresh_and_collecting_nests_inside_it():
    outer_stats = EngineStats()
    with collecting(outer_stats):
        with running(RunConfig()) as run:
            assert active() is None  # a fresh run has its own collector
            inner = EngineStats()
            with collecting(inner):
                assert active() is inner
                # a nested collector keeps the run's config and audits
                assert current().config is run.config
                assert current().audits is run.audits
            assert active() is None
        assert active() is outer_stats


def test_suspended_shadows_the_collector_inside_a_run():
    stats = EngineStats()
    # hom_calls counts the interpreted engine's searches
    with running(RunConfig(backend="interpreted"), stats):
        with suspended():
            fixpoint(TC, _chain(4))
        assert stats.hom_calls == 0
        fixpoint(TC, _chain(4))
    assert stats.hom_calls > 0


def test_per_call_keyword_overrides_the_run():
    instance = _chain(6)
    stats = EngineStats()
    with running(RunConfig(backend="columnar")):
        fixpoint(TC, instance, backend="interpreted", stats=stats)
    assert stats.hom_calls > 0
    assert stats.join_probe_rows == 0


def test_materialized_view_resolves_its_backend_at_construction():
    with running(RunConfig(backend="columnar", optimize=True)):
        view = MaterializedView(TC, _chain(4))
    assert view.backend == "columnar"
    assert view.optimize is True
    # leaving the run does not change the engine the view maintains with
    assert view.insert([("E", (4, 5))]).backend == "columnar"


# ---------------------------------------------------------------------------
# threads: nothing a run installs is visible to another thread
# ---------------------------------------------------------------------------
def _updates(offset: int) -> list[tuple[list, list]]:
    """Twenty rounds on a 30-node chain: cut an edge, put it back."""
    rounds = []
    for step in range(10):
        edge = ("E", ((offset + 3 * step) % 30, (offset + 3 * step) % 30 + 1))
        rounds.append(([], [edge]))
        rounds.append(([edge], []))
    return rounds


def _drive(updates) -> tuple[dict, frozenset]:
    view = MaterializedView(TC, _chain(30))
    stats = EngineStats()
    for inserts, retracts in updates:
        view.apply(inserts, retracts, stats)
    return stats.to_dict(), view.query("Reach")


def test_threaded_views_count_exactly_their_own_rounds():
    """Each view's collector, driven on its own thread next to others,
    equals the one a solo run fills — field for field."""
    workloads = [_updates(offset) for offset in (0, 1, 2, 0)]
    solo = [_drive(updates) for updates in workloads]
    results: list = [None] * len(workloads)

    def work(index: int) -> None:
        results[index] = _drive(workloads[index])

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=work, args=(index,))
            for index in range(len(workloads))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(previous)
    for index, (stats, reach) in enumerate(solo):
        assert results[index] is not None, index
        assert results[index][0] == stats, index
        assert results[index][1] == reach, index


def test_audit_installed_on_one_thread_skips_another_threads_fixpoint():
    installed = threading.Event()
    release = threading.Event()
    runs: list = []

    def audited() -> None:
        with running(RunConfig(audits={"cost"})) as run:
            fixpoint(TC, _chain(5))
            installed.set()
            release.wait(timeout=60)
        runs.append(run)

    thread = threading.Thread(target=audited)
    thread.start()
    try:
        assert installed.wait(timeout=60)
        assert "cost" not in current().audits
        fixpoint(TC, _chain(5))
    finally:
        release.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    (run,) = runs
    # only the audited thread's own fixpoint was checked
    assert run.summaries()["cost"]["checks"] == 1


def test_run_stats_stay_with_the_run_that_counted_them():
    """Two runs on two threads, each on its own engine: each run's
    collector ends up exactly as a solo run of the same fixpoint fills
    it, with none of the other engine's counters."""
    sizes = {"interpreted": 3, "columnar": 150}

    def count(backend: str) -> EngineStats:
        stats = EngineStats()
        with running(RunConfig(backend=backend), stats):
            fixpoint(TC, _chain(sizes[backend]))
        return stats

    solo = {backend: count(backend).to_dict() for backend in sizes}
    counted: dict[str, EngineStats] = {}

    def work(backend: str) -> None:
        counted[backend] = count(backend)

    threads = [
        threading.Thread(target=work, args=(backend,)) for backend in sizes
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    for backend in sizes:
        assert counted[backend].to_dict() == solo[backend], backend
    assert counted["interpreted"].columnar_batches == 0
    assert counted["columnar"].hom_calls == 0
    assert counted["columnar"].columnar_batches > 0
    assert current().stats is None
