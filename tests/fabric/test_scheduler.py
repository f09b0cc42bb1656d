"""The fabric scheduler: correctness, dedupe, chaos, retry budget."""

from __future__ import annotations

import json
import os
import signal
from dataclasses import dataclass

import pytest

from repro.exp import ResultCache
from repro.exp.spec import RunSpec, Spec, execute_spec
from repro.fabric import (
    FabricScheduler,
    FabricStalledError,
    FabricTaskError,
)


def _specs(n: int, ops: int = 20):
    return [
        RunSpec("queue", "asap_rp", num_threads=1, ops_per_thread=ops,
                seed=seed)
        for seed in range(1, n + 1)
    ]


@dataclass(frozen=True)
class _Square(Spec):
    """Test-only spec whose result is ``x * x``."""

    x: int

    def describe(self):
        return {"spec": type(self).__name__, "x": self.x}

    def label(self):
        return f"{type(self).__name__}({self.x})"

    def execute(self):
        return self.x * self.x


class _Boom(_Square):
    """Test-only spec whose execution raises."""

    def execute(self):
        raise ValueError(f"boom on {self.x}")


class _Suicide(_Square):
    """Test-only spec that SIGKILLs the worker running it."""

    def execute(self):
        os.kill(os.getpid(), signal.SIGKILL)


def test_map_matches_serial_execution():
    specs = _specs(4)
    serial = [execute_spec(spec) for spec in specs]
    with FabricScheduler(jobs=2) as scheduler:
        fanned = scheduler.map(execute_spec, specs)
    assert [r.fingerprint() for r in fanned] == [
        r.fingerprint() for r in serial
    ]


def test_map_returns_results_in_input_order():
    with FabricScheduler(jobs=2) as scheduler:
        values = scheduler.map(execute_spec, [_Square(x) for x in range(10)])
    assert values == [x * x for x in range(10)]


def test_map_empty_is_trivial():
    with FabricScheduler(jobs=2) as scheduler:
        assert scheduler.map(execute_spec, []) == []


def test_cross_job_dedupe_serves_duplicates_once():
    specs = _specs(3)
    with FabricScheduler(jobs=2) as scheduler:
        first = scheduler.map(execute_spec, specs)
        second = scheduler.map(execute_spec, specs)
        counters = scheduler.counters_snapshot()
    assert [r.fingerprint() for r in first] == [
        r.fingerprint() for r in second
    ]
    assert counters["tasks_submitted"] == 3
    assert counters["tasks_deduped"] == 3
    assert counters["tasks_completed"] == 3
    assert counters["jobs_completed"] == 2


def test_cache_dir_is_a_shared_store_across_schedulers(tmp_path):
    cache_dir = str(tmp_path / "cache")
    specs = _specs(3)
    with FabricScheduler(jobs=2, cache_dir=cache_dir) as warm:
        warm.map(execute_spec, specs)
    # a brand-new scheduler (fresh queue) must hit the store for every
    # cell: no simulation happens twice anywhere on the fabric.
    with FabricScheduler(jobs=2, cache_dir=cache_dir) as cold:
        results = cold.map(execute_spec, specs)
        counters = cold.counters_snapshot()
    assert counters["tasks_cached"] == 3
    cache = ResultCache(cache_dir)
    assert all(
        cache.get(spec).fingerprint() == result.fingerprint()
        for spec, result in zip(specs, results)
    )


def test_chaos_kill_converges_byte_identical(tmp_path):
    """The fabric-gate property: SIGKILL mid-campaign loses nothing."""
    # Cells long enough (~60 ms) that the kill, fired at the first pump
    # poll (20 ms) that sees two results, finds its victim mid-task with
    # work pending, which is when a respawn is due.  20-op cells (~6 ms)
    # let the whole campaign finish within two polls.
    specs = _specs(8, ops=200)
    serial = [execute_spec(spec) for spec in specs]
    stream = tmp_path / "results.jsonl"
    with FabricScheduler(
        jobs=2, chaos_kill_after=2, stream_path=str(stream),
    ) as scheduler:
        results = scheduler.map(execute_spec, specs, timeout=110)
        counters = scheduler.counters_snapshot()
    assert counters["chaos_kills"] == 1
    assert counters["workers_died"] >= 1
    assert counters["workers_respawned"] >= 1
    assert [r.fingerprint() for r in results] == [
        r.fingerprint() for r in serial
    ]
    lines = [json.loads(line) for line in stream.read_text().splitlines()]
    assert len(lines) == len(specs)
    assert all(line["ok"] for line in lines)
    assert sorted(line["label"] for line in lines) == sorted(
        spec.label() for spec in specs
    )


def test_task_exception_is_terminal_not_retried():
    with FabricScheduler(jobs=2) as scheduler:
        with pytest.raises(FabricTaskError, match="boom on 1"):
            scheduler.map(execute_spec, [_Boom(1)])
        counters = scheduler.counters_snapshot()
    assert counters["tasks_failed"] == 1
    assert counters["tasks_retried"] == 0


def test_retry_budget_fails_worker_killing_task_cleanly(monkeypatch):
    """A poison task that SIGKILLs every worker it lands on must be
    failed by the scheduler after ``MAX_RETRIES`` steals -- not loop
    forever and not stall the fabric."""
    monkeypatch.setattr("repro.fabric.scheduler.MAX_RETRIES", 2)
    with FabricScheduler(jobs=1) as scheduler:
        with pytest.raises(FabricTaskError, match="retry budget"):
            scheduler.map(execute_spec, [_Suicide(1)], timeout=100)
        counters = scheduler.counters_snapshot()
    assert counters["leases_stolen"] == 3  # initial + 2 retries
    assert counters["tasks_retried"] == 2
    assert counters["workers_died"] == 3
    assert counters["tasks_failed"] == 1


def test_pool_death_without_respawn_raises_stalled(monkeypatch):
    monkeypatch.setattr("repro.fabric.scheduler.MAX_RESPAWNS", 0)
    with FabricScheduler(jobs=1) as scheduler:
        with pytest.raises(FabricStalledError):
            scheduler.map(execute_spec, [_Suicide(1)], timeout=100)


def test_wait_timeout_reports_progress():
    with FabricScheduler(jobs=1) as scheduler:
        with pytest.raises(TimeoutError, match="incomplete"):
            scheduler.map(
                execute_spec, _specs(2, ops=400), timeout=0.01
            )


def test_rejects_zero_workers():
    with pytest.raises(ValueError):
        FabricScheduler(jobs=0)
