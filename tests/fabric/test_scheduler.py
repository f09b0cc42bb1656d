"""The fabric scheduler: correctness, dedupe, chaos, retry budget."""

from __future__ import annotations

import json
import os
import signal

import pytest

from repro.exp import ResultCache
from repro.exp.spec import RunSpec, execute_spec
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


def _square(x: int) -> int:
    return x * x


def _boom(x: int) -> int:
    raise ValueError(f"boom on {x}")


def _suicide(x: int) -> int:
    os.kill(os.getpid(), signal.SIGKILL)
    return x  # pragma: no cover -- never reached


class _RecordingSink:
    def __init__(self):
        self.events = []

    def handle(self, event) -> None:
        self.events.append(event)


def test_map_matches_serial_execution():
    specs = _specs(4)
    serial = [execute_spec(spec) for spec in specs]
    with FabricScheduler(jobs=2) as scheduler:
        fanned = scheduler.map(execute_spec, specs)
    assert [r.fingerprint() for r in fanned] == [
        r.fingerprint() for r in serial
    ]


def test_generic_call_kind_and_input_order():
    with FabricScheduler(jobs=2) as scheduler:
        values = scheduler.map(_square, list(range(10)))
    assert values == [x * x for x in range(10)]


def test_map_empty_is_trivial():
    with FabricScheduler(jobs=2) as scheduler:
        assert scheduler.map(_square, []) == []


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
    specs = _specs(8)
    serial = [execute_spec(spec) for spec in specs]
    stream = tmp_path / "results.jsonl"
    with FabricScheduler(
        jobs=2, chaos_kill_after=2, lease_timeout=5.0,
        stream_path=str(stream),
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
    assert all(line["kind"] == "spec" for line in lines)


def test_task_exception_is_terminal_not_retried():
    with FabricScheduler(jobs=2) as scheduler:
        with pytest.raises(FabricTaskError, match="boom on 1"):
            scheduler.map(_boom, [1])
        counters = scheduler.counters_snapshot()
    assert counters["tasks_failed"] == 1
    assert counters["tasks_retried"] == 0


def test_retry_budget_fails_worker_killing_task_cleanly():
    """A poison task that SIGKILLs every worker it lands on must be
    failed by the scheduler after ``max_retries`` steals -- not loop
    forever and not stall the fabric."""
    with FabricScheduler(
        jobs=1, max_retries=2, max_respawns=8, lease_timeout=60.0,
        poll_interval=0.01,
    ) as scheduler:
        with pytest.raises(FabricTaskError, match="retry budget"):
            scheduler.map(_suicide, [1], timeout=100)
        counters = scheduler.counters_snapshot()
    assert counters["leases_stolen"] == 3  # initial + 2 retries
    assert counters["tasks_retried"] == 2
    assert counters["workers_died"] == 3
    assert counters["tasks_failed"] == 1


def test_pool_death_without_respawn_raises_stalled():
    with FabricScheduler(
        jobs=1, respawn=False, poll_interval=0.01,
    ) as scheduler:
        with pytest.raises(FabricStalledError):
            scheduler.map(_suicide, [1], timeout=100)


def test_obs_events_reach_sinks():
    sink = _RecordingSink()
    with FabricScheduler(jobs=1, sinks=[sink]) as scheduler:
        scheduler.map(_square, [1, 2])
    kinds = {(e.type.value, e.kind) for e in sink.events}
    assert ("fabric_worker", "spawn") in kinds
    assert ("fabric_task", "submit") in kinds
    assert ("fabric_task", "done") in kinds
    assert all(e.comp == "fabric" for e in sink.events)


def test_wait_timeout_reports_progress():
    with FabricScheduler(jobs=1) as scheduler:
        with pytest.raises(TimeoutError, match="incomplete"):
            scheduler.map(
                execute_spec, _specs(2, ops=400), timeout=0.01
            )


def test_rejects_zero_workers():
    with pytest.raises(ValueError):
        FabricScheduler(jobs=0)
