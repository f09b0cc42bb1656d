"""FabricExecutor as a drop-in for every executor.map tenant.

The invariant under test everywhere: running a campaign through the
fabric produces the *same document bytes* as running it serially --
executors are substrates, not semantics.
"""

from __future__ import annotations

import pytest

from repro.crashtest.campaign import run_campaign
from repro.exp import ExperimentPlan, RunSpec, execute_spec, run_plan
from repro.fabric import FabricExecutor, FabricScheduler
from repro.litmus import LitmusRunOptions, run_litmus, smoke_corpus


def test_run_plan_over_fabric_matches_serial():
    plan = ExperimentPlan.grid(
        ["queue", "heap"], ["baseline", "asap_rp"], ops_per_thread=20
    )
    serial = run_plan(plan)
    fabric = run_plan(plan, executor=FabricExecutor(jobs=2))
    assert [r.fingerprint() for r in serial.results] == [
        r.fingerprint() for r in fabric.results
    ]


def test_run_campaign_over_fabric_is_byte_identical():
    kwargs = dict(
        workloads=["queue"], models=["asap_rp"], points=5,
        ops_per_thread=10,
    )
    serial = run_campaign(**kwargs)
    fabric = run_campaign(**kwargs, executor=FabricExecutor(jobs=2))
    assert serial.to_json() == fabric.to_json()


def test_run_litmus_over_fabric_is_byte_identical():
    tests = smoke_corpus()[:2]
    serial = run_litmus(tests, LitmusRunOptions(points=4))
    fabric = run_litmus(
        tests,
        LitmusRunOptions(points=4, executor=FabricExecutor(jobs=2)),
    )
    assert serial.to_json() == fabric.to_json()


def test_scheduler_is_an_executor_reused_across_plans():
    with FabricScheduler(jobs=2) as scheduler:
        plan = ExperimentPlan.grid(["queue"], ["asap_rp"],
                                   ops_per_thread=15)
        first = run_plan(plan, executor=scheduler)
        second = run_plan(plan, executor=scheduler)
        counters = scheduler.counters_snapshot()
    # the second plan's cells deduped onto the first's tasks in the
    # shared scheduler rather than spawning a second pool.
    assert counters["tasks_submitted"] == 1
    assert counters["tasks_deduped"] == 1
    assert [r.fingerprint() for r in first.results] == [
        r.fingerprint() for r in second.results
    ]


def test_ephemeral_executor_records_counters():
    executor = FabricExecutor(jobs=2)
    executor.map(execute_spec, [RunSpec("nstore", "baseline",
                                        ops_per_thread=10)])
    assert executor.last_counters["tasks_completed"] == 1


def test_map_runs_specs_only(tmp_path):
    """The fabric's one task kind is a spec: any other map function is
    refused before a task is written."""
    queue = tmp_path / "q"
    with pytest.raises(TypeError, match="execute_spec"):
        FabricExecutor(jobs=1, queue_dir=queue).map(len, [[1]])
    assert list((queue / "tasks").iterdir()) == []


def test_every_spec_type_is_one_spec_task_addressed_by_its_key():
    from repro.crashtest.campaign import CrashCellSpec
    from repro.fabric import envelope_for
    from repro.litmus.spec import LitmusSpec

    specs = [
        RunSpec("queue", "asap_rp", ops_per_thread=10),
        CrashCellSpec("queue", "asap_rp", points=8),
        LitmusSpec(smoke_corpus()[0], "asap_rp", points=4),
    ]
    for spec in specs:
        env = envelope_for(spec)
        assert (env.task_id, env.payload, env.label) == (
            spec.key(), spec, spec.label()
        )
