"""Crash-point enumeration: deterministic, structured, in-bounds."""

import pytest

from repro.core.api import PMAllocator
from repro.core.crash import record_run
from repro.core.machine import Machine
from repro.core.models import MODEL_REGISTRY, resolve_model
from repro.crashtest.points import (
    ReferenceRun,
    derive_rng,
    enumerate_crash_points,
    stratified_cycles,
)
from repro.obs.events import EventType
from repro.obs.sinks import RingBufferSink
from repro.sim.config import HardwareModel, MachineConfig
from repro.workloads import get_workload

IDENTITY = {"workload": "queue", "model": "asap_rp", "seed": 7, "points": 20}


def _reference(commits=(100, 200, 300), drain=1000):
    return ReferenceRun(
        drain_cycles=drain, runtime_cycles=drain - 50,
        commit_cycles=tuple(commits),
    )


def test_enumeration_is_deterministic():
    ref = _reference()
    first = enumerate_crash_points(ref, 20, IDENTITY)
    second = enumerate_crash_points(ref, 20, IDENTITY)
    assert first == second


def test_identity_changes_the_random_fill():
    ref = _reference()
    a = enumerate_crash_points(ref, 20, IDENTITY)
    b = enumerate_crash_points(ref, 20, dict(IDENTITY, seed=8))
    assert a != b
    # ...but commit boundaries appear in both regardless of the seed.
    for cycle in (101, 201, 301):
        assert cycle in a and cycle in b


def test_points_are_sorted_unique_and_in_bounds():
    ref = _reference()
    cycles = enumerate_crash_points(ref, 40, IDENTITY)
    assert cycles == sorted(set(cycles))
    assert all(1 <= c < ref.drain_cycles for c in cycles)
    assert len(cycles) == 40


def test_commit_boundaries_are_included():
    ref = _reference(commits=(10, 20, 30))
    cycles = enumerate_crash_points(ref, 12, IDENTITY)
    for boundary in (11, 21, 31):
        assert boundary in cycles


def test_many_boundaries_are_subsampled_to_half_budget():
    ref = _reference(commits=tuple(range(10, 910, 10)), drain=1000)
    cycles = enumerate_crash_points(ref, 20, IDENTITY)
    boundaries = {c + 1 for c in ref.commit_cycles}
    assert len([c for c in cycles if c in boundaries]) >= 10
    assert len(cycles) == 20


def test_short_run_yields_fewer_points_without_error():
    ref = _reference(commits=(), drain=5)
    cycles = enumerate_crash_points(ref, 50, IDENTITY)
    assert cycles == sorted(set(cycles))
    assert all(1 <= c < 5 for c in cycles)


def test_stratified_cycles_cover_all_strata():
    rng = derive_rng(IDENTITY)
    cycles = stratified_cycles(1000, 10, rng)
    assert len(cycles) == 10
    span = 999
    for index, cycle in enumerate(cycles):
        lo = 1 + index * span // 10
        hi = 1 + (index + 1) * span // 10
        assert lo <= cycle < max(lo + 1, hi)


@pytest.mark.parametrize("model", sorted(MODEL_REGISTRY))
def test_recording_reference_matches_a_traced_run(model):
    """The recording's horizon and commit cycles are the ones a traced
    run of the same cell reports."""
    machine = MachineConfig()
    run_config = resolve_model(model).run_config(seed=7)

    def programs():
        return get_workload("queue", ops_per_thread=6).programs(
            PMAllocator(), machine.num_cores
        )

    ring = RingBufferSink()
    traced = Machine(machine, run_config, sinks=[ring]).run(programs())
    ref = record_run(machine, run_config, programs()).reference
    commits = {
        event.cycle for event in ring.events
        if event.type is EventType.EPOCH_COMMIT
    }
    assert ref.commit_cycles == tuple(sorted(commits))
    assert ref.drain_cycles == traced.drain_cycles
    assert ref.runtime_cycles == traced.runtime_cycles
    # designs with an epoch table commit; the baseline and eADR have none
    assert bool(ref.commit_cycles) == (
        resolve_model(model).hardware
        not in (HardwareModel.BASELINE, HardwareModel.EADR)
    )
