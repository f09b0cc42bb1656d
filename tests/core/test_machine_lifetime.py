"""A finished run leaves no machine behind.

No component holds the machine, or the component that owns it,
strongly (see :class:`repro.core.machine.Machine`), so reference
counting frees a drained machine -- caches, directory, controllers and
recovery tables with it -- the moment its caller drops it.  Each test
here runs with the cyclic collector disabled: anything kept alive by a
reference cycle stays alive, and the weak references show it.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core.api import PMAllocator
from repro.core.crash import crash_machine, record_run
from repro.core.machine import Machine
from repro.core.models import MODEL_REGISTRY
from repro.exp import RunSpec
from repro.sample.pipeline import run_sampled

THREADS = 4


@pytest.fixture
def no_cycle_collector():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.fixture
def live_machines(monkeypatch):
    """Every machine built during the test, held weakly."""
    machines = weakref.WeakSet()
    build = Machine.__init__

    def tracked(self, *args, **kwargs):
        build(self, *args, **kwargs)
        machines.add(self)

    monkeypatch.setattr(Machine, "__init__", tracked)
    return machines


def _run_and_drop(spec):
    """Run ``spec`` as perfbench's grid does, keep the result and the
    crash state, drop the machine; weak references to its parts."""
    programs = spec.build_workload().programs(PMAllocator(), THREADS)
    machine = Machine(spec.machine, spec.run_config())
    result = machine.run(programs)
    state = crash_machine(machine)
    parts = {"machine": machine, "directory": machine.directory}
    parts.update(
        (f"hierarchy{i}", h) for i, h in enumerate(machine.hierarchies)
    )
    parts.update((f"mc{i}", mc) for i, mc in enumerate(machine.mcs))
    parts.update(
        (f"recovery_table{i}", rt)
        for i, rt in enumerate(machine.recovery_tables) if rt is not None
    )
    parts.update((f"path{i}", path) for i, path in enumerate(machine.paths))
    refs = {name: weakref.ref(part) for name, part in parts.items()}
    del machine, parts
    return result, state, refs


@pytest.mark.parametrize("model", list(MODEL_REGISTRY))
@pytest.mark.parametrize("workload,ops", [("queue", 12), ("bandwidth", 40)])
def test_dropped_machine_is_freed_without_the_collector(
    no_cycle_collector, workload, ops, model
):
    spec = RunSpec(workload, model, ops_per_thread=ops, num_threads=THREADS,
                   seed=7)
    result, state, refs = _run_and_drop(spec)
    assert [name for name, ref in refs.items() if ref() is not None] == []
    # what the caller kept is intact without the machine
    assert result.ops_executed > 0 and result.stats.as_dict()
    assert state.media == result.log.newest_write_per_line()


def test_record_run_leaves_no_machine(no_cycle_collector, live_machines):
    for model in MODEL_REGISTRY:
        spec = RunSpec("queue", model, ops_per_thread=8,
                       num_threads=THREADS, seed=7)
        programs = spec.build_workload().programs(PMAllocator(), THREADS)
        recording = record_run(spec.machine, spec.run_config(), programs)
        assert recording.journal
    assert len(live_machines) == 0


def test_run_sampled_leaves_no_machine(no_cycle_collector, live_machines):
    report = run_sampled("queue", "asap_rp", ops_per_thread=600)
    assert report.ops_simulated < report.ops_total
    assert len(live_machines) == 0
