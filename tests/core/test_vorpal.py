"""Tests for the Vorpal-style comparator model."""

import pytest

from repro.core.api import PMAllocator
from repro.core.crash import run_and_crash
from repro.core.machine import Machine
from repro.core.vorpal import VorpalCoordinator
from repro.sim.config import (
    HardwareModel,
    MachineConfig,
    PersistencyModel,
    RunConfig,
)
from repro.verify import check_consistency
from repro.workloads import get_workload, run_workload

from tests.conftest import locked_pair, make_machine, simple_writer


class TestCoordinator:
    def test_epoch_tags_registered(self, engine, stats):
        coordinator = VorpalCoordinator(engine, 2, stats)
        coordinator.register_epoch(0, 1, (1, 0))
        assert coordinator.vc_of(0, 1) == (1, 0)

    def test_unknown_epoch_depends_on_nothing(self, engine, stats):
        coordinator = VorpalCoordinator(engine, 2, stats)
        assert coordinator.vc_of(1, 99) == (0, 0)

    def test_tag_cost_accounted(self, engine, stats):
        coordinator = VorpalCoordinator(engine, 4, stats)
        coordinator.register_epoch(0, 1, (1, 0, 0, 0))
        assert stats.total("vorpal_tag_bits") == 4 * 32


class TestVorpalRuns:
    def test_single_writer_completes(self):
        machine = make_machine(HardwareModel.VORPAL, num_cores=1)
        heap = PMAllocator()
        result = machine.run([simple_writer(heap)])
        assert result.runtime_cycles > 0
        assert result.stats.total("vorpal_broadcasts") > 0

    def test_cross_thread_workload_completes(self):
        machine = make_machine(HardwareModel.VORPAL, num_cores=2)
        heap = PMAllocator()
        result = machine.run(locked_pair(heap, iters=8))
        assert result.stats.total("interTEpochConflict") > 0
        assert all(path.is_drained() for path in machine.paths)

    @pytest.mark.parametrize("workload", ["cceh", "queue", "nstore"])
    def test_suite_workloads_run(self, workload):
        result = run_workload(
            get_workload(workload, ops_per_thread=15),
            MachineConfig(num_cores=4),
            RunConfig(hardware=HardwareModel.VORPAL),
        )
        assert result.runtime_cycles > 0

    def test_writes_never_marked_early(self):
        machine = make_machine(HardwareModel.VORPAL, num_cores=1)
        heap = PMAllocator()
        result = machine.run([simple_writer(heap)])
        assert result.stats.total("totSpecWrites") == 0
        assert result.stats.total("totalUndo") == 0

    def test_broadcast_period_paces_progress(self):
        """Slower broadcasts make ordering-bound work slower -- the
        paper's Section III criticism, measured."""
        runtimes = {}
        for period in (50, 800):
            config = MachineConfig(
                num_cores=2, vorpal_broadcast_cycles=period
            )
            machine = Machine(config, RunConfig(hardware=HardwareModel.VORPAL))
            heap = PMAllocator()
            workload = get_workload("bandwidth", ops_per_thread=60)
            result = machine.run(workload.programs(heap, 2))
            runtimes[period] = result.drain_cycles
        assert runtimes[800] > runtimes[50]

    def test_ordering_queues_drain(self):
        machine = make_machine(HardwareModel.VORPAL, num_cores=2)
        heap = PMAllocator()
        machine.run(locked_pair(heap, iters=6))
        assert machine.vorpal.pending_writes() == 0


class TestVorpalCrashConsistency:
    def test_crashes_recover_consistently(self):
        """Ordering queues are outside the persistence domain: a crash
        discards them, and what was released was ordering-safe."""
        for crash_cycle in range(100, 12_000, 211):
            heap = PMAllocator()
            state = run_and_crash(
                MachineConfig(num_cores=2),
                RunConfig(hardware=HardwareModel.VORPAL),
                locked_pair(heap, iters=10),
                crash_cycle,
            )
            report = check_consistency(state.log, state.media)
            assert report.consistent, (crash_cycle, report.summary())

    def test_adversarial_jam_scenario_stays_consistent(self):
        """The scenario that breaks ASAP_NO_UNDO must not break Vorpal:
        its delays are the point."""
        from tests.property.test_crash_consistency import adversarial_workload

        for crash_cycle in range(50, 4000, 53):
            heap = PMAllocator()
            state = run_and_crash(
                MachineConfig(num_cores=2),
                RunConfig(
                    hardware=HardwareModel.VORPAL,
                    persistency=PersistencyModel.EPOCH,
                ),
                adversarial_workload(heap),
                crash_cycle,
            )
            report = check_consistency(state.log, state.media)
            assert report.consistent, (crash_cycle, report.summary())
