"""Model-specific behaviour tests (early flushes, NACK fallback, polling)."""

from repro.core.api import (
    DFence,
    OFence,
    PMAllocator,
    Store,
)
from repro.core.machine import Machine
from repro.sim.config import (
    HardwareModel,
    MachineConfig,
    PersistencyModel,
    RunConfig,
)

from tests.conftest import locked_pair, make_machine


def burst_writer(heap, epochs=12, lines_per_epoch=2):
    """Back-to-back small epochs with no think time: epochs pile up, so
    later epochs flush while earlier ones are still uncommitted."""
    buf = heap.alloc(64 * epochs * lines_per_epoch)

    def program():
        addr = buf
        for _ in range(epochs):
            for _ in range(lines_per_epoch):
                yield Store(addr, 64)
                addr += 64
            yield OFence()
        yield DFence()

    return program()


class TestASAP:
    def test_early_flushes_and_undo_records(self):
        machine = make_machine(HardwareModel.ASAP, num_cores=1)
        heap = PMAllocator()
        result = machine.run([burst_writer(heap)])
        assert result.stats.total("totSpecWrites") > 0
        assert result.stats.total("totalUndo") > 0

    def test_commit_messages_only_for_early_epochs(self):
        machine = make_machine(HardwareModel.ASAP, num_cores=1)
        heap = PMAllocator()
        result = machine.run([burst_writer(heap)])
        commits = result.stats.total("commits_processed")
        # some epochs commit locally (safe flushes only), so commit
        # messages are fewer than epochs but more than zero here
        assert 0 < commits <= result.stats.total("epochs_committed")

    def test_rt_freed_after_run(self):
        machine = make_machine(HardwareModel.ASAP, num_cores=1)
        heap = PMAllocator()
        machine.run([burst_writer(heap)])
        for rt in machine.recovery_tables:
            assert len(rt) == 0  # every undo/delay record cleaned up

    def test_asap_uses_more_pm_reads_than_hops(self):
        """Undo-record creation reads the device (Figure 9: +5.3% reads)."""
        reads = {}
        for hw in (HardwareModel.ASAP, HardwareModel.HOPS):
            machine = make_machine(hw, num_cores=1)
            heap = PMAllocator()
            result = machine.run([burst_writer(heap)])
            reads[hw] = result.stats.total("pm_reads")
        assert reads[HardwareModel.ASAP] >= reads[HardwareModel.HOPS]


class TestNACKFallback:
    def _tiny_rt_machine(self, rt_entries=2):
        config = MachineConfig(num_cores=1, rt_entries=rt_entries)
        return Machine(config, RunConfig(hardware=HardwareModel.ASAP))

    def test_nacks_trigger_conservative_fallback(self):
        machine = self._tiny_rt_machine()
        heap = PMAllocator()
        result = machine.run([burst_writer(heap, epochs=20, lines_per_epoch=3)])
        assert result.stats.total("flushes_nacked") > 0
        assert result.stats.total("conservative_fallbacks") > 0

    def test_nacked_run_still_completes_and_drains(self):
        machine = self._tiny_rt_machine()
        heap = PMAllocator()
        machine.run([burst_writer(heap, epochs=20, lines_per_epoch=3)])
        for rt in machine.recovery_tables:
            assert len(rt) == 0
        assert machine.paths[0].is_drained()

    def test_forward_progress_with_zero_rt(self):
        """An RT of size 0 NACKs every early flush; the system must fall
        back to pure conservative flushing and still finish (Theorem 1)."""
        machine = self._tiny_rt_machine(rt_entries=0)
        heap = PMAllocator()
        result = machine.run([burst_writer(heap, epochs=10)])
        assert result.stats.total("totalUndo") == 0
        assert result.runtime_cycles > 0


class TestHOPS:
    def test_conservative_never_issues_early(self):
        machine = make_machine(HardwareModel.HOPS, num_cores=1)
        heap = PMAllocator()
        result = machine.run([burst_writer(heap)])
        assert result.stats.total("totSpecWrites") == 0
        assert result.stats.total("totalUndo") == 0

    def test_hops_blocks_while_asap_does_not(self):
        blocked = {}
        for hw in (HardwareModel.HOPS, HardwareModel.ASAP):
            machine = make_machine(hw, num_cores=1)
            heap = PMAllocator()
            result = machine.run([burst_writer(heap)])
            blocked[hw] = result.stats.total("cyclesBlocked")
        assert blocked[HardwareModel.HOPS] > blocked[HardwareModel.ASAP]

    def test_polling_resolves_cross_deps(self):
        machine = make_machine(
            HardwareModel.HOPS, PersistencyModel.RELEASE, num_cores=2
        )
        heap = PMAllocator()
        result = machine.run(locked_pair(heap, iters=8))
        assert result.stats.total("interTEpochConflict") > 0
        assert result.stats.total("global_ts_reads") > 0
        # and the run drained: every dep eventually resolved
        for path in machine.paths:
            assert path.et.unresolved_deps() == []

    def test_hops_slower_than_asap_on_cross_deps(self):
        runtimes = {}
        for hw in (HardwareModel.HOPS, HardwareModel.ASAP):
            machine = make_machine(hw, num_cores=2)
            heap = PMAllocator()
            runtimes[hw] = machine.run(locked_pair(heap, iters=10)).runtime_cycles
        assert runtimes[HardwareModel.ASAP] < runtimes[HardwareModel.HOPS]


class TestBaseline:
    def test_no_recovery_tables(self):
        machine = make_machine(HardwareModel.BASELINE, num_cores=1)
        assert all(rt is None for rt in machine.recovery_tables)

    def test_flushes_never_early(self):
        machine = make_machine(HardwareModel.BASELINE, num_cores=1)
        heap = PMAllocator()
        result = machine.run([burst_writer(heap)])
        assert result.stats.total("totSpecWrites") == 0

    def test_release_drains_buffer(self):
        machine = make_machine(HardwareModel.BASELINE, num_cores=2)
        heap = PMAllocator()
        result = machine.run(locked_pair(heap, iters=4))
        assert result.stats.total("sfenceStalled") > 0


class TestEADR:
    def test_no_flush_traffic(self):
        machine = make_machine(HardwareModel.EADR, num_cores=1)
        heap = PMAllocator()
        result = machine.run([burst_writer(heap)])
        assert result.stats.total("entriesInserted") == 0
        assert result.stats.total("pm_writes") == 0

    def test_fastest_model(self):
        runtimes = {}
        for hw in HardwareModel:
            machine = make_machine(hw, num_cores=1)
            heap = PMAllocator()
            runtimes[hw] = machine.run([burst_writer(heap)]).runtime_cycles
        assert runtimes[HardwareModel.EADR] == min(runtimes.values())


class TestCoalescingComparison:
    def test_hops_coalesces_more_on_hot_lines(self):
        """Entries linger longer under conservative flushing, so rewrites
        of hot lines coalesce in the PB (Figure 9's counter-effect)."""

        def hot_line_program(heap):
            buf = heap.alloc(64 * 2)

            def program():
                for i in range(30):
                    yield Store(buf + 64 * (i % 2), 8)
                    if i % 3 == 2:
                        yield OFence()
                yield DFence()

            return program()

        coalesced = {}
        for hw in (HardwareModel.HOPS, HardwareModel.ASAP):
            machine = make_machine(hw, num_cores=1)
            heap = PMAllocator()
            result = machine.run([hot_line_program(heap)])
            coalesced[hw] = result.stats.total("pb_coalesced")
        assert coalesced[HardwareModel.HOPS] >= coalesced[HardwareModel.ASAP]
