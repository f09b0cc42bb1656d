"""Unit tests for the persistence idioms (pmdk_tx, AtlasSection) and the
microbenchmarks."""

from repro.core.api import (
    Acquire,
    Compute,
    DFence,
    OFence,
    PMAllocator,
    Release,
    Store,
)
from repro.sim.config import HardwareModel, MachineConfig, RunConfig
from repro.workloads import run_workload
from repro.workloads.base import AtlasSection, ordered_store, pmdk_tx
from repro.workloads.microbench import (
    BandwidthMicrobench,
    CoalescingMicrobench,
    FenceLatencyMicrobench,
)


class TestOrderedStore:
    def test_emits_store_then_fence(self):
        ops = list(ordered_store(0x100, 64))
        assert isinstance(ops[0], Store)
        assert isinstance(ops[1], OFence)


class TestPmdkTx:
    def test_structure(self):
        ops = list(pmdk_tx(0x1000, 0, [(0x2000, 32), (0x3000, 8)]))
        kinds = [type(op).__name__ for op in ops]
        # log appends, fence, data writes, commit dfence, log drop, fence
        assert kinds == [
            "Store", "Store", "OFence", "Store", "Store", "DFence",
            "Store", "OFence",
        ]

    def test_log_entries_precede_data(self):
        ops = list(pmdk_tx(0x1000, 0, [(0x2000, 32)]))
        fence_at = next(i for i, op in enumerate(ops) if isinstance(op, OFence))
        data_at = next(
            i for i, op in enumerate(ops)
            if isinstance(op, Store) and op.addr == 0x2000
        )
        assert fence_at < data_at

    def test_work_cycles_between_log_and_data(self):
        ops = list(pmdk_tx(0x1000, 0, [(0x2000, 32)], work_cycles=100))
        assert any(isinstance(op, Compute) and op.cycles == 100 for op in ops)

    def test_log_slots_isolated(self):
        ops_a = list(pmdk_tx(0x1000, 0, [(0x2000, 8)]))
        ops_b = list(pmdk_tx(0x1000, 512, [(0x2000, 8)]))
        log_a = {op.addr for op in ops_a if isinstance(op, Store)}
        log_b = {op.addr for op in ops_b if isinstance(op, Store)}
        assert log_a & log_b == {0x2000}  # only the data address is shared


class TestAtlasSection:
    def test_log_append_before_each_store(self):
        section = AtlasSection(lock=0x10, log_base=0x1000)
        ops = list(section.begin()) + list(section.store(0x2000, 8))
        ops += list(section.end())
        kinds = [type(op).__name__ for op in ops]
        assert kinds == ["Acquire", "Store", "OFence", "Store", "Release"]
        stores = [op for op in ops if isinstance(op, Store)]
        assert stores[0].addr >= 0x1000  # log first
        assert stores[1].addr == 0x2000

    def test_log_cursor_rotates(self):
        section = AtlasSection(lock=0x10, log_base=0x1000)
        first = list(section.store(0x2000, 8))[0].addr
        second = list(section.store(0x2000, 8))[0].addr
        assert first != second


class TestMicrobenches:
    def test_bandwidth_writes_alternate_mcs(self):
        heap = PMAllocator()
        workload = BandwidthMicrobench(ops_per_thread=8)
        programs = workload.programs(heap, 1)
        stores = [op for op in programs[0] if isinstance(op, Store)]
        mcs = [(op.addr // 256) % 2 for op in stores]
        assert mcs == [0, 1] * 4  # strict alternation
        assert all(op.size == 256 for op in stores)

    def test_bandwidth_bytes_written(self):
        workload = BandwidthMicrobench(ops_per_thread=10)
        assert workload.bytes_written(2) == 2 * 10 * 256

    def test_coalescing_bench_reduces_pm_writes(self):
        config = MachineConfig(num_cores=1)
        result = run_workload(
            CoalescingMicrobench(ops_per_thread=64), config,
            RunConfig(hardware=HardwareModel.HOPS),
        )
        stores_issued = 64
        pm_writes = result.result.stats.total("pm_writes")
        assert pm_writes < stores_issued * 0.75  # coalescing visible

    def test_fence_latency_bench_runs_all_models(self):
        config = MachineConfig(num_cores=1)
        for hw in (HardwareModel.BASELINE, HardwareModel.ASAP, HardwareModel.EADR):
            result = run_workload(
                FenceLatencyMicrobench(ops_per_thread=16), config,
                RunConfig(hardware=hw),
            )
            assert result.runtime_cycles > 0
