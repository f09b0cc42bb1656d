"""Integration tests for the machine: op execution, locks, dependencies."""

import pytest

from repro.core.api import (
    CAS,
    Acquire,
    Compute,
    DFence,
    Load,
    OFence,
    PMAllocator,
    Release,
    Store,
)
from repro.core.machine import Machine
from repro.core.models import MODEL_REGISTRY
from repro.sim.config import HardwareModel, MachineConfig, PersistencyModel

from tests.conftest import locked_pair, make_machine, simple_writer


class TestBasicExecution:
    def test_empty_program_finishes(self):
        machine = make_machine(num_cores=1)
        result = machine.run([iter(())])
        assert result.runtime_cycles >= 0

    def test_compute_advances_clock(self):
        machine = make_machine(HardwareModel.EADR, num_cores=1)
        result = machine.run([iter([Compute(1000)])])
        assert result.runtime_cycles >= 1000

    def test_single_writer_all_models(self):
        for hw in HardwareModel:
            machine = make_machine(hw, num_cores=1)
            heap = PMAllocator()
            result = machine.run([simple_writer(heap)])
            assert result.runtime_cycles > 0, hw

    def test_multiline_store_touches_every_line(self):
        machine = make_machine(num_cores=1)
        heap = PMAllocator()
        buf = heap.alloc(256, align=256)
        result = machine.run([iter([Store(buf, 256), DFence()])])
        lines = {record.line for record in result.log.writes.values()}
        assert lines == {buf, buf + 64, buf + 128, buf + 192}

    def test_ops_counted(self):
        machine = make_machine(num_cores=1)
        heap = PMAllocator()
        buf = heap.alloc(64)
        result = machine.run([iter([Store(buf, 8), OFence(), DFence()])])
        assert result.ops_executed == 3

    def test_too_many_programs_rejected(self):
        machine = make_machine(num_cores=1)
        with pytest.raises(ValueError):
            machine.run([iter(()), iter(())])

    def test_machine_is_single_use(self):
        machine = make_machine(num_cores=1)
        machine.run([iter(())])
        with pytest.raises(RuntimeError):
            machine.run([iter(())])

    def test_unknown_op_rejected(self):
        machine = make_machine(num_cores=1)
        with pytest.raises(TypeError):
            machine.run([iter([object()])])


def _publishing_run(model: str, publish):
    """Two threads each build nodes and publish them into one shared
    head under a lock; ``publish`` is the op type of the publishing
    store."""
    heap = PMAllocator()
    lock = heap.alloc_lock()
    head = heap.alloc(64)

    def program(tid):
        for i in range(4):
            node = heap.alloc_lines(2)
            yield Store(node, 128)
            yield OFence()
            yield Acquire(lock)
            yield Load(head, 8)
            yield publish(head, 8, payload=(tid, i))
            yield Release(lock)
            yield Compute(20)
        yield DFence()

    machine = Machine(
        MachineConfig(num_cores=2), MODEL_REGISTRY[model].run_config()
    )
    return machine.run([program(0), program(1)])


@pytest.mark.parametrize("model", list(MODEL_REGISTRY))
def test_cas_runs_like_its_store_twin(model):
    """A CAS is timed, counted and logged exactly like the store it
    performs, on every design."""
    cas = _publishing_run(model, CAS)
    store = _publishing_run(model, Store)
    assert cas.runtime_cycles == store.runtime_cycles
    assert cas.drain_cycles == store.drain_cycles
    assert cas.ops_executed == store.ops_executed
    assert cas.stats.as_dict() == store.stats.as_dict()
    assert cas.log.writes == store.log.writes
    assert cas.log.payloads == store.log.payloads


class TestOrderingCosts:
    def test_baseline_slower_than_eadr(self):
        heap1, heap2 = PMAllocator(), PMAllocator()
        base = make_machine(HardwareModel.BASELINE, num_cores=1).run(
            [simple_writer(heap1)]
        )
        ideal = make_machine(HardwareModel.EADR, num_cores=1).run(
            [simple_writer(heap2)]
        )
        assert base.runtime_cycles > ideal.runtime_cycles

    def test_asap_between_baseline_and_eadr(self):
        runtimes = {}
        for hw in (HardwareModel.BASELINE, HardwareModel.ASAP, HardwareModel.EADR):
            heap = PMAllocator()
            runtimes[hw] = make_machine(hw, num_cores=1).run(
                [simple_writer(heap, num_stores=16)]
            ).runtime_cycles
        assert (
            runtimes[HardwareModel.EADR]
            <= runtimes[HardwareModel.ASAP]
            <= runtimes[HardwareModel.BASELINE]
        )

    def test_baseline_ofence_drains(self):
        machine = make_machine(HardwareModel.BASELINE, num_cores=1)
        heap = PMAllocator()
        result = machine.run([simple_writer(heap)])
        assert result.stats.total("sfenceStalled") > 0

    def test_eadr_fences_free(self):
        machine = make_machine(HardwareModel.EADR, num_cores=1)
        heap = PMAllocator()
        result = machine.run([simple_writer(heap)])
        assert result.stats.total("sfenceStalled") == 0
        assert result.stats.total("dfenceStalled") == 0


class TestLocks:
    def test_mutual_exclusion_serializes(self):
        machine = make_machine(HardwareModel.EADR, num_cores=2)
        heap = PMAllocator()
        lock = heap.alloc_lock()

        def holder():
            yield Acquire(lock)
            yield Compute(1000)
            yield Release(lock)

        result = machine.run([holder(), holder()])
        # Two 1000-cycle critical sections under one lock cannot overlap.
        assert result.runtime_cycles >= 2000

    def test_release_without_hold_raises(self):
        machine = make_machine(num_cores=1)
        heap = PMAllocator()
        lock = heap.alloc_lock()
        with pytest.raises(RuntimeError, match="does not hold"):
            machine.run([iter([Release(lock)])])

    def test_reacquire_raises(self):
        machine = make_machine(num_cores=1)
        heap = PMAllocator()
        lock = heap.alloc_lock()
        with pytest.raises(RuntimeError, match="re-acquiring"):
            machine.run([iter([Acquire(lock), Acquire(lock)])])

    def test_fifo_handoff(self):
        """Three contenders acquire in arrival order."""
        machine = make_machine(HardwareModel.EADR, num_cores=3)
        heap = PMAllocator()
        lock = heap.alloc_lock()
        order = []

        def contender(tid, delay):
            yield Compute(delay)
            yield Acquire(lock)
            order.append(tid)
            yield Compute(500)
            yield Release(lock)

        machine.run([contender(0, 1), contender(1, 50), contender(2, 100)])
        assert order == [0, 1, 2]


class TestDependencies:
    def test_lock_transfer_creates_dep_under_rp(self):
        machine = make_machine(
            HardwareModel.ASAP, PersistencyModel.RELEASE, num_cores=2
        )
        heap = PMAllocator()
        result = machine.run(locked_pair(heap))
        assert result.stats.total("interTEpochConflict") > 0
        assert result.log.num_cross_deps() > 0

    def test_ep_creates_more_deps_than_rp(self):
        counts = {}
        for pm in PersistencyModel:
            machine = make_machine(HardwareModel.ASAP, pm, num_cores=2)
            heap = PMAllocator()
            result = machine.run(locked_pair(heap, iters=10))
            counts[pm] = result.log.num_cross_deps()
        assert counts[PersistencyModel.EPOCH] >= counts[PersistencyModel.RELEASE]

    def test_baseline_records_no_deps(self):
        machine = make_machine(
            HardwareModel.BASELINE, PersistencyModel.RELEASE, num_cores=2
        )
        heap = PMAllocator()
        result = machine.run(locked_pair(heap))
        assert result.log.num_cross_deps() == 0

    def test_dep_edges_are_between_distinct_cores(self):
        machine = make_machine(HardwareModel.ASAP, num_cores=2)
        heap = PMAllocator()
        result = machine.run(locked_pair(heap))
        for (src_core, _), (dst_core, _) in result.log.dep_edges:
            assert src_core != dst_core

    def test_conflicting_load_creates_dep_under_ep(self):
        machine = make_machine(
            HardwareModel.ASAP, PersistencyModel.EPOCH, num_cores=2
        )
        heap = PMAllocator()
        shared = heap.alloc(64)

        def writer():
            yield Store(shared, 8)
            yield Compute(20)
            yield Compute(2000)
            yield DFence()

        def reader():
            yield Compute(60)
            yield Load(shared, 8)
            yield Store(shared + 8, 8)
            yield DFence()

        result = machine.run([writer(), reader()])
        assert result.log.num_cross_deps() >= 1


class TestDrainGuarantees:
    def test_run_result_reports_drained_system(self):
        for hw in HardwareModel:
            machine = make_machine(hw, num_cores=2)
            heap = PMAllocator()
            machine.run(locked_pair(heap, iters=4))
            for path in machine.paths:
                assert path.is_drained(), hw

    def test_drain_time_at_least_runtime(self):
        machine = make_machine(HardwareModel.ASAP, num_cores=2)
        heap = PMAllocator()
        result = machine.run(locked_pair(heap, iters=4))
        assert result.drain_cycles >= result.runtime_cycles

    def test_per_core_runtimes_populated(self):
        machine = make_machine(num_cores=2)
        heap = PMAllocator()
        result = machine.run(locked_pair(heap, iters=3))
        assert len(result.per_core_runtime) == 2
        assert all(t > 0 for t in result.per_core_runtime)


class TestWriteLog:
    def test_every_store_logged_with_epoch(self):
        machine = make_machine(num_cores=1)
        heap = PMAllocator()
        buf = heap.alloc(64 * 4)
        ops = [Store(buf + 64 * i, 8) for i in range(4)]
        ops += [OFence(), Store(buf, 8), DFence()]
        result = machine.run([iter(ops)])
        assert len(result.log.writes) == 5
        epochs = {r.epoch_ts for r in result.log.writes.values()}
        assert len(epochs) == 2  # before and after the ofence

    def test_line_order_matches_execution_order(self):
        machine = make_machine(num_cores=1)
        heap = PMAllocator()
        buf = heap.alloc(64)
        result = machine.run(
            [iter([Store(buf, 8), Store(buf, 8), Store(buf, 8), DFence()])]
        )
        order = result.log.line_order[buf]
        assert order == sorted(order)

    def test_payloads_recorded(self):
        machine = make_machine(num_cores=1)
        heap = PMAllocator()
        buf = heap.alloc(64)
        result = machine.run([iter([Store(buf, 8, payload="hello"), DFence()])])
        newest = result.log.newest_write_per_line()[buf]
        assert result.log.payloads[newest] == "hello"
