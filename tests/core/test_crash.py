"""Unit/integration tests for crash injection and reconstruction."""

from repro.core.api import DFence, OFence, PMAllocator, Store
from repro.core.crash import crash_machine, run_and_crash
from repro.sim.config import (
    HardwareModel,
    MachineConfig,
    RunConfig,
)

from tests.conftest import make_machine


def ordered_program(buf, n=6):
    for i in range(n):
        yield Store(buf + 64 * i, 64, payload=f"v{i}")
        yield OFence()
    yield DFence()


class TestCrashTiming:
    def test_crash_before_anything_leaves_memory_pristine(self):
        heap = PMAllocator()
        buf = heap.alloc(64 * 8)
        state = run_and_crash(
            MachineConfig(num_cores=1),
            RunConfig(hardware=HardwareModel.ASAP),
            [ordered_program(buf)],
            crash_cycle=1,
        )
        assert all(v == 0 for v in state.media.values())

    def test_crash_after_completion_has_everything(self):
        heap = PMAllocator()
        buf = heap.alloc(64 * 8)
        state = run_and_crash(
            MachineConfig(num_cores=1),
            RunConfig(hardware=HardwareModel.ASAP),
            [ordered_program(buf)],
            crash_cycle=10_000_000,
        )
        expected = state.log.newest_write_per_line()
        for line, write_id in expected.items():
            assert state.media.get(line) == write_id

    def test_mid_crash_loses_a_suffix(self):
        """Under ordered writes, what survives must be a prefix."""
        heap = PMAllocator()
        buf = heap.alloc(64 * 8)
        state = run_and_crash(
            MachineConfig(num_cores=1),
            RunConfig(hardware=HardwareModel.ASAP),
            [ordered_program(buf)],
            crash_cycle=700,
        )
        survived = [
            i for i in range(6) if state.surviving_value(buf + 64 * i) != 0
        ]
        assert survived == list(range(len(survived)))  # contiguous prefix


class TestEADRCrash:
    def test_eadr_preserves_every_write(self):
        heap = PMAllocator()
        buf = heap.alloc(64 * 8)
        state = run_and_crash(
            MachineConfig(num_cores=1),
            RunConfig(hardware=HardwareModel.EADR),
            [ordered_program(buf)],
            crash_cycle=300,  # mid-run: caches are battery-backed anyway
        )
        executed = state.log.newest_write_per_line()
        for line, write_id in executed.items():
            assert state.media[line] == write_id


class TestPayloads:
    def test_surviving_payload_maps_write_ids_to_values(self):
        heap = PMAllocator()
        buf = heap.alloc(64 * 8)
        state = run_and_crash(
            MachineConfig(num_cores=1),
            RunConfig(hardware=HardwareModel.ASAP),
            [ordered_program(buf)],
            crash_cycle=10_000_000,
        )
        assert state.surviving_payload(buf) == "v0"
        assert state.surviving_payload(buf + 64 * 5) == "v5"

    def test_missing_payload_returns_default(self):
        heap = PMAllocator()
        buf = heap.alloc(64 * 8)
        state = run_and_crash(
            MachineConfig(num_cores=1),
            RunConfig(hardware=HardwareModel.ASAP),
            [ordered_program(buf)],
            crash_cycle=1,
        )
        assert state.surviving_payload(buf, default="none") == "none"


class TestUndoUnwinding:
    def test_speculative_writes_rolled_back(self):
        """Pause a machine while undo records are live and check the
        crash image excludes the speculative values."""
        machine = make_machine(HardwareModel.ASAP, num_cores=1)
        heap = PMAllocator()
        buf = heap.alloc(64 * 16)

        def program():
            for i in range(16):
                yield Store(buf + 64 * i, 64)
                yield OFence()
            yield DFence()

        # Stop early enough that some epochs are still uncommitted.
        machine.run_until([program()], crash_cycle=400)
        live_undos = sum(len(rt) for rt in machine.recovery_tables if rt)
        state = crash_machine(machine)
        # Every surviving line value must belong to a prefix of epochs.
        survived = [i for i in range(16) if state.surviving_value(buf + 64 * i)]
        assert survived == list(range(len(survived)))
        # If undo records were live, something was indeed rolled back or
        # pending -- the run must not have persisted all 16 lines.
        if live_undos:
            assert len(survived) < 16
