"""Unit tests for the memory controller, including the Table I matrix.

=====================  ============================  =========================
Event                  Undo record NOT present       Undo record present
=====================  ============================  =========================
Safe flush arrives     Update memory                 Update undo record
Early flush arrives    Create undo record,           Create delay record
                       speculatively update memory
=====================  ============================  =========================
"""

import pytest

from repro.sim.config import HardwareModel, MachineConfig, NVMConfig
from repro.sim.engine import ns_to_cycles
from repro.mem.controller import (
    CommitMessage,
    FlushPacket,
    MemoryController,
    ResponseKind,
)
from repro.core.crash import crash_image
from repro.core.epoch import EpochLog
from repro.core.recovery_table import RecoveryTable


@pytest.fixture
def mc(engine, stats):
    """Controller with an ASAP recovery table attached."""
    config = MachineConfig(num_cores=2)
    rt = RecoveryTable(engine, capacity=4, stats=stats, scope="mc0")
    controller = MemoryController(engine, config, stats, index=0, recovery_table=rt)
    controller.responses = []
    controller.respond = controller.responses.append
    return controller


@pytest.fixture
def plain_mc(engine, stats):
    """Controller without a recovery table (baseline / HOPS)."""
    config = MachineConfig(num_cores=2)
    controller = MemoryController(engine, config, stats, index=0)
    controller.responses = []
    controller.respond = controller.responses.append
    return controller


def flush(line, write_id, early, core=0, ts=1):
    return FlushPacket(
        line=line, write_id=write_id, core=core, epoch_ts=ts, early=early
    )


def crash(mc):
    """The media after a power failure now: ``mc``'s share of the crash
    image (its ``adr_value`` with its undo values on top)."""
    rt = mc.recovery_table
    undo = rt.undo_records() if rt is not None else ()
    return crash_image(HardwareModel.ASAP, EpochLog(), [(mc.adr_value, undo)])


class TestTableI:
    def test_case1_safe_flush_updates_memory(self, engine, mc, stats):
        mc.receive_flush(flush(0, 10, early=False))
        engine.run()
        assert mc.durable_value(0) == 10
        assert mc.responses[0].kind is ResponseKind.ACK
        # drained to media
        assert len(mc.wpq) == 0 and stats.get("pm_writes", scope="mc0") == 1

    def test_case2_safe_flush_with_undo_folds_into_record(self, engine, mc):
        # Early flush first: creates undo (safe value 0), memory = 20.
        mc.receive_flush(flush(0, 20, early=True, ts=2))
        engine.run()
        # A *safe* flush now arrives with an older value 10.
        mc.receive_flush(flush(0, 10, early=False, ts=1))
        engine.run()
        # Memory keeps the newer speculative value; the undo record holds
        # the safe value 10.
        assert mc.durable_value(0) == 20
        assert mc.recovery_table.undo_for(0).safe_value == 10
        assert all(r.kind is ResponseKind.ACK for r in mc.responses)

    def test_case3_early_flush_creates_undo_and_updates(self, engine, mc, stats):
        mc.receive_flush(flush(0, 20, early=True))
        engine.run()
        assert mc.durable_value(0) == 20
        record = mc.recovery_table.undo_for(0)
        assert record is not None
        assert record.safe_value == 0  # pristine memory
        assert stats.get("totalUndo", scope="mc0") == 1

    def test_case4_early_flush_with_undo_creates_delay(self, engine, mc):
        mc.receive_flush(flush(0, 20, early=True, core=0, ts=2))
        engine.run()
        mc.receive_flush(flush(0, 30, early=True, core=1, ts=5))
        engine.run()
        # Memory keeps the first speculative value; the second is delayed.
        assert mc.durable_value(0) == 20
        delays = mc.recovery_table.delays_for(0)
        assert len(delays) == 1
        assert delays[0].write_id == 30

    def test_same_epoch_reflush_updates_memory_not_the_undo(self, engine, mc):
        """Two writes of one epoch to one line, the first early: the
        second must update memory directly.  Folding it into the undo
        record would lose it when the epoch's own commit deletes the
        record (regression test for a real bug the differential tests
        caught)."""
        mc.receive_flush(flush(0, 42, early=True, core=0, ts=20))
        engine.run()
        # Same epoch flushes again (e.g. the first entry was already in
        # flight when the store hit the persist buffer).  Safe or early,
        # memory must take the newer value.
        mc.receive_flush(flush(0, 44, early=False, core=0, ts=20))
        engine.run()
        assert mc.durable_value(0) == 44
        assert mc.recovery_table.undo_for(0).safe_value == 0  # pre-epoch
        # Crash now: the whole epoch rolls back.
        assert crash(mc)[0] == 0
        # Commit: the newest value is durable.
        mc.receive_commit(CommitMessage(core=0, epoch_ts=20))
        engine.run()
        assert crash(mc)[0] == 44

    def test_early_flush_without_rt_is_wiring_bug(self, engine, plain_mc):
        plain_mc.receive_flush(flush(0, 1, early=True))
        with pytest.raises(RuntimeError, match="recovery table"):
            engine.run()


class TestUndoSafeValue:
    def test_undo_captures_wpq_pending_value(self, engine, mc):
        """The safe value is the newest *durable* value -- including a
        write still pending in the WPQ, which ADR guarantees."""
        mc.receive_flush(flush(0, 10, early=False))
        # Don't run the engine to completion -- the write may still be in
        # the WPQ when the early flush arrives; process both together.
        mc.receive_flush(flush(0, 20, early=True, ts=2))
        engine.run()
        assert mc.recovery_table.undo_for(0).safe_value == 10


class TestNACK:
    def test_rt_full_nacks_early_flush(self, engine, mc, stats):
        # Fill the 4-entry RT with undo records on distinct lines.
        for i in range(4):
            mc.receive_flush(flush(i * 64, i + 1, early=True, ts=1))
        engine.run()
        mc.receive_flush(flush(9 * 64, 99, early=True, ts=2))
        engine.run()
        assert mc.responses[-1].kind is ResponseKind.NACK
        assert stats.get("flushes_nacked", scope="mc0") == 1

    def test_safe_flush_never_nacked_when_rt_full(self, engine, mc):
        for i in range(4):
            mc.receive_flush(flush(i * 64, i + 1, early=True, ts=1))
        engine.run()
        mc.receive_flush(flush(9 * 64, 100, early=False, ts=1))
        engine.run()
        assert mc.responses[-1].kind is ResponseKind.ACK


class TestCommit:
    def test_commit_deletes_undo_records(self, engine, mc):
        mc.receive_flush(flush(0, 20, early=True, core=0, ts=3))
        engine.run()
        acked = []
        mc.receive_commit(CommitMessage(core=0, epoch_ts=3, on_ack=lambda: acked.append(1)))
        engine.run()
        assert mc.recovery_table.undo_for(0) is None
        assert acked == [1]

    def test_commit_persists_delayed_write(self, engine, mc):
        mc.receive_flush(flush(0, 20, early=True, core=0, ts=3))
        mc.receive_flush(flush(0, 30, early=True, core=1, ts=7))
        engine.run()
        # Commit epoch (0,3): deletes the undo; then commit (1,7): its
        # delayed write must reach memory.
        mc.receive_commit(CommitMessage(core=0, epoch_ts=3))
        engine.run()
        mc.receive_commit(CommitMessage(core=1, epoch_ts=7))
        engine.run()
        assert mc.durable_value(0) == 30
        assert mc.recovery_table.delays_for(0) == []

    def test_delay_folds_into_surviving_undo(self, engine, mc):
        """Figure 5's write collision, resolved in commit order."""
        # Thread 1 epoch 3 writes A=20 early -> undo(A, safe=0), mem=20.
        mc.receive_flush(flush(0, 20, early=True, core=1, ts=3))
        # Thread 0 epoch 5's A=15 arrives late (out of order) -> delay.
        mc.receive_flush(flush(0, 15, early=True, core=0, ts=5))
        engine.run()
        # Epoch (0,5) is earlier in coherence order and commits first: its
        # delayed value becomes the new safe value inside the undo record.
        mc.receive_commit(CommitMessage(core=0, epoch_ts=5))
        engine.run()
        assert mc.recovery_table.undo_for(0).safe_value == 15
        # Crash now would restore A=15; commit of (1,3) makes A=20 final.
        assert crash(mc)[0] == 15
        mc.receive_commit(CommitMessage(core=1, epoch_ts=3))
        engine.run()
        assert crash(mc)[0] == 20


class TestCrashDrain:
    def test_pristine_controller_drains_clean(self, mc):
        assert crash(mc) == {}

    def test_undo_values_override_speculative_state(self, engine, mc):
        mc.receive_flush(flush(0, 10, early=False, ts=1))
        engine.run()
        mc.receive_flush(flush(0, 99, early=True, ts=2))
        engine.run()
        media = crash(mc)
        assert media[0] == 10  # speculation unwound

    def test_wpq_contents_are_durable(self, engine, plain_mc):
        plain_mc.receive_flush(flush(0, 7, early=False))
        # Run only far enough for admission, not media drain.
        engine.run(until=engine.now + 10)
        assert crash(plain_mc)[0] == 7


class TestWriteBandwidth:
    """``write_parallelism`` binds at the WPQ drain: the controller keeps
    at most that many media writes in flight."""

    MEDIA_WRITE = ns_to_cycles(NVMConfig().write_latency_ns)

    @staticmethod
    def landing_cycles(engine, stats, write_parallelism):
        """Cycle at which each of three safe flushes reaches the media:
        when the drain completion the controller hands the device runs."""
        config = MachineConfig(
            num_cores=2,
            nvm=NVMConfig(write_parallelism=write_parallelism,
                          xpbuffer_lines=1),
        )
        controller = MemoryController(engine, config, stats, index=0)
        landed = {}
        device_write = controller.nvm.write

        def timed_write(line, on_done):
            def done():
                landed[line] = engine.now
                on_done()

            device_write(line, done)

        controller.nvm.write = timed_write
        # Distinct 4 KB blocks, so no media write hits the XPBuffer.
        lines = [i * 4096 for i in range(3)]
        for write_id, line in enumerate(lines, start=1):
            controller.receive_flush(flush(line, write_id, early=False))
        engine.run()
        assert sorted(landed) == lines, "a flush never reached the media"
        return [landed[line] for line in lines]

    def test_one_write_in_flight_serializes_the_media(self, engine, stats):
        landed = self.landing_cycles(engine, stats, write_parallelism=1)
        assert landed[1] - landed[0] >= self.MEDIA_WRITE
        assert landed[2] - landed[1] >= self.MEDIA_WRITE

    def test_parallel_media_writes_overlap(self, engine, stats):
        landed = self.landing_cycles(engine, stats, write_parallelism=4)
        assert max(landed) - min(landed) < self.MEDIA_WRITE
