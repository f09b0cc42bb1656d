"""Unit tests for the recovery table (undo / delay records)."""

import pytest

from repro.core.recovery_table import RecoveryTable


@pytest.fixture
def rt(engine, stats):
    return RecoveryTable(engine, capacity=4, stats=stats, scope="mc0")


class TestUndoRecords:
    def test_create_and_lookup(self, rt):
        assert rt.create_undo(0, safe_value=0, core=0, epoch_ts=1)
        assert rt.has_undo(0)
        assert rt.undo_for(0).safe_value == 0

    def test_duplicate_undo_rejected(self, rt):
        rt.create_undo(0, 0, 0, 1)
        with pytest.raises(ValueError):
            rt.create_undo(0, 5, 1, 2)

    def test_update_undo(self, rt):
        rt.create_undo(0, 0, 0, 1)
        rt.update_undo(0, 42)
        assert rt.undo_for(0).safe_value == 42

    def test_update_missing_undo_raises(self, rt):
        with pytest.raises(KeyError):
            rt.update_undo(0, 42)

    def test_capacity_limit(self, rt):
        for i in range(4):
            assert rt.create_undo(i * 64, 0, 0, 1)
        assert rt.full
        assert not rt.create_undo(9 * 64, 0, 0, 1)

    def test_undo_records_export(self, rt):
        rt.create_undo(0, 11, 0, 1)
        rt.create_undo(64, 22, 0, 1)
        assert sorted(rt.undo_records()) == [(0, 11), (64, 22)]


class TestDelayRecords:
    def test_add_delay(self, rt):
        rt.create_undo(0, 0, 0, 1)
        assert rt.add_delay(0, 33, core=1, epoch_ts=4)
        assert len(rt.delays_for(0)) == 1

    def test_delay_coalesces_same_epoch(self, rt, stats):
        rt.add_delay(0, 33, core=1, epoch_ts=4)
        rt.add_delay(0, 44, core=1, epoch_ts=4)
        delays = rt.delays_for(0)
        assert len(delays) == 1
        assert delays[0].write_id == 44
        assert stats.get("delay_coalesced", scope="mc0") == 1

    def test_distinct_epochs_get_distinct_delays(self, rt):
        rt.add_delay(0, 33, core=1, epoch_ts=4)
        rt.add_delay(0, 44, core=2, epoch_ts=9)
        assert len(rt.delays_for(0)) == 2

    def test_delays_count_against_capacity(self, rt):
        rt.create_undo(0, 0, 0, 1)
        for i in range(3):
            assert rt.add_delay(0, 10 + i, core=1, epoch_ts=i + 10)
        assert rt.full
        assert not rt.add_delay(0, 99, core=1, epoch_ts=99)


class TestCommitProcessing:
    def test_commit_drops_own_undo_records(self, rt):
        rt.create_undo(0, 0, core=0, epoch_ts=3)
        rt.create_undo(64, 0, core=0, epoch_ts=4)
        released = rt.process_commit(core=0, epoch_ts=3)
        assert released == []
        assert not rt.has_undo(0)
        assert rt.has_undo(64)  # different epoch untouched

    def test_commit_releases_delays_for_persist(self, rt):
        rt.add_delay(0, 33, core=1, epoch_ts=4)
        released = rt.process_commit(core=1, epoch_ts=4)
        assert released == [(0, 33)]
        assert rt.delays_for(0) == []

    def test_commit_folds_delay_into_foreign_undo(self, rt):
        rt.create_undo(0, 0, core=0, epoch_ts=3)
        rt.add_delay(0, 55, core=1, epoch_ts=7)
        released = rt.process_commit(core=1, epoch_ts=7)
        assert released == []  # folded, not persisted
        assert rt.undo_for(0).safe_value == 55

    def test_commit_of_unknown_epoch_is_noop(self, rt):
        rt.create_undo(0, 0, 0, 1)
        assert rt.process_commit(core=5, epoch_ts=99) == []
        assert rt.has_undo(0)


class TestOccupancy:
    def test_len_counts_both_kinds(self, rt):
        rt.create_undo(0, 0, 0, 1)
        rt.add_delay(0, 1, 1, 2)
        assert len(rt) == 2

    def test_max_occupancy_tracked(self, rt, engine, stats):
        """The ``rt_occupancy`` stat (what Figure 12 reads) keeps the
        peak after the records are gone."""
        for i in range(3):
            rt.create_undo(i * 64, 0, 0, 1)
        engine.schedule(10, lambda: None)
        engine.run()
        rt.process_commit(0, 1)
        occupancy = stats.weighted("rt_occupancy", rt.capacity, scope="mc0")
        assert occupancy.max_observed() == 3
        assert len(rt) == 0

    def test_records_of_epoch(self, rt):
        rt.create_undo(0, 0, core=0, epoch_ts=3)
        rt.add_delay(64, 1, core=0, epoch_ts=3)
        rt.add_delay(128, 2, core=1, epoch_ts=3)
        assert rt.records_of_epoch(0, 3) == 2
        assert rt.records_of_epoch(1, 3) == 1


class TestFigure5WriteCollision:
    """The paper's Figure 5: A=0, three threads write A=1, A=2, A=3;
    thread 3's flush arrives first, then thread 2's."""

    def test_collision_sequence_preserves_recoverable_value(self, rt):
        # A=3 (thread 3, epoch t3) arrives early: undo holds A=0.
        assert rt.create_undo(0, safe_value=0, core=3, epoch_ts=1)
        # A=2 (thread 2, epoch t2) arrives early while the undo exists:
        # a delay record, NOT a second speculative update.
        assert rt.add_delay(0, 2, core=2, epoch_ts=1)
        # Crash now must restore A=0.
        assert rt.undo_records() == [(0, 0)]
        # Thread 2's epoch commits (it precedes thread 3's in coherence
        # order): the delay value becomes the safe value.
        assert rt.process_commit(core=2, epoch_ts=1) == []
        assert rt.undo_for(0).safe_value == 2
        # Thread 3's epoch commits: speculation is now safe, undo dropped.
        rt.process_commit(core=3, epoch_ts=1)
        assert not rt.has_undo(0)
