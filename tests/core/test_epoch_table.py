"""Unit tests for the epoch table lifecycle and the global TS register."""

import pytest

from repro.core.epoch_table import EpochTable, GlobalTSRegister


@pytest.fixture
def et(engine, stats):
    return EpochTable(engine, capacity=4, stats=stats, scope="core0", core=0)


class TestLifecycle:
    def test_initial_state(self, et):
        assert et.current_ts == 1
        assert et.committed_upto == 0
        assert et.is_safe(1)

    def test_open_epoch_closes_previous(self, et):
        ts = et.open_epoch()
        assert ts == 2
        assert 1 not in et.entries  # empty epoch 1 committed immediately

    def test_epoch_with_pending_writes_does_not_commit(self, et):
        et.on_enqueue(1)
        et.open_epoch()
        assert 1 in et.entries
        assert not et.is_committed(1)

    def test_ack_completes_and_commits(self, et):
        et.on_enqueue(1)
        et.open_epoch()
        et.on_write_acked(1)
        assert et.is_committed(1)
        assert et.committed_upto == 1

    def test_open_epoch_never_commits(self, et):
        et.on_enqueue(1)
        et.on_write_acked(1)
        # all writes ACKed but the epoch is still open (not closed)
        assert not et.is_committed(1)

    def test_commits_cascade_in_order(self, et):
        et.on_enqueue(1)
        et.open_epoch()  # ts=2
        et.on_enqueue(2)
        et.open_epoch()  # ts=3
        # ACK epoch 2's write first: it cannot commit before epoch 1.
        et.on_write_acked(2)
        assert not et.is_committed(2)
        et.on_write_acked(1)
        assert et.committed_upto == 2  # both cascade

    def test_ack_underflow_detected(self, et):
        with pytest.raises(RuntimeError):
            et.on_write_acked(1)

    def test_all_committed(self, et):
        assert et.all_committed()
        et.on_enqueue(1)
        et.open_epoch()
        assert not et.all_committed()
        et.on_write_acked(1)
        assert et.all_committed()


class TestSafety:
    def test_safe_requires_predecessor_committed(self, et):
        et.on_enqueue(1)
        et.open_epoch()
        assert not et.is_safe(2)
        et.on_write_acked(1)
        assert et.is_safe(2)

    def test_safe_requires_dep_resolved(self, et):
        et.set_dep(1, (1, 7))
        assert not et.is_safe(1)
        et.resolve_dep(1)
        assert et.is_safe(1)

    def test_committed_epochs_are_safe(self, et):
        et.open_epoch()
        assert et.is_safe(1)

    def test_one_dep_per_epoch(self, et):
        et.set_dep(1, (1, 7))
        with pytest.raises(ValueError):
            et.set_dep(1, (2, 9))


class TestDependencies:
    def test_register_dependent_on_live_epoch(self, et):
        et.on_enqueue(1)
        et.open_epoch()
        assert et.register_dependent(1, (1, 4))
        assert et.entries[1].dependents == [(1, 4)]

    def test_register_dependent_on_committed_epoch_declines(self, et):
        et.open_epoch()  # epoch 1 committed
        assert not et.register_dependent(1, (1, 4))

    def test_cdr_sent_on_commit(self, engine, et):
        sent = []
        et.send_cdr = sent.append
        et.on_enqueue(1)
        et.open_epoch()
        et.register_dependent(1, (1, 4))
        et.on_write_acked(1)
        assert sent == [(1, 4)]

    def test_resolve_dep_on_retired_epoch_is_noop(self, et):
        et.open_epoch()
        et.resolve_dep(1)  # epoch 1 already gone

    def test_unresolved_deps_listing(self, et):
        et.set_dep(1, (1, 7))
        assert et.unresolved_deps() == [(1, (1, 7))]
        et.resolve_dep(1)
        assert et.unresolved_deps() == []


class TestCommitAction:
    def test_custom_commit_action_controls_finalize(self, et):
        pending = []
        et.commit_action = pending.append
        et.on_enqueue(1)
        et.open_epoch()
        et.on_write_acked(1)
        assert not et.is_committed(1)  # action deferred
        et.finalize_commit(pending[0])
        assert et.is_committed(1)

    def test_out_of_order_finalize_rejected(self, et):
        et.on_enqueue(1)
        et.open_epoch()  # ts 2
        et.on_enqueue(2)
        et.open_epoch()  # ts 3
        entry2 = et.entries[2]
        entry2.closed = True
        with pytest.raises(RuntimeError):
            et.finalize_commit(entry2)

    def test_commit_action_called_once(self, et):
        calls = []
        et.commit_action = calls.append
        et.on_enqueue(1)
        et.open_epoch()
        et.on_write_acked(1)
        et.maybe_commit(1)  # extra nudges must not duplicate
        assert len(calls) == 1


class TestFenceSupport:
    def test_wait_for_commit_immediate_when_satisfied(self, et):
        fired = []
        assert et.wait_for_commit(0, lambda: fired.append(1))
        assert fired == []  # satisfied synchronously, no callback

    def test_wait_for_commit_deferred(self, engine, et):
        et.on_enqueue(1)
        et.open_epoch()
        fired = []
        assert not et.wait_for_commit(1, lambda: fired.append(engine.now))
        et.on_write_acked(1)
        engine.run()
        assert len(fired) == 1

    def test_capacity_pressure(self, et):
        for _ in range(6):
            et.on_enqueue(et.current_ts)
            et.open_epoch()
        assert et.over_capacity  # 6 live epochs > 4 entries


class TestGlobalTSRegister:
    def test_publish_visible_after_access_latency(self, engine, stats):
        register = GlobalTSRegister(stats, engine, access_cycles=50)
        register.publish(0, 7)
        assert register.committed_upto(0) == 0  # write still in flight
        engine.run()
        assert register.committed_upto(0) == 7

    def test_publishes_coalesce_per_core(self, engine, stats):
        register = GlobalTSRegister(stats, engine, access_cycles=50)
        register.publish(0, 1)
        register.publish(0, 5)  # coalesces into the pending write
        engine.run()
        assert register.committed_upto(0) == 5
        assert stats.get("global_ts_writes") == 2

    def test_accesses_serialize(self, engine, stats):
        register = GlobalTSRegister(stats, engine, access_cycles=50)
        first = register.read_done_at()
        second = register.read_done_at()
        assert second - first == 50

    def test_value_never_regresses(self, engine, stats):
        register = GlobalTSRegister(stats, engine, access_cycles=10)
        register.publish(0, 9)
        engine.run()
        register.publish(0, 3)  # stale publish
        engine.run()
        assert register.committed_upto(0) == 9
