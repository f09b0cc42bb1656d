"""Unit tests for the persist buffer and its flush policies."""

import pytest

from repro.core.persist_buffer import (
    EnqueueResult,
    PBEntryState,
    PersistBuffer,
    make_conservative_policy,
    make_eager_policy,
    select_fifo_any,
)


class OneStrand:
    """The epoch-table surface the conservative policy reads: one strand
    from timestamp 1 (a HOPS table) and a safety predicate."""

    def __init__(self, is_safe):
        self.is_safe = is_safe
        self.strand_starts = [1]


@pytest.fixture
def pb(engine, stats):
    buffer = PersistBuffer(
        engine, capacity=4, issue_cycles=2, stats=stats, scope="core0", core=0,
        inflight_max=8,
    )
    buffer.select_entry = select_fifo_any
    buffer.sent = []
    buffer.send_flush = buffer.sent.append
    return buffer


class TestEnqueue:
    def test_enqueue_until_full(self, pb):
        for i in range(4):
            assert pb.enqueue(i * 64, i + 1, epoch_ts=1) is EnqueueResult.ADDED
        assert pb.full
        assert pb.enqueue(9 * 64, 99, epoch_ts=1) is EnqueueResult.FULL

    def test_entries_inserted_stat(self, pb, stats):
        pb.enqueue(0, 1, 1)
        pb.enqueue(64, 2, 1)
        assert stats.get("entriesInserted", scope="core0") == 2

    def test_coalesce_same_line_same_epoch(self, engine, stats):
        # Hold issue back so the second store finds the first still queued
        # (exactly the conservative-flushing situation where coalescing
        # pays off, per the Figure 9 discussion).
        pb = PersistBuffer(engine, 4, 2, stats, "core0", 0)
        pb.select_entry = lambda buf: None
        assert pb.enqueue(0, 1, epoch_ts=1) is EnqueueResult.ADDED
        assert pb.enqueue(0, 2, epoch_ts=1) is EnqueueResult.COALESCED
        assert len(pb) == 1
        assert pb.entries[0].write_id == 2
        assert stats.get("pb_coalesced", scope="core0") == 1

    def test_no_coalesce_across_epochs(self, pb):
        pb.enqueue(0, 1, epoch_ts=1)
        pb.enqueue(0, 2, epoch_ts=2)
        assert len(pb) == 2

    def test_no_coalesce_into_inflight_entry(self, engine, pb):
        pb.enqueue(0, 1, epoch_ts=1)
        engine.run()  # issues the flush
        assert pb.entries[0].state is PBEntryState.INFLIGHT
        pb.enqueue(0, 2, epoch_ts=1)
        assert len(pb) == 2

    def test_contains_line(self, pb):
        pb.enqueue(0, 1, 1)
        assert pb.contains_line(0)
        assert not pb.contains_line(64)


class TestIssue:
    def test_flush_issued_fifo(self, engine, pb):
        pb.enqueue(0, 1, 1)
        pb.enqueue(64, 2, 1)
        engine.run()
        assert [e.write_id for e in pb.sent] == [1, 2]

    def test_issue_paced_by_port(self, engine, pb):
        issue_times = []
        pb.send_flush = lambda e: issue_times.append(engine.now)
        for i in range(3):
            pb.enqueue(i * 64, i + 1, 1)
        engine.run()
        assert issue_times[1] - issue_times[0] >= 2
        assert issue_times[2] - issue_times[1] >= 2

    def test_inflight_cap(self, engine, stats):
        pb = PersistBuffer(
            engine, capacity=8, issue_cycles=1, stats=stats, scope="c", core=0,
            inflight_max=2,
        )
        pb.select_entry = select_fifo_any
        sent = []
        pb.send_flush = sent.append
        for i in range(6):
            pb.enqueue(i * 64, i + 1, 1)
        engine.run()
        assert len(sent) == 2  # stuck at the cap until ACKs arrive
        pb.handle_ack(sent[0])
        engine.run()
        assert len(sent) == 3

    def test_ack_removes_entry_and_wakes_space(self, engine, pb):
        for i in range(4):
            pb.enqueue(i * 64, i + 1, 1)
        engine.run()
        woken = []
        pb.space_waiter.wait(lambda: woken.append(True))
        pb.handle_ack(pb.sent[0])
        engine.run()
        assert len(pb) == 3
        assert woken == [True]

    def test_drain_waiter_fires_on_empty(self, engine, pb):
        pb.enqueue(0, 1, 1)
        engine.run()
        drained = []
        pb.drain_waiter.wait(lambda: drained.append(True))
        pb.handle_ack(pb.sent[0])
        engine.run()
        assert drained == [True]
        assert pb.empty

    def test_nack_holds_entry(self, engine, pb, stats):
        pb.enqueue(0, 1, 1)
        engine.run()
        entry = pb.sent[0]
        pb.handle_nack(entry)
        assert entry.state is PBEntryState.NACK_WAIT
        assert len(pb) == 1
        assert stats.get("pb_nacks", scope="core0") == 1

    @pytest.mark.parametrize("respond", ["handle_ack", "handle_nack"])
    def test_repeated_response_raises(self, engine, pb, respond):
        """A response finds its entry through the flush packet, so a
        second response for the same flush must fail loudly."""
        pb.enqueue(0, 1, 1)
        engine.run()
        entry = pb.sent[0]
        getattr(pb, respond)(entry)
        with pytest.raises(ValueError):
            getattr(pb, respond)(entry)


class TestPolicies:
    def test_fifo_any_skips_inflight(self, engine, pb):
        pb.enqueue(0, 1, 1)
        pb.enqueue(64, 2, 1)
        engine.run()
        assert select_fifo_any(pb) is None  # both in flight

    def test_conservative_only_safe_epochs(self, engine, stats):
        safe = {1}
        pb = PersistBuffer(engine, 8, 1, stats, "c", 0)
        pb.select_entry = make_conservative_policy(
            OneStrand(lambda ts: ts in safe)
        )
        sent = []
        pb.send_flush = sent.append
        pb.enqueue(0, 1, epoch_ts=1)
        pb.enqueue(64, 2, epoch_ts=2)
        engine.run()
        # Only the safe epoch's write was issued; epoch 2 is blocked.
        assert [e.epoch_ts for e in sent] == [1]
        assert pb.select_entry(pb) is None

    def test_eager_takes_anything_queued(self, engine, stats):
        pb = PersistBuffer(engine, 8, 1, stats, "c", 0)
        pb.select_entry = make_eager_policy(lambda ts: False)
        sent = []
        pb.send_flush = sent.append
        pb.enqueue(0, 1, epoch_ts=5)  # unsafe epoch still issues eagerly
        engine.run()
        assert [e.epoch_ts for e in sent] == [5]

    def test_eager_retries_nack_only_when_safe(self, engine, stats):
        safe = set()
        pb = PersistBuffer(engine, 8, 1, stats, "c", 0)
        pb.select_entry = make_eager_policy(lambda ts: ts in safe)
        pb.send_flush = lambda e: None
        pb.enqueue(0, 1, epoch_ts=5)
        pb.entries[0].state = PBEntryState.NACK_WAIT
        assert pb.select_entry(pb) is None
        safe.add(5)
        assert pb.select_entry(pb) is not None

    def test_eager_conservative_fallback(self, engine, stats):
        safe = {1}
        pb = PersistBuffer(engine, 8, 1, stats, "c", 0)
        pb.select_entry = make_eager_policy(lambda ts: ts in safe)
        sent = []
        pb.send_flush = sent.append
        pb.conservative_until_ts = 3
        pb.enqueue(0, 1, epoch_ts=2)  # unsafe: must wait in fallback mode
        engine.run()
        assert sent == []
        pb.enqueue(64, 2, epoch_ts=1)  # safe: issues even in fallback
        engine.run()
        assert [e.epoch_ts for e in sent] == [1]

    def test_early_classification_sets_flag_and_stat(self, engine, stats):
        pb = PersistBuffer(engine, 8, 1, stats, "c0", 0)
        pb.select_entry = make_eager_policy(lambda ts: ts <= 1)
        pb.classify_early = lambda ts: ts > 1
        sent = []
        pb.send_flush = sent.append
        pb.enqueue(0, 1, epoch_ts=1)
        pb.enqueue(64, 2, epoch_ts=2)
        engine.run()
        assert [e.issued_early for e in sent] == [False, True]
        assert stats.get("totSpecWrites", scope="c0") == 1


class TestBlockedAccounting:
    def test_blocked_cycles_recorded(self, engine, stats):
        """A waiting entry whose epoch is unsafe counts as blocked time."""
        safe = set()
        pb = PersistBuffer(engine, 8, 1, stats, "c0", 0)
        pb.select_entry = make_conservative_policy(
            OneStrand(lambda ts: ts in safe)
        )
        pb.send_flush = lambda e: None
        pb.enqueue(0, 1, epoch_ts=2)  # unsafe -> blocked from now on
        engine.schedule(100, lambda: (safe.add(2), pb.reassess()))
        engine.run()
        assert stats.get("cyclesBlocked", scope="c0") == 100

    def test_no_blocked_time_when_flushing(self, engine, stats):
        pb = PersistBuffer(engine, 8, 1, stats, "c0", 0)
        pb.select_entry = select_fifo_any
        pb.send_flush = lambda e: None
        pb.enqueue(0, 1, 1)
        engine.run()
        pb.finish(engine.now)
        assert stats.get("cyclesBlocked", scope="c0") == 0

    def test_finish_closes_open_interval(self, engine, stats):
        pb = PersistBuffer(engine, 8, 1, stats, "c0", 0)
        pb.select_entry = make_conservative_policy(OneStrand(lambda ts: False))
        pb.enqueue(0, 1, epoch_ts=1)
        engine.schedule(50, lambda: None)
        engine.run()
        pb.finish(engine.now)
        assert stats.get("cyclesBlocked", scope="c0") == 50


class TestOccupancyStat:
    def test_occupancy_histogram(self, engine, pb, stats):
        pb.enqueue(0, 1, 1)
        pb.enqueue(64, 2, 1)
        engine.schedule(100, lambda: None)
        engine.run()
        pb.finish(engine.now)
        assert pb.occupancy_stat().max_observed() == 2
