"""Unit tests for the Write Pending Queue."""

import pytest

from repro.mem.wpq import WritePendingQueue


@pytest.fixture
def wpq(engine, stats):
    return WritePendingQueue(engine, capacity=4, stats=stats, scope="mc0")


class TestAdmission:
    def test_push_until_full(self, wpq):
        for i in range(4):
            assert wpq.push(i * 64, i + 1)
        assert wpq.full
        assert not wpq.push(4 * 64, 99)

    def test_pop_restores_space(self, wpq):
        for i in range(4):
            wpq.push(i * 64, i + 1)
        entry = wpq.pop_head()
        assert entry.line == 0 and entry.write_id == 1
        assert not wpq.full
        assert wpq.push(4 * 64, 5)

    def test_pop_empty_returns_none(self, wpq):
        assert wpq.pop_head() is None

    def test_fifo_order(self, wpq):
        wpq.push(0, 1)
        wpq.push(64, 2)
        assert wpq.pop_head().write_id == 1
        assert wpq.pop_head().write_id == 2


class TestCoalescing:
    def test_same_line_coalesces(self, wpq):
        wpq.push(0, 1)
        assert wpq.push(0, 2)
        assert len(wpq) == 1
        assert wpq.pending_value(0) == 2

    def test_coalescing_succeeds_even_when_full(self, wpq):
        for i in range(4):
            wpq.push(i * 64, i + 1)
        assert wpq.push(0, 42)  # coalesces, needs no space
        assert wpq.pending_value(0) == 42

    def test_coalesced_entry_drains_newest_value(self, wpq):
        wpq.push(0, 1)
        wpq.push(0, 2)
        assert wpq.pop_head().write_id == 2

    def test_recoalesce_after_pop(self, wpq):
        """A line re-pushed after its entry drained indexes correctly."""
        wpq.push(0, 1)
        wpq.pop_head()
        wpq.push(0, 2)
        assert wpq.pending_value(0) == 2
        assert len(wpq) == 1

    def test_coalescing_stat(self, wpq, stats):
        wpq.push(0, 1)
        wpq.push(0, 2)
        assert stats.get("wpq_coalesced", scope="mc0") == 1


class TestCrashDrain:
    def test_snapshot(self, wpq):
        wpq.push(0, 1)
        wpq.push(64, 2)
        assert wpq.snapshot() == {0: 1, 64: 2}


class TestBackPressure:
    def test_space_waiter_woken_on_pop(self, engine, wpq):
        for i in range(4):
            wpq.push(i * 64, i + 1)
        woken = []
        wpq.space_waiter.wait(lambda: woken.append(True))
        wpq.pop_head()
        engine.run()
        assert woken == [True]
