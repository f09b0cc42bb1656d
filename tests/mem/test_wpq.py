"""Unit tests for the Write Pending Queue."""

import pytest

from repro.mem.wpq import WritePendingQueue


@pytest.fixture
def wpq(engine, stats):
    return WritePendingQueue(engine, capacity=4, stats=stats, scope="mc0")


class TestAdmission:
    def test_push_until_full(self, wpq):
        for i in range(4):
            assert wpq.push(i * 64)
        assert wpq.full
        assert not wpq.push(4 * 64)

    def test_pop_restores_space(self, wpq):
        for i in range(4):
            wpq.push(i * 64)
        assert wpq.pop_head() == 0
        assert not wpq.full
        assert wpq.push(4 * 64)

    def test_pop_empty_returns_none(self, wpq):
        assert wpq.pop_head() is None

    def test_fifo_order(self, wpq):
        wpq.push(0)
        wpq.push(64)
        assert wpq.pop_head() == 0
        assert wpq.pop_head() == 64


class TestCoalescing:
    def test_same_line_coalesces(self, wpq):
        wpq.push(0)
        assert wpq.push(0)
        assert len(wpq) == 1
        assert wpq.pop_head() == 0
        assert wpq.pop_head() is None

    def test_coalescing_succeeds_even_when_full(self, wpq):
        for i in range(4):
            wpq.push(i * 64)
        assert wpq.push(0)  # coalesces, needs no space
        assert len(wpq) == 4

    def test_recoalesce_after_pop(self, wpq):
        """A line re-pushed after it drained is queued afresh."""
        wpq.push(0)
        wpq.pop_head()
        wpq.push(0)
        assert len(wpq) == 1
        assert wpq.pop_head() == 0

    def test_coalescing_stat(self, wpq, stats):
        wpq.push(0)
        wpq.push(0)
        assert stats.get("wpq_coalesced", scope="mc0") == 1


class TestBackPressure:
    def test_space_waiter_woken_on_pop(self, engine, wpq):
        for i in range(4):
            wpq.push(i * 64)
        woken = []
        wpq.space_waiter.wait(lambda: woken.append(True))
        wpq.pop_head()
        engine.run()
        assert woken == [True]
