"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import CPU_FREQ_GHZ, Waiter, ns_to_cycles


class TestScheduling:
    def test_events_fire_in_time_order(self, engine):
        fired = []
        engine.schedule(30, lambda: fired.append("c"))
        engine.schedule(10, lambda: fired.append("a"))
        engine.schedule(20, lambda: fired.append("b"))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_same_cycle_events_fire_fifo(self, engine):
        fired = []
        for label in "abcd":
            engine.schedule(5, lambda label=label: fired.append(label))
        engine.run()
        assert fired == list("abcd")

    def test_clock_advances_to_event_time(self, engine):
        seen = []
        engine.schedule(42, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [42]
        assert engine.now == 42

    def test_negative_delay_clamps_to_now(self, engine):
        engine.schedule(10, lambda: engine.schedule(-5, lambda: None))
        engine.run()
        assert engine.now == 10

    def test_at_in_past_raises(self, engine):
        engine.schedule(10, lambda: None)
        engine.run()
        with pytest.raises(ValueError):
            engine.at(5, lambda: None)

    def test_nested_scheduling(self, engine):
        fired = []

        def outer():
            fired.append(("outer", engine.now))
            engine.schedule(7, inner)

        def inner():
            fired.append(("inner", engine.now))

        engine.schedule(3, outer)
        engine.run()
        assert fired == [("outer", 3), ("inner", 10)]

    def test_events_executed_counter(self, engine):
        for _ in range(5):
            engine.schedule(1, lambda: None)
        engine.run()
        assert engine.events_executed == 5


class TestRunBounds:
    def test_run_until_stops_clock_at_bound(self, engine):
        fired = []
        engine.schedule(10, lambda: fired.append(10))
        engine.schedule(100, lambda: fired.append(100))
        engine.run(until=50)
        assert fired == [10]
        assert engine.now == 50

    def test_run_until_leaves_future_events_queued(self, engine):
        engine.schedule(100, lambda: None)
        engine.run(until=50)
        assert engine.pending() == 1

    def test_run_until_resumable(self, engine):
        fired = []
        engine.schedule(100, lambda: fired.append(100))
        engine.run(until=50)
        engine.run()
        assert fired == [100]

    def test_max_events_guard(self, engine):
        def loop():
            engine.schedule(1, loop)

        engine.schedule(1, loop)
        with pytest.raises(RuntimeError, match="max_events"):
            engine.run(max_events=100)

    def test_stop_terminates_run(self, engine):
        fired = []
        engine.schedule(1, lambda: (fired.append(1), engine.stop()))
        engine.schedule(2, lambda: fired.append(2))
        engine.run()
        assert fired == [1]
        assert engine.pending() == 1


class TestWaiter:
    def test_wake_runs_all_waiters(self, engine):
        waiter = Waiter(engine)
        fired = []
        waiter.wait(lambda: fired.append("a"))
        waiter.wait(lambda: fired.append("b"))
        waiter.wake()
        engine.run()
        assert fired == ["a", "b"]

    def test_wake_is_one_shot(self, engine):
        waiter = Waiter(engine)
        fired = []
        waiter.wait(lambda: fired.append("a"))
        waiter.wake()
        waiter.wake()
        engine.run()
        assert fired == ["a"]

    def test_waiters_registered_after_wake_need_new_wake(self, engine):
        waiter = Waiter(engine)
        fired = []
        waiter.wake()
        waiter.wait(lambda: fired.append("late"))
        engine.run()
        assert fired == []
        assert len(waiter) == 1


class TestConversions:
    def test_ns_to_cycles_at_2ghz(self):
        assert CPU_FREQ_GHZ == 2.0
        assert ns_to_cycles(1.0) == 2
        assert ns_to_cycles(60.0) == 120
        assert ns_to_cycles(175.0) == 350

    def test_ns_to_cycles_zero_and_negative(self):
        assert ns_to_cycles(0) == 0
        assert ns_to_cycles(-5) == 0

    def test_ns_to_cycles_minimum_one_cycle(self):
        assert ns_to_cycles(0.1) == 1
