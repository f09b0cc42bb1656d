"""Event-delivery-order guarantees of the tuple-heap engine.

The engine's contract: events fire in ``(time, schedule order)`` -- two
events at the same cycle run in the order they were scheduled, no matter
how they interleave with events at other cycles in the heap.  The
optimization that replaced rich comparable events with bare ``(time,
seq, callback)`` tuples must preserve this exactly; these properties pin
it.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine


@given(st.lists(st.integers(min_value=0, max_value=6), min_size=1,
                max_size=64))
@settings(max_examples=100, deadline=None)
def test_same_cycle_events_fire_in_schedule_order(delays):
    """Delivery order == stable sort of schedule order by firing time."""
    engine = Engine()
    fired = []
    for index, delay in enumerate(delays):
        engine.schedule(delay, lambda index=index: fired.append(index))
    engine.run()
    # sorted() is stable: ties on time keep insertion (schedule) order,
    # which is exactly the engine's FIFO-within-a-cycle contract.
    expected = [
        index for index, _ in sorted(enumerate(delays), key=lambda p: p[1])
    ]
    assert fired == expected


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=4),
                          st.booleans()),
                min_size=1, max_size=32))
@settings(max_examples=100, deadline=None)
def test_nested_zero_delay_children_fifo(items):
    """Zero-delay children run after already-queued same-cycle events.

    Each scheduled event may itself schedule a child at delay 0; the
    child lands at the same cycle but with a later sequence number, so
    every parent at that cycle fires before any of their children --
    and children fire in their parents' order.
    """
    engine = Engine()
    fired = []

    def make_parent(index, spawn_child):
        def parent():
            fired.append(("p", index))
            if spawn_child:
                engine.schedule(0, lambda: fired.append(("c", index)))
        return parent

    for index, (delay, spawn_child) in enumerate(items):
        engine.schedule(delay, make_parent(index, spawn_child))
    engine.run()

    by_time = {}
    for index, (delay, _) in enumerate(items):
        by_time.setdefault(delay, []).append(index)
    expected = []
    for time in sorted(by_time):
        parents = by_time[time]
        expected.extend(("p", i) for i in parents)
        expected.extend(("c", i) for i in parents if items[i][1])
    assert fired == expected
