"""Event-driven simulation engine.

The engine keeps a priority queue of scheduled callbacks ordered by
simulated time (measured in CPU cycles) and executes them in order.  All
hardware components in the reproduction (cores, persist buffers, memory
controllers, ...) interact exclusively by scheduling callbacks on a shared
engine instance, which makes the simulation deterministic: two events at the
same cycle fire in the order they were scheduled.

The clock is an integer number of CPU cycles.  The reproduction models a
2 GHz part (Table II of the paper), so one nanosecond equals two cycles; the
:func:`ns_to_cycles` helper performs that conversion for configuration values
expressed in nanoseconds.

Performance note (the hot loop of the whole simulator): the heap holds
bare ``(time, seq, callback)`` tuples.  ``seq`` is unique, so tuple
comparison never reaches the callback and orders entries entirely with
C-level integer compares, and no per-event object is allocated.
Scheduling returns nothing: once queued, a callback fires.
"""

from __future__ import annotations

import heapq
import weakref
from types import MethodType
from typing import Any, Callable, List, Optional, Tuple

#: Simulated core frequency (Table II: 2 GHz).
CPU_FREQ_GHZ = 2.0


def ns_to_cycles(ns: float) -> int:
    """Convert a duration in nanoseconds to an integer number of CPU cycles.

    The result is rounded to the nearest cycle and is always at least one
    cycle for any strictly positive duration, so that scheduling a
    "1 ns later" event can never fire at the current cycle.
    """
    if ns <= 0:
        return 0
    return max(1, round(ns * CPU_FREQ_GHZ))


#: one heap entry: ``(time, seq, callback)``.
_HeapEntry = Tuple[int, int, Callable[[], None]]


class Engine:
    """The discrete-event simulation core.

    Typical use::

        engine = Engine()
        engine.schedule(10, lambda: print("fires at cycle 10"))
        engine.run()

    Components hold a reference to the engine and call :meth:`schedule` /
    :meth:`at` to model latencies.  The engine itself has no knowledge of
    the hardware being simulated.
    """

    def __init__(self) -> None:
        self._queue: List[_HeapEntry] = []
        self._now: int = 0
        self._seq: int = 0
        self._events_executed: int = 0
        self._stopped: bool = False

    @property
    def now(self) -> int:
        """Current simulated time in CPU cycles."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of events that have fired so far (for diagnostics)."""
        return self._events_executed

    def schedule(self, delay: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` cycles from now.

        A non-positive delay schedules the callback for the current cycle;
        it will still run strictly after the currently executing event.
        """
        time = self._now
        if delay > 0:
            time += int(delay)
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, seq, callback))

    def at(self, time: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at the absolute cycle ``time``."""
        time = int(time)
        if time < self._now:
            raise ValueError(
                f"cannot schedule event in the past: {time} < {self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, seq, callback))

    def stop(self) -> None:
        """Stop the run loop after the current event finishes."""
        self._stopped = True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until`` is reached, or stop.

        ``until`` is an inclusive cycle bound: events scheduled after it are
        left in the queue and the clock is advanced to ``until`` (this models
        "a crash happened at cycle X" cleanly).  ``max_events`` guards
        against runaway simulations.  Returns the final simulated time.
        """
        self._stopped = False
        # Local aliases keep the per-event overhead to a handful of
        # LOAD_FASTs; this loop executes tens of millions of times.  The
        # run-to-completion case (until=None) gets its own loop without
        # the queue-head check and bound comparison.
        queue = self._queue
        heappop = heapq.heappop
        executed = self._events_executed
        bounded = max_events is not None
        try:
            if until is None:
                while queue:
                    if self._stopped:
                        break
                    time, _seq, callback = heappop(queue)
                    self._now = time
                    executed += 1
                    callback()
                    if bounded and executed >= max_events:  # type: ignore[operator]
                        raise RuntimeError(
                            f"simulation exceeded max_events={max_events} "
                            f"(possible livelock at cycle {self._now})"
                        )
            else:
                while queue:
                    if self._stopped:
                        break
                    time = queue[0][0]
                    if time > until:
                        self._now = until
                        return until
                    callback = heappop(queue)[2]
                    self._now = time
                    executed += 1
                    callback()
                    if bounded and executed >= max_events:  # type: ignore[operator]
                        raise RuntimeError(
                            f"simulation exceeded max_events={max_events} "
                            f"(possible livelock at cycle {self._now})"
                        )
        finally:
            self._events_executed = executed
        if until is not None and self._now < until:
            self._now = until
        return self._now

    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._queue)


class Waiter:
    """A one-shot wakeup list used to model hardware back-pressure.

    Components that can make a requester stall (a full persist buffer, a
    full epoch table, ...) keep a ``Waiter``; the stalled party registers a
    callback and the component wakes everyone when the resource frees up.
    Wakeups are delivered through the engine at the current cycle so the
    caller's stack never re-enters component code directly.
    """

    __slots__ = ("_engine", "_waiters")

    def __init__(self, engine: Engine) -> None:
        self._engine = engine
        self._waiters: List[Callable[[], None]] = []

    def wait(self, callback: Callable[[], None]) -> None:
        """Register ``callback`` to be run on the next :meth:`wake`."""
        self._waiters.append(callback)

    def wake(self) -> None:
        """Wake all currently registered waiters (in FIFO order)."""
        if not self._waiters:
            return
        waiters, self._waiters = self._waiters, []
        schedule = self._engine.schedule
        for callback in waiters:
            schedule(0, callback)

    def __len__(self) -> int:
        return len(self._waiters)


def weak_method(method: MethodType, *bound: Any) -> Callable[..., Any]:
    """The bound ``method`` as a hook that does not keep its object alive.

    A component calls back into the object that owns it (a core into its
    machine, an epoch table into its persistence path) through a hook.
    A hook holding its owner strongly would close a reference cycle, and
    only the cyclic collector frees a cycle, so a finished machine --
    caches, directory, controllers and all -- would outlive its run.
    The hook calls ``method`` with ``bound`` before its own arguments.
    It must not be called once its object is gone, which cannot happen
    while the object owns, directly or not, whatever holds the hook.
    """
    func = method.__func__
    ref = weakref.ref(method.__self__)

    def call(*args: Any) -> Any:
        return func(ref(), *bound, *args)

    return call


__all__ = ["CPU_FREQ_GHZ", "Engine", "Waiter", "ns_to_cycles", "weak_method"]
