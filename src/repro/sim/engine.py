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
plain ``(time, seq, Event)`` tuples rather than rich comparable objects.
``seq`` is unique, so tuple comparison never reaches the :class:`Event`
payload and orders entries entirely with C-level integer compares --
replacing the former dataclass ``__lt__``, which dominated profiles.  The
:class:`Event` handle (slotted, no dataclass machinery) survives only for
the public API: callers may :meth:`Event.cancel` it, and the delivery
order it encodes is identical to the old implementation by construction
(same ``(time, seq)`` key, same FIFO tie-break).
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Tuple

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


class Event:
    """A single scheduled callback.

    Events are ordered by ``(time, seq)``; ``seq`` is a monotonically
    increasing tie-breaker so that events scheduled for the same cycle run
    in FIFO order.  Cancelled events stay in the heap but are skipped when
    popped.
    """

    __slots__ = ("time", "seq", "callback", "cancelled")

    def __init__(self, time: int, seq: int, callback: Callable[[], None]) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event so the engine skips it when it is popped."""
        self.cancelled = True

    def __repr__(self) -> str:
        return f"Event(time={self.time}, seq={self.seq}, cancelled={self.cancelled})"


#: one heap entry: ``(time, seq, event)``.
_HeapEntry = Tuple[int, int, Event]


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
        self._stop_reason: Optional[str] = None

    @property
    def now(self) -> int:
        """Current simulated time in CPU cycles."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of events that have fired so far (for diagnostics)."""
        return self._events_executed

    @property
    def stop_reason(self) -> Optional[str]:
        """Why :meth:`run` returned, if :meth:`stop` was called."""
        return self._stop_reason

    def schedule(self, delay: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` cycles from now.

        A non-positive delay schedules the callback for the current cycle;
        it will still run strictly after the currently executing event.
        Returns the :class:`Event`, which callers may :meth:`Event.cancel`.
        """
        time = self._now
        if delay > 0:
            time += int(delay)
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback)
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def at(self, time: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at the absolute cycle ``time``."""
        time = int(time)
        if time < self._now:
            raise ValueError(
                f"cannot schedule event in the past: {time} < {self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback)
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def stop(self, reason: str = "stopped") -> None:
        """Stop the run loop after the current event finishes."""
        self._stopped = True
        self._stop_reason = reason

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until`` is reached, or stop.

        ``until`` is an inclusive cycle bound: events scheduled after it are
        left in the queue and the clock is advanced to ``until`` (this models
        "a crash happened at cycle X" cleanly).  ``max_events`` guards
        against runaway simulations.  Returns the final simulated time.
        """
        self._stopped = False
        self._stop_reason = None
        # Local aliases keep the per-event overhead to a handful of
        # LOAD_FASTs; this loop executes tens of millions of times.  The
        # run-to-completion case (until=None) gets its own loop without
        # the queue peek and bound comparison.
        queue = self._queue
        heappop = heapq.heappop
        executed = self._events_executed
        bounded = max_events is not None
        try:
            if until is None:
                while queue:
                    if self._stopped:
                        break
                    time, _seq, event = heappop(queue)
                    if event.cancelled:
                        continue
                    self._now = time
                    executed += 1
                    event.callback()
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
                    event = heappop(queue)[2]
                    if event.cancelled:
                        continue
                    self._now = time
                    executed += 1
                    event.callback()
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
        """Number of (non-cancelled) events still queued."""
        return sum(1 for entry in self._queue if not entry[2].cancelled)

    # -- checkpointing -----------------------------------------------------

    def ckpt_state(self) -> Dict[str, int]:
        """Serialize the engine clocks for a checkpoint.

        Only legal at a *quiescent point*: the event queue must hold no
        live events.  Callbacks are closures and cannot be serialized, so
        the machine drains the queue (parking the cores at op boundaries)
        before snapshotting; cancelled heap leftovers are behaviorally
        inert and are simply dropped.
        """
        if self.pending():
            raise RuntimeError(
                f"cannot checkpoint a non-quiescent engine "
                f"({self.pending()} live events queued)"
            )
        return {
            "now": self._now,
            "seq": self._seq,
            "events_executed": self._events_executed,
        }

    def ckpt_restore(self, state: Dict[str, int]) -> None:
        """Restore clocks saved by :meth:`ckpt_state` into a fresh engine."""
        if self._queue or self._now or self._seq:
            raise RuntimeError("ckpt_restore requires a fresh engine")
        self._now = int(state["now"])
        self._seq = int(state["seq"])
        self._events_executed = int(state["events_executed"])


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


__all__ = ["CPU_FREQ_GHZ", "Engine", "Event", "Waiter", "ns_to_cycles"]
