"""The Write Pending Queue (WPQ).

The WPQ is the small buffer inside each memory controller that Intel's ADR
(Asynchronous DRAM Refresh) guarantees will be drained to the media on a
power failure.  A write is therefore *durable* the moment it is accepted
into the WPQ -- this is the "persistence domain" boundary that every model
in the paper assumes (Section VII: "For all models, we assume ADR").

The queue models occupancy and drain order only: it holds the *lines*
with a write pending, oldest first.  Which write a line holds is the
controller's ``adr_value`` record, set in the same step that pushes the
line (:meth:`repro.mem.controller.MemoryController.push_durable`).

The queue coalesces: a new write to a line that is already pending merges
into it (the memory controller would combine them anyway, and the paper's
Figure 9 discussion credits WPQ coalescing for part of ASAP's
write-endurance win).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Set

from repro.obs.events import EventType
from repro.obs.tracer import Tracer
from repro.sim.engine import Engine, Waiter
from repro.sim.stats import StatsRegistry


class WritePendingQueue:
    """Bounded FIFO of lines with a durable write pending, drained to the
    NVM device by its controller."""

    def __init__(
        self,
        engine: Engine,
        capacity: int,
        stats: StatsRegistry,
        scope: str,
        mc: Optional[int] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.engine = engine
        self.capacity = capacity
        self.stats = stats
        self.scope = scope
        #: deque: drain order pops the head, which list.pop(0) made O(n).
        self._lines: Deque[int] = deque()
        #: the lines of ``_lines``; each is queued at most once.
        self._pending: Set[int] = set()
        #: optional :class:`repro.obs.Tracer` + owning MC index (for
        #: controller-lane attribution).
        self.tracer = tracer
        self.mc = mc
        self.space_waiter = Waiter(engine)
        self._occupancy = stats.weighted("wpq_occupancy", capacity, scope=scope)

    def __len__(self) -> int:
        return len(self._lines)

    @property
    def full(self) -> bool:
        return len(self._lines) >= self.capacity

    def push(self, line: int) -> bool:
        """Accept a write to ``line``.  Returns False (and changes
        nothing) when full.

        A write to a line already pending coalesces into it: it never
        needs space and always succeeds.
        """
        if line in self._pending:
            self.stats.inc("wpq_coalesced", scope=self.scope)
            return True
        if self.full:
            return False
        self._lines.append(line)
        self._pending.add(line)
        self._occupancy.update(self.engine.now, len(self._lines))
        return True

    def pop_head(self) -> Optional[int]:
        """Remove and return the oldest pending line (drain order), or
        None when empty."""
        if not self._lines:
            return None
        line = self._lines.popleft()
        self._pending.remove(line)
        self._occupancy.update(self.engine.now, len(self._lines))
        if self.tracer is not None:
            self.tracer.emit(
                EventType.WPQ_DRAIN, "wpq", mc=self.mc, line=line,
                value=len(self._lines),
            )
        self.space_waiter.wake()
        return line


__all__ = ["WritePendingQueue"]
