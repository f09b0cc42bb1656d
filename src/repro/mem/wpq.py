"""The Write Pending Queue (WPQ).

The WPQ is the small buffer inside each memory controller that Intel's ADR
(Asynchronous DRAM Refresh) guarantees will be drained to the media on a
power failure.  A write is therefore *durable* the moment it is accepted
into the WPQ -- this is the "persistence domain" boundary that every model
in the paper assumes (Section VII: "For all models, we assume ADR").

The queue coalesces: a new write to a line that already has a pending entry
merges into that entry (the memory controller would combine them anyway,
and the paper's Figure 9 discussion credits WPQ coalescing for part of
ASAP's write-endurance win).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional

from repro.obs.events import EventType
from repro.obs.tracer import Tracer
from repro.sim.engine import Engine, Waiter
from repro.sim.stats import StatsRegistry


class WPQEntry:
    """One pending (durable) write awaiting media drain."""

    __slots__ = ("line", "write_id")

    def __init__(self, line: int, write_id: int) -> None:
        self.line = line
        self.write_id = write_id

    def __repr__(self) -> str:
        return f"WPQEntry(line={self.line:#x}, write_id={self.write_id})"


class WritePendingQueue:
    """Bounded FIFO of durable pending writes, drained to the NVM device by
    its controller."""

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
        self._entries: Deque[WPQEntry] = deque()
        self._by_line: Dict[int, WPQEntry] = {}
        #: optional :class:`repro.obs.Tracer` + owning MC index (for
        #: controller-lane attribution).
        self.tracer = tracer
        self.mc = mc
        self.space_waiter = Waiter(engine)
        self._occupancy = stats.weighted("wpq_occupancy", capacity, scope=scope)

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def pending_value(self, line: int) -> Optional[int]:
        """Write id pending for ``line``, or None."""
        entry = self._by_line.get(line)
        return entry.write_id if entry is not None else None

    def push(self, line: int, write_id: int) -> bool:
        """Accept a write.  Returns False (and changes nothing) when full.

        Coalescing writes to a line already pending never needs space and
        always succeeds.
        """
        existing = self._by_line.get(line)
        if existing is not None:
            existing.write_id = write_id
            self.stats.inc("wpq_coalesced", scope=self.scope)
            return True
        if self.full:
            return False
        entry = WPQEntry(line=line, write_id=write_id)
        self._entries.append(entry)
        self._by_line[line] = entry
        self._occupancy.update(self.engine.now, len(self._entries))
        return True

    def pop_head(self) -> Optional[WPQEntry]:
        """Remove and return the oldest entry (drain order)."""
        if not self._entries:
            return None
        entry = self._entries.popleft()
        # The entry may have been re-coalesced; only drop the index if it
        # still points at this entry.
        if self._by_line.get(entry.line) is entry:
            del self._by_line[entry.line]
        self._occupancy.update(self.engine.now, len(self._entries))
        if self.tracer is not None:
            self.tracer.emit(
                EventType.WPQ_DRAIN, "wpq", mc=self.mc, line=entry.line,
                value=len(self._entries),
            )
        self.space_waiter.wake()
        return entry

    def snapshot(self) -> Dict[int, int]:
        """Line -> pending write id, newest wins (for inspection/tests)."""
        return {e.line: e.write_id for e in self._entries}


__all__ = ["WPQEntry", "WritePendingQueue"]
