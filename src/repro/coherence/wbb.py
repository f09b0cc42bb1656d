"""The Write-Back Buffer (WBB).

Section V-F: a cache line can be evicted from the private caches while the
writes that produced it are still queued in the persist buffer.  Designs
like StrandWeaver (and ASAP, which borrows the mechanism) hold such
evictions in a small write-back buffer until the persist buffer has flushed
the corresponding entry; the WBB records the persist-buffer index it is
waiting on and releases the line when the buffer flushes past it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.obs.events import EventType
from repro.obs.tracer import Tracer
from repro.sim.stats import StatsRegistry


@dataclass
class WBBEntry:
    line: int
    #: Persist-buffer sequence number this eviction must wait for.
    pb_seq: int


class WriteBackBuffer:
    """Per-core buffer of evictions waiting on persist-buffer flushes."""

    def __init__(
        self,
        capacity: int,
        stats: StatsRegistry,
        scope: str,
        core: Optional[int] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.capacity = capacity
        self.stats = stats
        self.scope = scope
        self._entries: List[WBBEntry] = []
        #: optional :class:`repro.obs.Tracer` + owning core index (the WBB
        #: itself has no engine handle; the tracer stamps timestamps).
        self.tracer = tracer
        self.core = core

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def hold(self, line: int, pb_seq: int) -> bool:
        """Hold an evicted line until the PB flushes sequence ``pb_seq``.

        Returns False when the buffer is full (the eviction must stall).
        """
        if self.full:
            self.stats.inc("wbb_full_stalls", scope=self.scope)
            return False
        self._entries.append(WBBEntry(line=line, pb_seq=pb_seq))
        self.stats.inc("wbb_holds", scope=self.scope)
        if self.tracer is not None:
            self.tracer.emit(
                EventType.WBB_HOLD, "wbb", core=self.core, line=line,
            )
        return True

    def release_upto(self, flushed_seq: int) -> List[int]:
        """The PB has flushed through ``flushed_seq``; release ripe lines."""
        ripe = [e.line for e in self._entries if e.pb_seq <= flushed_seq]
        if ripe:
            self._entries = [e for e in self._entries if e.pb_seq > flushed_seq]
            if self.tracer is not None:
                self.tracer.emit(
                    EventType.WBB_RELEASE, "wbb", core=self.core,
                    value=len(ripe),
                )
        return ripe

    def holds(self, line: int) -> bool:
        return any(e.line == line for e in self._entries)


__all__ = ["WBBEntry", "WriteBackBuffer"]
