"""A recoverable append-only log.

Layout: ``capacity`` fixed-size entry slots, one cache line each.  Every
entry carries its sequence number in the payload, so recovery needs no
header: scan slots in order and stop at the first slot whose surviving
payload is missing or stale.

The crash guarantee rests purely on *ordering*: appends are separated by
an ofence, so entry ``i+1`` must never become durable unless entry ``i``
did.  On ordering-preserving hardware a crash therefore loses at most a
suffix; the recovery procedure verifies exactly that and reports any
*hole* (a missing entry followed by a surviving one) -- holes are what
broken speculation looks like, and the tests show the ``ASAP_NO_UNDO``
ablation producing them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List

from repro.core.api import OFence, Op, PMAllocator, Store
from repro.core.crash import CrashState

LINE = 64


@dataclass(frozen=True)
class LogEntry:
    """Payload stored in each slot."""

    seq: int
    value: object


@dataclass
class LogRecovery:
    """Result of recovering a log from a crash image."""

    #: values of the maximal clean prefix.
    values: List[object]
    #: sequence numbers that were missing while a later one survived.
    holes: List[int] = field(default_factory=list)
    #: entries found after the first hole (recovered by truncation).
    truncated: List[object] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.holes


class PersistentLog:
    """An append-only log over the simulated persistent heap."""

    def __init__(self, heap: PMAllocator, capacity: int = 64) -> None:
        self.capacity = capacity
        self.base = heap.alloc_lines(capacity)
        self._next_seq = 0
        #: shadow of everything appended (for tests/assertions).
        self.appended: List[object] = []

    def slot_addr(self, seq: int) -> int:
        if seq >= self.capacity:
            raise ValueError(f"log full: {seq} >= {self.capacity}")
        return self.base + seq * LINE

    def append(self, value: object) -> Iterator[Op]:
        """Yield the ops of one append (entry write + ordering fence)."""
        seq = self._next_seq
        self._next_seq += 1
        self.appended.append(value)
        yield Store(
            self.slot_addr(seq), 48, payload=LogEntry(seq=seq, value=value)
        )
        yield OFence()

    # ------------------------------------------------------------------

    def recover(self, state: CrashState) -> LogRecovery:
        """Scan the crash image; return the clean prefix and any holes."""
        values: List[object] = []
        holes: List[int] = []
        truncated: List[object] = []
        seen_hole = False
        for seq in range(min(self._next_seq, self.capacity)):
            payload = state.surviving_payload(self.slot_addr(seq))
            valid = isinstance(payload, LogEntry) and payload.seq == seq
            if not seen_hole:
                if valid:
                    values.append(payload.value)
                else:
                    seen_hole = True
                    first_missing = seq
            else:
                if valid:
                    # an entry survived beyond a missing one: a hole --
                    # ordering was violated.  Recover by truncation.
                    if not holes:
                        holes.append(first_missing)
                    truncated.append(payload.value)
        return LogRecovery(values=values, holes=holes, truncated=truncated)


__all__ = ["LogEntry", "LogRecovery", "PersistentLog"]
