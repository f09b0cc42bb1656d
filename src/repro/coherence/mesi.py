"""A directory-based MESI coherence protocol model.

Table II specifies "MESI three level"; this module models the protocol
explicitly: per line, each core is in Modified / Exclusive / Shared /
Invalid, with a directory tracking the owner and sharer set.  The machine
queries the owner (the last writer and its epoch) for dependence
tracking, and the protocol events are first-class:

- reads take a line to **E** (no sharers) or **S** (downgrading an **M**
  or **E** holder, which is a cache-to-cache transfer);
- writes take a line to **M**, invalidating every other copy;
- the **single-writer / multiple-reader** invariant is checked on every
  transition (:meth:`MESIDirectory.check_swmr`).

For ASAP, the interesting part rides on these events: a forwarded
request to an **M** line is exactly where the epoch-dependence payload of
Section IV-E travels, so the transition result carries the writer's
epoch information.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.sim.stats import StatsRegistry


class LineState(enum.Enum):
    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"


_NO_CORES: List[int] = []


@dataclass(frozen=True)
class OwnerInfo:
    """Who last wrote a line, and in which epoch."""

    core: int
    epoch_ts: int


class Transition:
    """What one access did to the protocol state.

    A plain slotted class: one is allocated per memory access, so the
    dataclass machinery (and two fresh empty lists per silent hit) was
    measurable.  The shared empty-list default is never mutated -- the
    protocol methods always pass freshly built lists when non-empty.
    """

    __slots__ = ("new_state", "invalidated", "downgraded", "source",
                 "cache_to_cache")

    def __init__(
        self,
        new_state: LineState,
        invalidated: Optional[List[int]] = None,
        downgraded: Optional[List[int]] = None,
        source: Optional[OwnerInfo] = None,
        cache_to_cache: bool = False,
    ) -> None:
        #: the requester's resulting state for the line.
        self.new_state = new_state
        #: cores whose copies were invalidated (write) or downgraded (read).
        self.invalidated = _NO_CORES if invalidated is None else invalidated
        self.downgraded = _NO_CORES if downgraded is None else downgraded
        #: last *writer* of the line, with its epoch -- the dependence
        #: payload a forwarded request carries (None if the line was never
        #: written or the requester is that writer).
        self.source = source
        #: True when the data came from another core's cache (M/E holder).
        self.cache_to_cache = cache_to_cache


@dataclass
class _LineEntry:
    #: core id -> protocol state (absent = Invalid).
    states: Dict[int, LineState] = field(default_factory=dict)
    #: (core, epoch_ts) of the most recent writer, for dependence info.
    last_writer: Optional[OwnerInfo] = None


class MESIDirectory:
    """Directory-tracked MESI over an arbitrary number of cores."""

    def __init__(self, num_cores: int, stats: StatsRegistry) -> None:
        self.num_cores = num_cores
        self.stats = stats
        self._lines: Dict[int, _LineEntry] = {}

    def _entry(self, line: int) -> _LineEntry:
        entry = self._lines.get(line)
        if entry is None:
            entry = _LineEntry()
            self._lines[line] = entry
        return entry

    # ------------------------------------------------------------------
    # protocol transitions
    # ------------------------------------------------------------------

    def read(self, core: int, line: int) -> Transition:
        """Core issues a read (GetS)."""
        entry = self._entry(line)
        state = entry.states.get(core, LineState.INVALID)
        if state in (LineState.MODIFIED, LineState.EXCLUSIVE, LineState.SHARED):
            # silent hit: no directory interaction
            return Transition(new_state=state)

        downgraded: List[int] = []
        cache_to_cache = False
        for other, other_state in list(entry.states.items()):
            if other_state in (LineState.MODIFIED, LineState.EXCLUSIVE):
                # forward: owner supplies data and downgrades to S
                entry.states[other] = LineState.SHARED
                downgraded.append(other)
                cache_to_cache = True
                self.stats.inc("mesi_downgrades")
        if entry.states:
            new_state = LineState.SHARED
        else:
            new_state = LineState.EXCLUSIVE  # sole copy
        entry.states[core] = new_state
        self.check_swmr(line)
        source = entry.last_writer if (
            entry.last_writer and entry.last_writer.core != core
        ) else None
        return Transition(
            new_state=new_state,
            downgraded=downgraded,
            source=source,
            cache_to_cache=cache_to_cache,
        )

    def write(self, core: int, line: int, epoch_ts: int) -> Transition:
        """Core issues a write (GetM / upgrade)."""
        entry = self._entry(line)
        state = entry.states.get(core, LineState.INVALID)
        invalidated: List[int] = []
        cache_to_cache = False
        if state is not LineState.MODIFIED and entry.states:
            for other, other_state in list(entry.states.items()):
                if other == core:
                    continue
                if other_state in (LineState.MODIFIED, LineState.EXCLUSIVE):
                    cache_to_cache = True
                del entry.states[other]
                invalidated.append(other)
                self.stats.inc("mesi_invalidations")
        source = entry.last_writer if (
            entry.last_writer and entry.last_writer.core != core
        ) else None
        entry.states[core] = LineState.MODIFIED
        entry.last_writer = OwnerInfo(core=core, epoch_ts=epoch_ts)
        self.check_swmr(line)
        return Transition(
            new_state=LineState.MODIFIED,
            invalidated=sorted(invalidated),
            source=source,
            cache_to_cache=cache_to_cache,
        )

    def evict(self, core: int, line: int) -> None:
        """Core silently drops its copy (capacity eviction)."""
        entry = self._lines.get(line)
        if entry is not None:
            entry.states.pop(core, None)

    def update_writer_epoch(self, line: int, core: int, epoch_ts: int) -> None:
        """Re-attribute the newest write to a different epoch.

        Used when dependence handling opens a new epoch on the writing
        core between the protocol transition and the store retiring."""
        entry = self._lines.get(line)
        if entry is not None and entry.last_writer is not None and (
            entry.last_writer.core == core
        ):
            entry.last_writer = OwnerInfo(core=core, epoch_ts=epoch_ts)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def state_of(self, core: int, line: int) -> LineState:
        entry = self._lines.get(line)
        if entry is None:
            return LineState.INVALID
        return entry.states.get(core, LineState.INVALID)

    def owner_of(self, line: int) -> Optional[OwnerInfo]:
        entry = self._lines.get(line)
        return entry.last_writer if entry else None

    def sharers_of(self, line: int) -> Set[int]:
        entry = self._lines.get(line)
        if entry is None:
            return set()
        return {
            core for core, state in entry.states.items()
            if state is not LineState.INVALID
        }

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    def check_swmr(self, line: int) -> None:
        """Single-writer / multiple-reader: an M or E holder is alone."""
        entry = self._lines.get(line)
        if entry is None or len(entry.states) <= 1:
            # a lone holder (or none) cannot violate either clause below.
            return
        exclusive = [
            core for core, state in entry.states.items()
            if state in (LineState.MODIFIED, LineState.EXCLUSIVE)
        ]
        if len(exclusive) > 1:
            raise AssertionError(
                f"SWMR violated on line {line:#x}: exclusive holders "
                f"{exclusive}"
            )
        if exclusive and len(entry.states) > 1:
            raise AssertionError(
                f"SWMR violated on line {line:#x}: holder {exclusive[0]} "
                f"coexists with {sorted(set(entry.states) - set(exclusive))}"
            )


__all__ = ["LineState", "MESIDirectory", "OwnerInfo", "Transition"]
