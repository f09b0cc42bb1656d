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
from typing import Dict, List, Optional, Set

from repro.sim.stats import StatsRegistry


class LineState(enum.Enum):
    MODIFIED = "M"
    EXCLUSIVE = "E"
    SHARED = "S"
    INVALID = "I"


_NO_CORES: List[int] = []


class OwnerInfo:
    """Who last wrote a line, and in which epoch.

    A slotted value: one is kept per written line and one is made per
    store, so it carries no ``__dict__``.  Equal fields mean equal
    values, with the hash to match."""

    __slots__ = ("core", "epoch_ts")

    def __init__(self, core: int, epoch_ts: int) -> None:
        self.core = core
        self.epoch_ts = epoch_ts

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OwnerInfo):
            return NotImplemented
        return self.core == other.core and self.epoch_ts == other.epoch_ts

    def __hash__(self) -> int:
        return hash((self.core, self.epoch_ts))

    def __repr__(self) -> str:
        return f"OwnerInfo(core={self.core}, epoch_ts={self.epoch_ts})"


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


def _cores_of(mask: int) -> List[int]:
    """The cores of a sharer bitmask, in ascending order."""
    cores: List[int] = []
    while mask:
        low = mask & -mask
        cores.append(low.bit_length() - 1)
        mask ^= low
    return cores


class _LineEntry:
    """The directory's record of one line.

    At most one core holds the line in M or E (``owner``, in
    ``owner_state``); the cores holding it in S are the bits of
    ``sharers``.  One owner slot makes "two exclusive holders"
    unrepresentable; an owner beside sharers is what
    :meth:`MESIDirectory.check_swmr` still catches."""

    __slots__ = ("owner", "owner_state", "sharers", "last_writer")

    def __init__(self) -> None:
        #: the M or E holder, or None.
        self.owner: Optional[int] = None
        self.owner_state = LineState.INVALID
        #: bit ``c`` set = core ``c`` holds the line in S.
        self.sharers = 0
        #: (core, epoch_ts) of the most recent writer, for dependence info.
        self.last_writer: Optional[OwnerInfo] = None


class MESIDirectory:
    """Directory-tracked MESI over an arbitrary number of cores."""

    def __init__(self, num_cores: int, stats: StatsRegistry) -> None:
        self.num_cores = num_cores
        self.stats = stats
        self._lines: Dict[int, _LineEntry] = {}

    def _entry(self, line: int) -> _LineEntry:
        entry = self._lines.get(line)
        if entry is None:
            entry = self._lines[line] = _LineEntry()
        return entry

    # ------------------------------------------------------------------
    # protocol transitions
    # ------------------------------------------------------------------

    def read(self, core: int, line: int) -> Transition:
        """Core issues a read (GetS)."""
        entry = self._entry(line)
        owner = entry.owner
        if owner == core:
            # silent hit (M or E): no directory interaction
            return Transition(new_state=entry.owner_state)
        bit = 1 << core
        if entry.sharers & bit:
            return Transition(new_state=LineState.SHARED)

        downgraded: List[int] = []
        cache_to_cache = False
        if owner is not None:
            # forward: owner supplies data and downgrades to S
            entry.owner = None
            entry.owner_state = LineState.INVALID
            entry.sharers |= 1 << owner
            downgraded.append(owner)
            cache_to_cache = True
            self.stats.inc("mesi_downgrades")
        if entry.sharers:
            new_state = LineState.SHARED
            entry.sharers |= bit
        else:
            new_state = LineState.EXCLUSIVE  # sole copy
            entry.owner = core
            entry.owner_state = new_state
        self.check_swmr(line)
        writer = entry.last_writer
        return Transition(
            new_state=new_state,
            downgraded=downgraded,
            source=writer if writer is not None and writer.core != core else None,
            cache_to_cache=cache_to_cache,
        )

    def write(self, core: int, line: int, epoch_ts: int) -> Transition:
        """Core issues a write (GetM / upgrade)."""
        entry = self._entry(line)
        owner = entry.owner
        invalidated: List[int] = []
        cache_to_cache = False
        if owner != core or entry.owner_state is not LineState.MODIFIED:
            # every other copy goes; an M or E one supplies the data.
            others = entry.sharers & ~(1 << core)
            if owner is not None and owner != core:
                others |= 1 << owner
                cache_to_cache = True
            if others:
                invalidated = _cores_of(others)
                self.stats.inc("mesi_invalidations", len(invalidated))
        writer = entry.last_writer
        entry.owner = core
        entry.owner_state = LineState.MODIFIED
        entry.sharers = 0
        entry.last_writer = OwnerInfo(core, epoch_ts)
        self.check_swmr(line)
        return Transition(
            new_state=LineState.MODIFIED,
            invalidated=invalidated,
            source=writer if writer is not None and writer.core != core else None,
            cache_to_cache=cache_to_cache,
        )

    def evict(self, core: int, line: int) -> None:
        """Core silently drops its copy (capacity eviction)."""
        entry = self._lines.get(line)
        if entry is not None:
            if entry.owner == core:
                entry.owner = None
                entry.owner_state = LineState.INVALID
            else:
                entry.sharers &= ~(1 << core)

    def update_writer_epoch(self, line: int, core: int, epoch_ts: int) -> None:
        """Re-attribute the newest write to a different epoch.

        Used when dependence handling opens a new epoch on the writing
        core between the protocol transition and the store retiring."""
        entry = self._lines.get(line)
        if entry is not None and entry.last_writer is not None and (
            entry.last_writer.core == core
        ):
            entry.last_writer = OwnerInfo(core, epoch_ts)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def state_of(self, core: int, line: int) -> LineState:
        entry = self._lines.get(line)
        if entry is None:
            return LineState.INVALID
        if entry.owner == core:
            return entry.owner_state
        if entry.sharers >> core & 1:
            return LineState.SHARED
        return LineState.INVALID

    def owner_of(self, line: int) -> Optional[OwnerInfo]:
        entry = self._lines.get(line)
        return entry.last_writer if entry else None

    def sharers_of(self, line: int) -> Set[int]:
        """Every core holding ``line`` in M, E or S."""
        entry = self._lines.get(line)
        if entry is None:
            return set()
        holders = set(_cores_of(entry.sharers))
        if entry.owner is not None:
            holders.add(entry.owner)
        return holders

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------

    def check_swmr(self, line: int) -> None:
        """Single-writer / multiple-reader: an M or E holder is alone.

        The one owner slot rules out two exclusive holders; this checks
        that no core shares the line beside the owner."""
        entry = self._lines.get(line)
        if entry is None or entry.owner is None or not entry.sharers:
            return
        raise AssertionError(
            f"SWMR violated on line {line:#x}: holder {entry.owner} "
            f"coexists with {_cores_of(entry.sharers)}"
        )


__all__ = ["LineState", "MESIDirectory", "OwnerInfo", "Transition"]
