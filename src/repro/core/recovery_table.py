"""The Recovery Table (RT): undo and delay records at the memory controller.

Section V-A: the RT is a small CAM residing in each memory controller,
inside the ADR persistence domain.  It holds two kinds of records:

- **undo** records store the *safe* value for an address -- the value in
  memory prior to a speculative persist, or the value written by the most
  recent safe flush (Table I, case 2).  On a crash, undo values are written
  to memory, unwinding speculation (Section V-E).

- **delay** records hold writes from epochs that have not yet committed and
  could not update memory because an undo record already guards the address
  (the write-collision case, Figure 5).  They are processed when their
  epoch commits: the delayed value either goes to memory or into the
  surviving undo record.

Undo and delay records share the table's capacity (Table II: 32 entries per
MC).  When an early flush needs a record and the table is full, the
controller NACKs the flush and the persist buffer falls back to
conservative flushing (Section V-D).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.obs.events import EventType
from repro.obs.tracer import Tracer
from repro.sim.engine import Engine
from repro.sim.stats import StatsRegistry


@dataclass
class UndoRecord:
    """Safe value for an address whose memory copy is speculative."""

    line: int
    safe_value: int
    #: the epoch whose early flush created this record; the record is
    #: deleted when that epoch commits.
    core: int
    epoch_ts: int


@dataclass
class DelayRecord:
    """A write held back until its epoch commits."""

    line: int
    write_id: int
    core: int
    epoch_ts: int


class RecoveryTable:
    """Undo + delay records for one memory controller."""

    def __init__(
        self,
        engine: Engine,
        capacity: int,
        stats: StatsRegistry,
        scope: str,
        mc: Optional[int] = None,
        tracer: Optional[Tracer] = None,
        journal: Optional[list] = None,
    ) -> None:
        self.engine = engine
        self.capacity = capacity
        self.stats = stats
        self.scope = scope
        self._undo: Dict[int, UndoRecord] = {}
        #: delay records in arrival order (multiple per line allowed;
        #: Section IV-F: "more than one delay record may be created").
        self._delay: List[DelayRecord] = []
        self._occupancy = stats.weighted("rt_occupancy", capacity, scope=scope)
        #: optional :class:`repro.obs.Tracer` + owning MC index (for
        #: controller-lane attribution).
        self.tracer = tracer
        self.mc = mc
        #: crash journal (:func:`repro.core.crash.record_run`) or None.
        self.journal = journal

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._undo) + len(self._delay)

    @property
    def full(self) -> bool:
        return len(self) >= self.capacity

    def _note_occupancy(self) -> None:
        self._occupancy.update(self.engine.now, len(self))

    def _journal_undo(self, line: int, safe_value: Optional[int]) -> None:
        """Journal ``line``'s undo record: its new safe value, or None
        once the record is deleted."""
        if self.journal is not None:
            self.journal.append(
                (self.engine.now, "undo", self.mc, line, safe_value)
            )

    # -- controller-facing protocol (RecoveryTableProtocol) -------------

    def has_undo(self, line: int) -> bool:
        return line in self._undo

    def undo_owner(self, line: int) -> Optional[Tuple[int, int]]:
        """(core, epoch_ts) of the undo record guarding ``line``."""
        record = self._undo.get(line)
        if record is None:
            return None
        return (record.core, record.epoch_ts)

    def create_undo(
        self, line: int, safe_value: int, core: int, epoch_ts: int
    ) -> bool:
        """Guard ``line`` with its current safe value.  False when full."""
        if line in self._undo:
            raise ValueError(f"undo record already exists for line {line:#x}")
        if self.full:
            return False
        self._undo[line] = UndoRecord(
            line=line, safe_value=safe_value, core=core, epoch_ts=epoch_ts
        )
        self._journal_undo(line, safe_value)
        self._note_occupancy()
        if self.tracer is not None:
            self.tracer.emit(
                EventType.UNDO_CREATE, "rt", mc=self.mc, core=core,
                epoch=epoch_ts, line=line,
            )
        return True

    def update_undo(self, line: int, safe_value: int) -> None:
        """A safe flush arrived while memory is speculative (Table I,
        case 2): the incoming value becomes the new safe value."""
        record = self._undo.get(line)
        if record is None:
            raise KeyError(f"no undo record for line {line:#x}")
        record.safe_value = safe_value
        self._journal_undo(line, safe_value)

    def add_delay(
        self, line: int, write_id: int, core: int, epoch_ts: int
    ) -> bool:
        """Hold an early write behind an existing undo record.

        Coalesces with an existing delay record from the *same epoch* to
        the same line (Figure 9 discussion: "flushes to the same address,
        belonging to the same epoch, can be coalesced in the delay
        record").  Returns False when a new record is needed but the table
        is full.
        """
        for record in self._delay:
            if (
                record.line == line
                and record.core == core
                and record.epoch_ts == epoch_ts
            ):
                record.write_id = write_id
                self.stats.inc("delay_coalesced", scope=self.scope)
                return True
        if self.full:
            return False
        self._delay.append(
            DelayRecord(line=line, write_id=write_id, core=core, epoch_ts=epoch_ts)
        )
        self.stats.inc("delay_records_created", scope=self.scope)
        self._note_occupancy()
        if self.tracer is not None:
            self.tracer.emit(
                EventType.DELAY_CREATE, "rt", mc=self.mc, core=core,
                epoch=epoch_ts, line=line,
            )
        return True

    def supersede_delay(self, line: int, core: int, epoch_ts: int) -> int:
        """Drop delay records a newer same-epoch flush supersedes.

        Persist buffers issue same-line writes of one epoch in order, so
        a flush arriving from (core, epoch_ts) is per-line newer than any
        delay record the same epoch already has on that line.  Keeping
        the old record would resurrect the stale value when the epoch
        commits (a bug the exhaustive protocol checker caught).  Returns
        the number of records dropped.
        """
        if not self._delay:
            # nothing to supersede -- skip the list rebuild (this runs on
            # every flush arrival; delay records are rare).
            return 0
        before = len(self._delay)
        self._delay = [
            record for record in self._delay
            if not (
                record.line == line
                and record.core == core
                and record.epoch_ts == epoch_ts
            )
        ]
        dropped = before - len(self._delay)
        if dropped:
            self.stats.inc("delay_superseded", dropped, scope=self.scope)
            self._note_occupancy()
        return dropped

    def process_commit(self, core: int, epoch_ts: int) -> List[Tuple[int, int]]:
        """Handle an epoch commit (Section V-C).

        Deletes the epoch's undo records (memory's speculative values are
        now safe) and re-processes its delay records as if the flushes just
        arrived: a delayed value whose line is still guarded by *another*
        epoch's undo record folds into that record; otherwise it must be
        persisted to memory -- those are returned for the controller to
        write out.
        """
        for line in [
            undo_line for undo_line, r in self._undo.items()
            if r.core == core and r.epoch_ts == epoch_ts
        ]:
            del self._undo[line]
            self._journal_undo(line, None)

        to_persist: List[Tuple[int, int]] = []
        remaining: List[DelayRecord] = []
        for record in self._delay:
            if record.core == core and record.epoch_ts == epoch_ts:
                undo = self._undo.get(record.line)
                if undo is not None:
                    undo.safe_value = record.write_id
                    self._journal_undo(record.line, record.write_id)
                    self.stats.inc("delay_folded_into_undo", scope=self.scope)
                else:
                    to_persist.append((record.line, record.write_id))
            else:
                remaining.append(record)
        self._delay = remaining
        self._note_occupancy()
        return to_persist

    def undo_records(self) -> List[Tuple[int, int]]:
        """(line, safe value) pairs for the crash drain (Section V-E)."""
        return [(r.line, r.safe_value) for r in self._undo.values()]

    # -- inspection -------------------------------------------------------

    def undo_for(self, line: int) -> Optional[UndoRecord]:
        return self._undo.get(line)

    def delays_for(self, line: int) -> List[DelayRecord]:
        return [r for r in self._delay if r.line == line]

    def records_of_epoch(self, core: int, epoch_ts: int) -> int:
        """How many records (undo + delay) an epoch currently owns."""
        undo = sum(
            1 for r in self._undo.values()
            if r.core == core and r.epoch_ts == epoch_ts
        )
        delay = sum(
            1 for r in self._delay
            if r.core == core and r.epoch_ts == epoch_ts
        )
        return undo + delay


__all__ = ["DelayRecord", "RecoveryTable", "UndoRecord"]
