"""The memory controller.

Each controller owns a Write Pending Queue (durable, ADR) and optionally a
recovery table (ASAP's addition; injected by the machine assembler so that
this substrate does not depend on the paper's contribution).  It receives
*flush packets* from persist buffers (or from the baseline's clwb path) and
*commit messages* from epoch tables, processes them in arrival order, and
responds with ACK / NACK.

The handling of incoming flushes implements Table I of the paper:

=====================  ============================  =========================
Event                  Undo record NOT present       Undo record present
=====================  ============================  =========================
Safe flush arrives     Update memory                 Update undo record
Early flush arrives    Create undo record,           Create delay record
                       speculatively update memory
=====================  ============================  =========================

Durability boundary: a write is durable once accepted into the WPQ (ADR).
``adr_value`` -- the newest durable write id per line -- is the one record
of it: it is what an undo record captures as the "safe value" and what a
crash image starts from (:func:`repro.core.crash.crash_image`).  The WPQ
and the NVM device behind it model occupancy and timing only.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Protocol, Tuple

from repro.obs.events import EventType
from repro.obs.tracer import Tracer
from repro.sim.engine import Engine
from repro.sim.config import CACHE_LINE_BYTES, MachineConfig
from repro.sim.stats import StatsRegistry
from repro.mem.nvm import NVMDevice
from repro.mem.wpq import WritePendingQueue

#: Fixed pipeline occupancy for processing one packet at the controller.
MC_PROCESS_CYCLES = 4


class ResponseKind(enum.Enum):
    ACK = "ack"
    NACK = "nack"


class FlushPacket:
    """A cache-line flush travelling from a persist buffer to a controller.

    ``entry`` is the issuing persist-buffer entry; the controller never
    reads it, and the response carries it back to that buffer.  Slotted
    plain class (not a dataclass): one is allocated per flush, on the
    simulator's hottest path."""

    __slots__ = ("line", "write_id", "core", "epoch_ts", "early", "entry")

    def __init__(
        self,
        line: int,
        write_id: int,
        core: int,
        epoch_ts: int,
        early: bool,
        entry: object = None,
    ) -> None:
        self.line = line
        self.write_id = write_id
        self.core = core
        self.epoch_ts = epoch_ts
        self.early = early
        self.entry = entry

    def __repr__(self) -> str:
        return (
            f"FlushPacket(line={self.line:#x}, write_id={self.write_id}, "
            f"core={self.core}, epoch_ts={self.epoch_ts}, "
            f"early={self.early})"
        )


class FlushResponse:
    """The controller's answer, routed back to the issuing persist buffer."""

    __slots__ = ("packet", "kind")

    def __init__(self, packet: FlushPacket, kind: ResponseKind) -> None:
        self.packet = packet
        self.kind = kind


@dataclass
class CommitMessage:
    """Epoch-commit notification from an epoch table (Section V-C)."""

    core: int
    epoch_ts: int
    on_ack: Callable[[], None] = field(default=lambda: None)


class RecoveryTableProtocol(Protocol):
    """What the controller needs from ASAP's recovery table.

    Implemented by :class:`repro.core.recovery_table.RecoveryTable`; kept as
    a protocol so the memory substrate has no import edge into the paper's
    contribution.
    """

    def has_undo(self, line: int) -> bool: ...

    def undo_owner(self, line: int) -> Optional[Tuple[int, int]]:
        """(core, epoch_ts) of the undo record guarding ``line``."""
        ...

    def create_undo(
        self, line: int, safe_value: int, core: int, epoch_ts: int
    ) -> bool: ...

    def update_undo(self, line: int, safe_value: int) -> None: ...

    def add_delay(
        self, line: int, write_id: int, core: int, epoch_ts: int
    ) -> bool: ...

    def process_commit(self, core: int, epoch_ts: int) -> List[Tuple[int, int]]:
        """Drop the epoch's undo records; return delayed writes that must
        now be re-processed as fresh arrivals (line, write_id) pairs whose
        own epochs just committed."""
        ...

    def undo_records(self) -> List[Tuple[int, int]]:
        """(line, safe_value) pairs -- written over ``adr_value`` in a
        crash image."""
        ...


class MemoryController:
    """One memory controller with its WPQ, NVM device, and recovery table."""

    def __init__(
        self,
        engine: Engine,
        config: MachineConfig,
        stats: StatsRegistry,
        index: int,
        recovery_table: Optional[RecoveryTableProtocol] = None,
        bloom_filter: Optional[object] = None,
        tracer: Optional[Tracer] = None,
        journal: Optional[list] = None,
    ) -> None:
        self.engine = engine
        self.config = config
        self.stats = stats
        self.index = index
        self.scope = f"mc{index}"
        self.recovery_table = recovery_table
        self.bloom_filter = bloom_filter
        #: Vorpal mode: a coordinator that holds incoming flushes in an
        #: ordering queue until their vector-clock dependences are durable.
        self.vorpal = None
        #: optional :class:`repro.obs.Tracer`; None = tracing off.  The
        #: controller hands it on to its WPQ; the recovery table arrives
        #: built with its own.
        self.tracer = tracer
        self.nvm = NVMDevice(engine, config.nvm, stats, self.scope)
        self.wpq = WritePendingQueue(
            engine, config.wpq_entries, stats, self.scope, mc=index,
            tracer=tracer,
        )
        #: newest durable (ADR-domain) write id per line -- the only
        #: record of which write is durable; set only by
        #: :meth:`push_durable`.
        self.adr_value: Dict[int, int] = {}
        #: crash journal (:func:`repro.core.crash.record_run`) or None;
        #: every ``adr_value`` change appends ``(cycle, "adr", mc, line,
        #: write_id)``.
        self.journal = journal
        #: responses are delivered through this hook (wired by the machine).
        self.respond: Callable[[FlushResponse], None] = lambda resp: None
        #: deque: packets are consumed head-first, which list.pop(0) made O(n).
        self._input: Deque[object] = deque()
        self._processing = False
        self._drains_outstanding = 0
        #: lazily bound hot counters (first-use binding keeps zero-valued
        #: rows out of stats.txt for idle controllers).
        self._admitted_counter = None
        self._write_bytes_counter = None

    # ------------------------------------------------------------------
    # the persistence domain
    # ------------------------------------------------------------------

    def push_durable(self, line: int, write_id: int) -> bool:
        """Push a write into the WPQ, where ADR makes it durable, and
        record it in ``adr_value``.

        False when the WPQ is full: the caller waits for space."""
        if not self.wpq.push(line):
            return False
        self.adr_value[line] = write_id
        if self.journal is not None:
            self.journal.append(
                (self.engine.now, "adr", self.index, line, write_id)
            )
        return True

    def durable_value(self, line: int) -> int:
        """Newest write id for ``line`` inside the persistence domain;
        0 = pristine."""
        return self.adr_value.get(line, 0)

    # ------------------------------------------------------------------
    # packet arrival
    # ------------------------------------------------------------------

    def receive_flush(self, packet: FlushPacket) -> None:
        """A flush packet arrived at the controller's input queue."""
        self._input.append(packet)
        self._kick()

    def receive_commit(self, message: CommitMessage) -> None:
        """A commit message arrived (always behind earlier flushes)."""
        self._input.append(message)
        self._kick()

    def _kick(self) -> None:
        if not self._processing and self._input:
            self._processing = True
            self.engine.schedule(MC_PROCESS_CYCLES, self._process_head)

    def _done_processing(self) -> None:
        self._processing = False
        self._kick()

    def _process_head(self) -> None:
        item = self._input.popleft()
        if isinstance(item, FlushPacket):
            self._process_flush(item)
        else:
            self._process_commit(item)

    # ------------------------------------------------------------------
    # Table I: flush handling
    # ------------------------------------------------------------------

    def _process_flush(self, packet: FlushPacket) -> None:
        if self.tracer is not None:
            self.tracer.emit(
                EventType.MC_FLUSH, "mc", mc=self.index, core=packet.core,
                epoch=packet.epoch_ts, line=packet.line,
                kind="early" if packet.early else "safe",
            )
        if self.vorpal is not None:
            # Vorpal: every write waits in the ordering queue until the
            # coordinator can prove its happens-before set is durable.
            self.vorpal.enqueue(self, packet)
            self._done_processing()
            return
        rt = self.recovery_table
        if rt is not None:
            # An arriving flush supersedes any delay record its own epoch
            # holds on the line (same-epoch, same-line flushes arrive in
            # program order); the stale delayed value must never
            # resurrect at commit.
            rt.supersede_delay(packet.line, packet.core, packet.epoch_ts)
        if rt is not None and rt.undo_owner(packet.line) == (
            packet.core, packet.epoch_ts,
        ):
            # The line's undo record belongs to this very epoch: an
            # earlier write of the same epoch updated memory speculatively
            # and captured the pre-epoch safe value.  This flush is simply
            # a newer value of the same speculation -- update memory and
            # leave the undo record alone.  (Folding it into the record
            # instead would lose the value when the epoch's own commit
            # deletes the record.)
            self.stats.inc("same_epoch_recoalesce", scope=self.scope)
            self.admit(packet, self._done_processing)
            return
        if packet.early:
            if rt is None:
                raise RuntimeError(
                    "early flush received by a controller without a "
                    "recovery table (model wiring bug)"
                )
            if rt.has_undo(packet.line):
                # Table I, case 4: delay the flush.
                if rt.add_delay(
                    packet.line, packet.write_id, packet.core, packet.epoch_ts
                ):
                    self._finish_bloom(packet.line)
                    self._ack(packet)
                else:
                    self._nack(packet)
            else:
                # Table I, case 3: create undo, speculatively update memory.
                safe_value = self.durable_value(packet.line)
                if rt.create_undo(
                    packet.line, safe_value, packet.core, packet.epoch_ts
                ):
                    self.stats.inc("totalUndo", scope=self.scope)
                    # Creating the undo record reads the safe value off the
                    # device (read-modify-write).  The read happens in the
                    # background: NVM read bandwidth is plentiful and
                    # XPBuffer hits make most of these cheap (Section V-A).
                    # The ACK does not wait for it -- an early flush's ACK
                    # is not a durability promise (the write is rolled back
                    # on any crash before its epoch commits), and the
                    # commit message that *does* promise durability always
                    # trails the read by multiple round trips.
                    self.nvm.read_latency(packet.line)
                    self.admit(packet, self._done_processing)
                    return
                else:
                    self._nack(packet)
        else:
            if rt is not None and rt.has_undo(packet.line):
                # Table I, case 2: memory already holds a newer speculative
                # value; fold the safe value into the undo record instead.
                rt.update_undo(packet.line, packet.write_id)
                self.stats.inc("safe_flush_absorbed", scope=self.scope)
                self._finish_bloom(packet.line)
                self._ack(packet)
            else:
                # Table I, case 1: the normal durable write.
                self.admit(packet, self._done_processing)
                return
        self._done_processing()

    def admit(self, packet: FlushPacket, then: Callable[[], None]) -> None:
        """Admit ``packet``'s write to the WPQ once it has room, ACK it,
        start its drain, then run ``then``.

        The one admission path: the input pipeline passes
        :meth:`_done_processing`, so it stays blocked while the WPQ is
        full -- the back-pressure that ultimately stalls persist buffers
        when the device cannot keep up; Vorpal's ordering queue passes
        the write's exit from the queue.
        """
        if not self.push_durable(packet.line, packet.write_id):
            self.wpq.space_waiter.wait(lambda: self.admit(packet, then))
            return
        counter = self._admitted_counter
        if counter is None:
            counter = self._admitted_counter = self.stats.counter(
                "flushes_admitted", scope=self.scope
            )
        counter.inc()
        self._finish_bloom(packet.line)
        self._ack(packet)
        self._pump_drain()
        then()

    def _ack(self, packet: FlushPacket) -> None:
        self.respond(FlushResponse(packet=packet, kind=ResponseKind.ACK))

    def _nack(self, packet: FlushPacket) -> None:
        self.stats.inc("flushes_nacked", scope=self.scope)
        if self.bloom_filter is not None:
            self.bloom_filter.add(packet.line)
        self.respond(FlushResponse(packet=packet, kind=ResponseKind.NACK))

    def _finish_bloom(self, line: int) -> None:
        """A flush for ``line`` succeeded; clear any NACK bloom entry."""
        if self.bloom_filter is not None:
            self.bloom_filter.discard(line)

    # ------------------------------------------------------------------
    # commit messages (Section V-C)
    # ------------------------------------------------------------------

    def _process_commit(self, message: CommitMessage) -> None:
        if self.tracer is not None:
            self.tracer.emit(
                EventType.MC_COMMIT, "mc", mc=self.index, core=message.core,
                epoch=message.epoch_ts,
            )
        rt = self.recovery_table
        released: List[Tuple[int, int]] = []
        if rt is not None:
            released = rt.process_commit(message.core, message.epoch_ts)
        self.stats.inc("commits_processed", scope=self.scope)
        self._apply_released(released, message)

    def _apply_released(
        self, released: List[Tuple[int, int]], message: CommitMessage
    ) -> None:
        """Write freed delay-record values to memory, then ACK the commit."""
        if not released:
            message.on_ack()
            self._done_processing()
            return
        line, write_id = released[0]
        rest = released[1:]
        if self.push_durable(line, write_id):
            self.stats.inc("delay_records_persisted", scope=self.scope)
            self._pump_drain()
            self._apply_released(rest, message)
        else:
            self.wpq.space_waiter.wait(
                lambda: self._apply_released(released, message)
            )

    # ------------------------------------------------------------------
    # WPQ drain to media
    # ------------------------------------------------------------------

    def _pump_drain(self) -> None:
        """Keep up to ``write_parallelism`` media writes in flight.

        This is the one place the device's write bandwidth binds: the NVM
        device starts every write it is handed, so a full drain leaves
        later writes waiting in the WPQ (and, once it fills, stalls
        admission).
        """
        while (
            self._drains_outstanding < self.config.nvm.write_parallelism
            and len(self.wpq) > 0
        ):
            line = self.wpq.pop_head()
            self._drains_outstanding += 1
            counter = self._write_bytes_counter
            if counter is None:
                counter = self._write_bytes_counter = self.stats.counter(
                    "pm_write_bytes", scope=self.scope
                )
            counter.inc(CACHE_LINE_BYTES)
            self.nvm.write(line, self._drain_done)

    def _drain_done(self) -> None:
        self._drains_outstanding -= 1
        self._pump_drain()


__all__ = [
    "CommitMessage",
    "FlushPacket",
    "FlushResponse",
    "MC_PROCESS_CYCLES",
    "MemoryController",
    "RecoveryTableProtocol",
    "ResponseKind",
]
