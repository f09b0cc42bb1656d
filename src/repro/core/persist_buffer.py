"""The Persist Buffer (PB).

Section V-A: a per-core circular buffer alongside the private caches.
Writes to NVM are enqueued here when the store updates the cache; the PB
flushes them to the memory controllers in the background.  Which entries
may be flushed *right now* is the essential difference between the
evaluated designs, so the policy is injected by the hardware model:

- baseline  -- every entry is flushable immediately (clwb semantics);
  ordering comes from the core stalling at fences instead.
- HOPS      -- conservative flushing: an entry is flushable only when its
  epoch is *safe* (all prior epochs committed, cross-thread dependency
  resolved).
- ASAP      -- eager flushing: any queued entry is flushable; entries
  whose epoch is not yet safe are tagged *early* in the flush packet.
  After a NACK the buffer falls back to conservative flushing until the
  NACKed epoch commits (Section V-D).

The buffer coalesces stores to the same line within the same epoch, tracks
the Figure 3 "blocked" statistic (cycles in which waiting entries exist but
ordering forbids flushing any of them), and feeds the Figure 11 occupancy
distribution.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.obs.events import EventType, StallReason
from repro.obs.tracer import Tracer
from repro.sim.engine import Engine, Waiter
from repro.sim.stats import StatsRegistry

if TYPE_CHECKING:
    from repro.core.epoch_table import EpochTable


class PBEntryState(enum.Enum):
    QUEUED = "queued"  # waiting to be issued
    INFLIGHT = "inflight"  # flush packet travelling / at the MC
    NACK_WAIT = "nack_wait"  # NACKed; waiting to retry as a safe flush


class EnqueueResult(enum.Enum):
    """Outcome of a store entering the persist buffer.

    The distinction matters to the epoch table: a COALESCED store shares
    its entry's single future ACK, so it must not be counted as an extra
    outstanding write (counting it would leave the epoch incomplete
    forever)."""

    ADDED = "added"
    COALESCED = "coalesced"
    FULL = "full"


class PBEntry:
    """One buffered write.

    A plain slotted class (not a dataclass): entries are identity-compared
    -- ``seq`` is unique per buffer, so value equality never differed from
    identity -- and allocated on every store, which makes the dataclass
    machinery measurable overhead.
    """

    __slots__ = ("seq", "line", "write_id", "epoch_ts", "state", "issued_early")

    def __init__(
        self,
        seq: int,  # per-buffer sequence number (FIFO order, WBB handle)
        line: int,
        write_id: int,
        epoch_ts: int,
        state: PBEntryState = PBEntryState.QUEUED,
        issued_early: bool = False,
    ) -> None:
        self.seq = seq
        self.line = line
        self.write_id = write_id
        self.epoch_ts = epoch_ts
        self.state = state
        self.issued_early = issued_early

    def __repr__(self) -> str:
        return (
            f"PBEntry(seq={self.seq}, line={self.line:#x}, "
            f"write_id={self.write_id}, epoch_ts={self.epoch_ts}, "
            f"state={self.state}, issued_early={self.issued_early})"
        )


class PersistBuffer:
    """Per-core FIFO of writes awaiting persistence."""

    def __init__(
        self,
        engine: Engine,
        capacity: int,
        issue_cycles: int,
        stats: StatsRegistry,
        scope: str,
        core: int,
        inflight_max: int = 8,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.engine = engine
        self.capacity = capacity
        self.issue_cycles = max(1, issue_cycles)
        self.inflight_max = inflight_max
        self.stats = stats
        self.scope = scope
        self.core = core
        self.entries: List[PBEntry] = []
        #: buffered entries per line -- lets the enqueue coalesce scan and
        #: the eviction-path :meth:`contains_line` probe skip the common
        #: "line not buffered" case without touching the entry list.
        self._line_counts: Dict[int, int] = {}
        self.space_waiter = Waiter(engine)
        self.drain_waiter = Waiter(engine)
        self._seq = 0
        self._port_busy = False
        self._inflight = 0
        self._blocked_since: Optional[int] = None
        #: epoch of the oldest waiting entry when blocking began, so the
        #: eventual STALL_END can attribute the blocked interval.
        self._blocked_epoch: Optional[int] = None
        #: lazily bound hot counter (see :meth:`enqueue`).
        self._inserted = None
        #: optional :class:`repro.obs.Tracer`; None = tracing off.
        self.tracer = tracer
        self._occupancy = stats.weighted("pb_occupancy", capacity, scope=scope)
        #: conservative-fallback horizon: while set, the owning model's
        #: policy only issues safe flushes; cleared when the epoch commits.
        self.conservative_until_ts: Optional[int] = None

        # Wired by the hardware model / machine assembler:
        #: pick the next flushable entry, or None (the policy).
        self.select_entry: Callable[["PersistBuffer"], Optional[PBEntry]] = (
            lambda pb: None
        )
        #: True if a flush of this epoch must carry the early bit.
        self.classify_early: Callable[[int], bool] = lambda ts: False
        #: hand a packet to the interconnect (machine supplies transport).
        self.send_flush: Callable[[PBEntry], None] = lambda entry: None
        #: epoch-table accounting callbacks.
        self.on_issue: Callable[[PBEntry], None] = lambda entry: None
        self.on_acked: Callable[[PBEntry], None] = lambda entry: None
        self.on_nacked: Callable[[PBEntry], None] = lambda entry: None
        #: WBB release hook: the oldest un-flushed sequence number rose.
        self.on_head_advance: Callable[[int], None] = lambda seq: None

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def full(self) -> bool:
        return len(self.entries) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self.entries

    def contains_line(self, line: int) -> bool:
        return line in self._line_counts

    def occupancy_stat(self):
        return self._occupancy

    # ------------------------------------------------------------------
    # enqueue (store path)
    # ------------------------------------------------------------------

    def enqueue(self, line: int, write_id: int, epoch_ts: int) -> EnqueueResult:
        """Buffer a write.  Returns FULL when the core must stall.

        Coalesces with an existing un-issued entry for the same line in
        the same epoch -- the flush will simply carry the newest value
        and produce a single ACK (the caller's epoch accounting must not
        count a coalesced store as an extra outstanding write).
        """
        if line in self._line_counts:
            # coalesce scan only when the line is actually buffered; the
            # list order decides which entry wins, exactly as before.
            inflight = PBEntryState.INFLIGHT
            for entry in self.entries:
                if (
                    entry.line == line
                    and entry.epoch_ts == epoch_ts
                    and entry.state is not inflight
                ):
                    entry.write_id = write_id
                    self.stats.inc("pb_coalesced", scope=self.scope)
                    if self.tracer is not None:
                        self.tracer.emit(
                            EventType.PB_COALESCE, "pb", core=self.core,
                            epoch=epoch_ts, line=line,
                        )
                    return EnqueueResult.COALESCED
        if self.full:
            return EnqueueResult.FULL
        entry = PBEntry(
            seq=self._seq, line=line, write_id=write_id, epoch_ts=epoch_ts
        )
        self._seq += 1
        self.entries.append(entry)
        self._line_counts[line] = self._line_counts.get(line, 0) + 1
        counter = self._inserted
        if counter is None:
            # bound on first use (not eagerly) so a buffer that never
            # enqueues creates no zero-valued stats row.
            counter = self._inserted = self.stats.counter(
                "entriesInserted", scope=self.scope
            )
        counter.inc()
        self._occupancy.update(self.engine.now, len(self.entries))
        if self.tracer is not None:
            self.tracer.emit(
                EventType.PB_ENQUEUE, "pb", core=self.core, epoch=epoch_ts,
                line=line, value=len(self.entries),
            )
        self.reassess()
        return EnqueueResult.ADDED

    # ------------------------------------------------------------------
    # flush issue
    # ------------------------------------------------------------------

    def reassess(self) -> None:
        """Something changed (epoch became safe, mode switched, ...);
        re-evaluate blocking and try to issue."""
        # Evaluate the (pure) selection policy exactly once and share the
        # result between blocked-cycle accounting and the issue attempt;
        # the old code scanned the buffer twice per reassessment.  The
        # waiting check is O(1): ``_inflight`` counts exactly the entries
        # in the INFLIGHT state, so any surplus entry is waiting.
        waiting = len(self.entries) > self._inflight
        selected = self.select_entry(self) if waiting else None
        blocked = waiting and selected is None
        # skip the call entirely in the steady state (not blocked, no
        # open blocked interval) -- _update_blocked would be a no-op.
        if blocked or self._blocked_since is not None:
            self._update_blocked(blocked)
        if selected is not None:
            self._try_issue(selected)

    def _try_issue(self, entry: PBEntry) -> None:
        if self._port_busy or self._inflight >= self.inflight_max:
            return
        self._port_busy = True
        self._inflight += 1
        entry.state = PBEntryState.INFLIGHT
        entry.issued_early = self.classify_early(entry.epoch_ts)
        if entry.issued_early:
            self.stats.inc("totSpecWrites", scope=self.scope)
        if self.tracer is not None:
            self.tracer.emit(
                EventType.PB_SPEC_FLUSH if entry.issued_early
                else EventType.PB_FLUSH,
                "pb", core=self.core, epoch=entry.epoch_ts, line=entry.line,
            )
        self.on_issue(entry)
        waiting = len(self.entries) > self._inflight
        blocked = waiting and self.select_entry(self) is None
        if blocked or self._blocked_since is not None:
            self._update_blocked(blocked)
        self.engine.schedule(self.issue_cycles, self._port_free)
        self.send_flush(entry)

    def _port_free(self) -> None:
        self._port_busy = False
        self.reassess()

    # ------------------------------------------------------------------
    # responses
    # ------------------------------------------------------------------

    def handle_ack(self, entry: PBEntry) -> None:
        """The controller accepted the flush; the write is durable."""
        self._inflight -= 1
        self.entries.remove(entry)
        count = self._line_counts[entry.line] - 1
        if count:
            self._line_counts[entry.line] = count
        else:
            del self._line_counts[entry.line]
        self._occupancy.update(self.engine.now, len(self.entries))
        if self.tracer is not None:
            self.tracer.emit(
                EventType.PB_ACK, "pb", core=self.core, epoch=entry.epoch_ts,
                line=entry.line, value=len(self.entries),
            )
        self.on_acked(entry)
        self.on_head_advance(self._oldest_seq())
        self.space_waiter.wake()
        if not self.entries:
            self.drain_waiter.wake()
        self.reassess()

    def handle_nack(self, entry: PBEntry) -> None:
        """Recovery table full: hold the entry for a safe retry."""
        if entry.state is not PBEntryState.INFLIGHT:
            raise ValueError(f"NACK for an entry not in flight: {entry!r}")
        self._inflight -= 1
        entry.state = PBEntryState.NACK_WAIT
        self.stats.inc("pb_nacks", scope=self.scope)
        if self.tracer is not None:
            self.tracer.emit(
                EventType.PB_NACK, "pb", core=self.core,
                epoch=entry.epoch_ts, line=entry.line,
            )
        self.on_nacked(entry)
        self.reassess()

    def _oldest_seq(self) -> int:
        # Entries are appended in increasing seq order and removals keep
        # relative order, so the list is always seq-sorted: the head IS
        # the minimum (the old code scanned the whole buffer).
        if not self.entries:
            return self._seq
        return self.entries[0].seq

    # ------------------------------------------------------------------
    # Figure 3: blocked-cycle accounting
    # ------------------------------------------------------------------

    def _update_blocked(self, blocked: bool) -> None:
        """Blocked = waiting entries exist but the policy can't issue any.

        Cycles spent actively flushing (port busy with a selected entry)
        are not blocked; cycles where ordering rules leave waiting entries
        stranded are.  ``blocked`` is computed by the caller from a single
        (pure) policy evaluation; the issue-path callers skip the call when
        it would be a no-op (not blocked, no open interval).
        """
        now = self.engine.now
        if blocked and self._blocked_since is None:
            self._blocked_since = now
            if self.tracer is not None:
                oldest = next(
                    e for e in self.entries
                    if e.state is not PBEntryState.INFLIGHT
                )
                self._blocked_epoch = oldest.epoch_ts
                self.tracer.emit(
                    EventType.STALL_BEGIN, "pb", core=self.core,
                    epoch=self._blocked_epoch, reason=StallReason.PB_BLOCKED,
                )
        elif not blocked and self._blocked_since is not None:
            self.stats.inc(
                "cyclesBlocked", now - self._blocked_since, scope=self.scope
            )
            if self.tracer is not None:
                self.tracer.emit(
                    EventType.STALL_END, "pb", core=self.core,
                    epoch=self._blocked_epoch, reason=StallReason.PB_BLOCKED,
                    dur=now - self._blocked_since,
                )
                self._blocked_epoch = None
            self._blocked_since = None

    def finish(self, now: int) -> None:
        """Close out accounting at the end of a run."""
        self._update_blocked(False)
        self._occupancy.finish(now)


def select_fifo_any(pb: PersistBuffer) -> Optional[PBEntry]:
    """Baseline policy: the oldest queued entry, unconditionally."""
    for entry in pb.entries:
        if entry.state is PBEntryState.QUEUED:
            return entry
    return None


def make_conservative_policy(
    table: EpochTable,
) -> Callable[[PersistBuffer], Optional[PBEntry]]:
    """HOPS policy: oldest waiting entry whose epoch is safe.  Nothing
    flushes from unsafe epochs.

    Entries are in epoch order, and a strand is a contiguous run of
    timestamps that commits in order, so once an epoch is unsafe every
    later epoch of its strand is too: the scan skips to the next
    strand's first epoch, and stops when there is none (a HOPS table
    holds one strand)."""
    is_safe = table.is_safe
    strand_starts = table.strand_starts

    def select(pb: PersistBuffer) -> Optional[PBEntry]:
        skip_below = 0
        inflight = PBEntryState.INFLIGHT
        for entry in pb.entries:
            ts = entry.epoch_ts
            if ts < skip_below or entry.state is inflight:
                continue
            if is_safe(ts):
                return entry
            later = bisect_right(strand_starts, ts)
            if later == len(strand_starts):
                return None
            skip_below = strand_starts[later]
        return None

    return select


def make_eager_policy(
    is_safe: Callable[[int], bool],
) -> Callable[[PersistBuffer], Optional[PBEntry]]:
    """ASAP policy: flush as soon as possible.

    Queued entries issue immediately (early bit set when the epoch is not
    yet safe).  NACKed entries retry only once safe.  While the buffer is
    in conservative fallback (``conservative_until_ts`` set), only safe
    entries issue -- these never allocate recovery-table space, so they
    can never be NACKed (Section V-D's forward-progress argument).
    """

    def select(pb: PersistBuffer) -> Optional[PBEntry]:
        conservative = pb.conservative_until_ts is not None
        #: (line, epoch) pairs with an earlier waiting entry: a later
        #: same-epoch write to the same line must not bypass it -- the
        #: controller cannot tell intra-epoch ages apart, so the buffer
        #: preserves same-address order within an epoch (the NACK retry
        #: path is where bypassing would otherwise happen).  The set (and
        #: its key tuples) is only materialized once something is actually
        #: held back; the common case -- nothing NACKed, no fallback --
        #: returns the first queued entry without allocating.
        held: Optional[set] = None
        inflight = PBEntryState.INFLIGHT
        nack_wait = PBEntryState.NACK_WAIT
        for entry in pb.entries:
            state = entry.state
            if state is inflight:
                continue
            if held is not None and (entry.line, entry.epoch_ts) in held:
                continue
            if state is nack_wait or conservative:
                if is_safe(entry.epoch_ts):
                    return entry
                if held is None:
                    held = set()
                held.add((entry.line, entry.epoch_ts))
                continue
            return entry
        return None

    return select


__all__ = [
    "EnqueueResult",
    "PBEntry",
    "PBEntryState",
    "PersistBuffer",
    "make_conservative_policy",
    "make_eager_policy",
    "select_fifo_any",
]
