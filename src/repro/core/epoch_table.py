"""The Epoch Table (ET).

Section V-A: a per-core CAM holding metadata about in-flight epochs --
outstanding write counts, cross-thread dependencies, and commit state.
The ET decides when an epoch is *safe*, *complete*, and *committed*
(Section V-C):

- safe:      the preceding epoch has committed, and the cross-thread
             dependency (if any) has been resolved;
- complete:  the epoch is closed and every write has been ACKed;
- committed: safe and complete -- for ASAP, after the MCs that received
             early flushes have acknowledged the commit message.

Commits necessarily happen in timestamp order on each core (safety
requires the predecessor to have committed first), so ``committed_upto``
summarizes the retired prefix.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.events import EventType
from repro.obs.tracer import Tracer
from repro.sim.engine import Engine, Waiter  # noqa: F401  (Engine in API)
from repro.sim.stats import StatsRegistry
from repro.core.epoch import EpochEntry, EpochId


class EpochTable:
    """Per-core epoch lifecycle tracker."""

    def __init__(
        self,
        engine: Engine,
        capacity: int,
        stats: StatsRegistry,
        scope: str,
        core: int,
        tracer: Optional[Tracer] = None,
        journal: Optional[list] = None,
    ) -> None:
        self.engine = engine
        self.capacity = capacity
        self.stats = stats
        self.scope = scope
        self.core = core
        self.entries: Dict[int, EpochEntry] = {}
        self.current_ts = 1
        #: dense committed prefix; with strand persistency commits can be
        #: sparse, tracked in ``_committed_sparse`` until the prefix
        #: catches up.
        self.committed_upto = 0
        self._committed_sparse: set = set()
        self._strand_counter = 0
        self.entries[1] = EpochEntry(ts=1, prev=None, strand=0)
        #: optional :class:`repro.obs.Tracer`; None = tracing off.
        self.tracer = tracer
        #: crash journal (:func:`repro.core.crash.record_run`) or None;
        #: every commit appends ``(cycle, "commit")``.
        self.journal = journal
        self.space_waiter = Waiter(engine)
        self._commit_waiters: List[Tuple[int, Callable[[], None]]] = []

        # Wired by the hardware model:
        #: perform the model-specific commit action for a ready epoch
        #: (send MC commit messages for ASAP, publish the global TS for
        #: HOPS, ...).  Must eventually call :meth:`finalize_commit`.
        self.commit_action: Callable[[EpochEntry], None] = self.finalize_commit
        #: deliver a CDR message to a dependent epoch (model transport).
        self.send_cdr: Callable[[EpochId], None] = lambda dep: None
        #: notification hook fired whenever safety may have changed
        #: (persist buffers re-evaluate their policies on this).
        self.on_progress: Callable[[], None] = lambda: None

    # ------------------------------------------------------------------
    # epoch lifecycle
    # ------------------------------------------------------------------

    @property
    def over_capacity(self) -> bool:
        return len(self.entries) > self.capacity

    def open_epoch(self, strand_break: bool = False) -> int:
        """Close the current epoch and open a new one; returns its ts.

        Called for ofence, dfence, release boundaries, and the
        coherence-triggered splits of Section IV-E.  With
        ``strand_break`` the new epoch starts a fresh strand: it has no
        predecessor, so it is immediately safe regardless of older
        strands' progress (strand persistency, Section VII-E).

        The table may transiently exceed its capacity (coherence splits
        cannot stall); fences stall while it is over capacity
        (Section VI-A).
        """
        old = self.entries.get(self.current_ts)
        self.current_ts += 1
        if strand_break or old is None:
            self._strand_counter += 1
            entry = EpochEntry(
                ts=self.current_ts, prev=None, strand=self._strand_counter
            )
        else:
            entry = EpochEntry(
                ts=self.current_ts, prev=old.ts, strand=old.strand
            )
            old.next_ts = self.current_ts
        self.entries[self.current_ts] = entry
        if old is not None:
            old.closed = True
            self.maybe_commit(old.ts)
        return self.current_ts

    def strand_of(self, ts: int) -> Optional[int]:
        """Strand id of a live epoch (None once it has committed)."""
        entry = self.entries.get(ts)
        return entry.strand if entry is not None else None

    # ------------------------------------------------------------------
    # write accounting (persist buffer callbacks)
    # ------------------------------------------------------------------

    def on_enqueue(self, ts: int) -> None:
        self.entries[ts].unacked += 1

    def on_write_issued(self, ts: int, mc: int, early: bool) -> None:
        if early:
            self.entries[ts].early_mcs.add(mc)

    def on_write_acked(self, ts: int) -> None:
        entry = self.entries[ts]
        entry.unacked -= 1
        if entry.unacked < 0:
            raise RuntimeError(f"ACK underflow for epoch {ts} on {self.scope}")
        self.maybe_commit(ts)

    # ------------------------------------------------------------------
    # safety / dependencies
    # ------------------------------------------------------------------

    def is_safe(self, ts: int) -> bool:
        """Ordering constraints satisfied for epoch ``ts`` (Section IV-B):
        the predecessor in its strand has committed, and the cross-thread
        dependency (if any) has been resolved."""
        if self.is_committed(ts):
            return True
        entry = self.entries[ts]
        prev_ok = entry.prev is None or self.is_committed(entry.prev)
        return prev_ok and entry.dep_resolved

    def is_committed(self, ts: int) -> bool:
        return ts <= self.committed_upto or ts in self._committed_sparse

    def _mark_committed(self, ts: int) -> None:
        self._committed_sparse.add(ts)
        while (self.committed_upto + 1) in self._committed_sparse:
            self.committed_upto += 1
            self._committed_sparse.discard(self.committed_upto)

    def set_dep(self, ts: int, source: EpochId) -> None:
        self.entries[ts].set_dep(source)

    def resolve_dep(self, ts: int) -> None:
        """The source epoch committed (CDR received / poll succeeded)."""
        entry = self.entries.get(ts)
        if entry is None:
            return  # epoch already retired
        entry.dep_resolved = True
        if self.tracer is not None:
            self.tracer.emit(
                EventType.DEP_RESOLVED, "et", core=self.core, epoch=ts,
            )
        self.maybe_commit(ts)
        self.on_progress()

    def register_dependent(self, ts: int, dependent: EpochId) -> bool:
        """A remote epoch depends on ``ts``.  Returns False when ``ts``
        has already committed (no dependency needed)."""
        if self.is_committed(ts):
            return False
        self.entries[ts].dependents.append(dependent)
        return True

    def unresolved_deps(self) -> List[Tuple[int, EpochId]]:
        """(ts, source) for every epoch still waiting on a remote commit
        -- what the HOPS polling loop scans."""
        return [
            (e.ts, e.dep)
            for e in self.entries.values()
            if e.dep is not None and not e.dep_resolved
        ]

    # ------------------------------------------------------------------
    # commit
    # ------------------------------------------------------------------

    def maybe_commit(self, ts: int) -> None:
        entry = self.entries.get(ts)
        if entry is None:
            return
        if entry.committed or entry.commit_sent:
            return
        if entry.complete and self.is_safe(ts):
            entry.commit_sent = True
            self.commit_action(entry)

    def finalize_commit(self, entry: EpochEntry) -> None:
        """The epoch is durable-and-ordered; retire it.

        Sends CDR messages to dependents, records the commit (commits are
        in order within a strand but may interleave across strands),
        cascades to the strand successor, and wakes fence waiters.
        """
        if entry.committed:
            return
        if entry.prev is not None and not self.is_committed(entry.prev):
            raise RuntimeError(
                f"out-of-order commit: epoch {entry.ts} before its "
                f"predecessor {entry.prev} on {self.scope}"
            )
        entry.committed = True
        self._mark_committed(entry.ts)
        del self.entries[entry.ts]
        self.stats.inc("epochs_committed", scope=self.scope)
        if self.tracer is not None:
            self.tracer.emit(
                EventType.EPOCH_COMMIT, "et", core=self.core, epoch=entry.ts,
            )
        if self.journal is not None:
            self.journal.append((self.engine.now, "commit"))
        for dependent in entry.dependents:
            self.send_cdr(dependent)
        if not self.over_capacity:
            self.space_waiter.wake()
        self._wake_commit_waiters()
        if entry.next_ts is not None:
            self.maybe_commit(entry.next_ts)
        self.on_progress()

    # ------------------------------------------------------------------
    # fence support
    # ------------------------------------------------------------------

    def wait_for_commit(self, upto_ts: int, callback: Callable[[], None]) -> bool:
        """Run ``callback`` once every epoch <= ``upto_ts`` (across all
        strands) has committed.

        Returns True when already satisfied (callback NOT invoked -- the
        caller proceeds synchronously), False when the waiter was queued.
        """
        if self._dfence_ready(upto_ts):
            return True
        self._commit_waiters.append((upto_ts, callback))
        return False

    def _dfence_ready(self, upto_ts: int) -> bool:
        if self.committed_upto >= upto_ts:
            return True
        # With strands, the committed prefix may be sparse; a dfence is
        # satisfied when no live (uncommitted) epoch at or below the bound
        # remains.
        return not any(
            entry.ts <= upto_ts for entry in self.entries.values()
        )

    def _wake_commit_waiters(self) -> None:
        ready = [
            cb for ts, cb in self._commit_waiters if self._dfence_ready(ts)
        ]
        if ready:
            self._commit_waiters = [
                (ts, cb) for ts, cb in self._commit_waiters
                if not self._dfence_ready(ts)
            ]
            for callback in ready:
                self.engine.schedule(0, callback)

    def all_committed(self) -> bool:
        """True when no closed epoch is still in flight."""
        return all(
            entry.committed or not entry.closed
            for entry in self.entries.values()
        )


class GlobalTSRegister:
    """HOPS's global timestamp register.

    A single shared structure recording, per core, the newest committed
    epoch timestamp.  Dependent threads *poll* it (the paper's updated
    HOPS model: poll every 500 cycles, 50 cycles per access).

    The register is a **single point of contention** (Section IV-E lists
    this as HOPS's scaling flaw): accesses -- both the commit publishes
    and the dependence polls -- serialize, each occupying the register
    for the 50-cycle access time.  ASAP's direct CDR messages have no
    analogous bottleneck, which is what Figure 10's scaling gap comes
    from.
    """

    def __init__(
        self,
        stats: StatsRegistry,
        engine: Engine,
        access_cycles: int = 50,
    ) -> None:
        self.stats = stats
        self.engine = engine
        self.access_cycles = access_cycles
        self._committed: Dict[int, int] = {}
        self._pending: Dict[int, int] = {}
        self._busy_until = 0

    def publish(self, core: int, committed_upto: int) -> None:
        """Record a commit.  The value becomes visible to pollers after
        the register's access latency.  Writes use a dedicated per-core
        write port (each core only ever updates its own entry, so writes
        never conflict); back-to-back commits from one core coalesce into
        a single pending update.  Reads are the contended path -- see
        :meth:`read_done_at`."""
        self.stats.inc("global_ts_writes")
        if core in self._pending:
            self._pending[core] = max(self._pending[core], committed_upto)
            return
        self._pending[core] = committed_upto

        def write() -> None:
            value = self._pending.pop(core)
            if value > self._committed.get(core, 0):
                self._committed[core] = value

        self.engine.schedule(self.access_cycles, write)

    def committed_upto(self, core: int) -> int:
        """Immediate (zero-time) read of the current register value; the
        caller is responsible for modelling its access latency via
        :meth:`read_done_at`."""
        self.stats.inc("global_ts_reads")
        return self._committed.get(core, 0)

    def read_done_at(self) -> int:
        """Reserve a serialized read slot; returns its completion cycle."""
        start = max(self.engine.now, self._busy_until)
        self._busy_until = start + self.access_cycles
        return self._busy_until


__all__ = ["EpochTable", "GlobalTSRegister"]
