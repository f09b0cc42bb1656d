"""Typed simulator events and the stall-reason taxonomy.

An :class:`Event` is one observation: something a hardware component did
at one cycle (``CRASH_POINT``, emitted by the crash-sweep driver, is the
one exception).  Events are plain frozen-ish data (a slotted dataclass
of ints, strings, and enums) so sinks can serialize them cheaply and the
whole stream stays deterministic and picklable.

The JSONL schema (:meth:`Event.to_dict`) is deliberately small and
stable -- short keys, optional fields dropped -- because trace files for
real workloads run to millions of lines.  The golden tests in
``tests/obs`` pin it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional


class EventType(enum.Enum):
    """Every kind of observation a component may emit."""

    #: a core fetched its next op (the preceding op retired).
    OP_RETIRED = "op_retired"
    #: a store entered the persist buffer (``value`` = new occupancy).
    PB_ENQUEUE = "pb_enqueue"
    #: a store coalesced into an existing same-line same-epoch entry.
    PB_COALESCE = "pb_coalesce"
    #: the PB issued a safe flush to a controller.
    PB_FLUSH = "pb_flush"
    #: the PB issued an *early* (speculative) flush (ASAP's early bit).
    PB_SPEC_FLUSH = "pb_spec_flush"
    #: a flush was ACKed; the entry left the buffer (``value`` = occupancy).
    PB_ACK = "pb_ack"
    #: a flush was NACKed (recovery table full); entry held for retry.
    PB_NACK = "pb_nack"
    #: a stall interval opened (``reason`` says why).
    STALL_BEGIN = "stall_begin"
    #: a stall interval closed (``dur`` = cycles lost, same ``reason``).
    STALL_END = "stall_end"
    #: a core entered a dfence.
    DFENCE_BEGIN = "dfence_begin"
    #: the dfence's ordering requirement was met; the core resumes.
    DFENCE_END = "dfence_end"
    #: a cross-thread (or cross-strand) persist dependency was recorded.
    DEP_ESTABLISHED = "dep_established"
    #: a dependency was resolved (CDR received / poll succeeded).
    DEP_RESOLVED = "dep_resolved"
    #: an epoch committed and retired from the epoch table.
    EPOCH_COMMIT = "epoch_commit"
    #: a flush packet reached a memory controller (``kind``: early/safe).
    MC_FLUSH = "mc_flush"
    #: a commit message was processed at a memory controller.
    MC_COMMIT = "mc_commit"
    #: a WPQ entry drained to the media (``value`` = remaining entries).
    WPQ_DRAIN = "wpq_drain"
    #: an undo record was created in a recovery table.
    UNDO_CREATE = "undo_create"
    #: a delay record was created in a recovery table.
    DELAY_CREATE = "delay_create"
    #: a private-cache eviction was held in the write-back buffer.
    WBB_HOLD = "wbb_hold"
    #: held lines were released by the PB's head advancing (``value`` = n).
    WBB_RELEASE = "wbb_release"
    #: a crash-sweep campaign adjudicated one crash point (``kind`` =
    #: "ok"/"violation", ``value`` = number of violations; emitted by
    #: :mod:`repro.crashtest`, not by the simulator).
    CRASH_POINT = "crash_point"


class StallReason(enum.Enum):
    """Why cycles were lost; the attribution key of the profiler.

    Each reason with a cycle-denominated registry counter is *conserved*
    against it (see :data:`REASON_COUNTERS`); ``ET_FULL`` intervals are
    traced for the timeline but have no cycle counter in the registry
    (only the ``et_full_stalls`` occurrence count exists).
    """

    #: the core stalled on a full persist buffer.
    PB_FULL = "pb_full"
    #: the core stalled at a dfence (durability fence).
    DFENCE = "dfence"
    #: the core stalled at an sfence drain (baseline's ofence/release).
    SFENCE = "sfence"
    #: the PB held waiting entries but ordering forbade flushing any.
    PB_BLOCKED = "pb_blocked"
    #: a fence waited for epoch-table space (Section VI-A).
    ET_FULL = "et_full"


#: StallReason -> the registry counter its attributed cycles must sum to.
REASON_COUNTERS: Dict[StallReason, str] = {
    StallReason.PB_FULL: "cyclesStalled",
    StallReason.DFENCE: "dfenceStalled",
    StallReason.SFENCE: "sfenceStalled",
    StallReason.PB_BLOCKED: "cyclesBlocked",
}


@dataclass
class Event:
    """One observation at one simulated cycle.

    Only ``cycle``, ``type`` and ``comp`` are always present; the rest
    are optional and dropped from the serialized form when ``None``.
    """

    __slots__ = (
        "cycle", "type", "comp", "core", "mc", "epoch", "line",
        "reason", "dur", "kind", "value",
    )

    #: simulated time (CPU cycles) at which the event fired.
    cycle: int
    type: EventType
    #: emitting component ("core", "pb", "et", "mc", "rt", "wpq", "wbb").
    comp: str
    #: core index, for per-core / per-thread attribution.
    core: Optional[int]
    #: memory-controller index, for controller-side events.
    mc: Optional[int]
    #: epoch timestamp the event belongs to (per-core numbering).
    epoch: Optional[int]
    #: cache-line address, for data-movement events.
    line: Optional[int]
    #: stall taxonomy entry, for STALL_BEGIN / STALL_END.
    reason: Optional[StallReason]
    #: duration in cycles (STALL_END carries the interval length).
    dur: Optional[int]
    #: free-form discriminator ("early"/"safe", op class name, ...).
    kind: Optional[str]
    #: small integer payload (occupancy levels, release counts, ...).
    value: Optional[int]

    def to_dict(self) -> Dict[str, object]:
        """The stable JSONL form: short keys, ``None`` fields dropped."""
        out: Dict[str, object] = {
            "t": self.cycle,
            "ev": self.type.value,
            "comp": self.comp,
        }
        if self.core is not None:
            out["core"] = self.core
        if self.mc is not None:
            out["mc"] = self.mc
        if self.epoch is not None:
            out["epoch"] = self.epoch
        if self.line is not None:
            out["line"] = self.line
        if self.reason is not None:
            out["reason"] = self.reason.value
        if self.dur is not None:
            out["dur"] = self.dur
        if self.kind is not None:
            out["kind"] = self.kind
        if self.value is not None:
            out["value"] = self.value
        return out


__all__ = ["Event", "EventType", "REASON_COUNTERS", "StallReason"]
