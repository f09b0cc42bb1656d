"""Undo-log transactions over the PMem API.

A :class:`TransactionManager` is per-thread.  Each transaction:

1. appends one undo record per written variable to the thread's log
   region (payload: transaction id, variable address, old value),
2. ``ofence`` -- undo records ordered before the data they guard,
3. applies the data writes,
4. publishes the commit record (the thread's commit cell is overwritten
   with the new transaction sequence number),
5. makes it durable (``DFENCE`` mode) or merely ordered (``ORDERED``
   mode) before the caller releases its lock.

The payloads carry real Python values, so a crash image can be decoded
back into application state by :mod:`repro.tx.recovery`.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.api import DFence, OFence, Op, PMAllocator, Store

LINE = 64


@dataclass(frozen=True)
class PVar:
    """A persistent 8-byte variable (one per cache line for clarity)."""

    name: str
    addr: int


@dataclass(frozen=True)
class UndoPayload:
    """What an undo-log record stores.

    Carries the owning thread and per-thread sequence number so recovery
    can decide committed-ness from the commit cells alone -- the log is
    self-contained, as a real implementation's would be.
    """

    tx_id: int
    thread: int
    tx_seq: int
    var: str
    old_value: object


@dataclass(frozen=True)
class DataPayload:
    """What a data write stores."""

    tx_id: int
    var: str
    value: object


@dataclass(frozen=True)
class CommitPayload:
    """What the per-thread commit cell stores."""

    thread: int
    tx_seq: int
    tx_id: int


class DurabilityMode(enum.Enum):
    #: commit record durable (dfence) before the transaction "returns".
    DFENCE = "dfence"
    #: commit record only ordered; correctness relies on the hardware
    #: preserving cross-thread persist ordering.
    ORDERED = "ordered"


@dataclass
class TxRecord:
    """Execution-side metadata for one transaction (checker input)."""

    tx_id: int
    thread: int
    tx_seq: int  # per-thread sequence, 1-based
    writes: List[Tuple[str, object, object]]  # (var, old, new)
    serial: int  # global serialization index (lock order)


_GLOBAL_TX_IDS = itertools.count(1)
_GLOBAL_SERIAL = itertools.count(1)


class TransactionManager:
    """Per-thread undo-log transaction machinery.

    The manager owns a log region (``log_lines`` cache lines, used round
    robin) and a commit cell.  It tracks the current value of every
    :class:`PVar` it has ever written, which is the application's shadow
    state (the "volatile copy" a real program would have in registers).
    """

    def __init__(
        self,
        heap: PMAllocator,
        thread: int,
        shared_state: Dict[str, object],
        mode: DurabilityMode = DurabilityMode.DFENCE,
        log_lines: int = 16,
        log_base: Optional[int] = None,
        commit_cell: Optional[int] = None,
    ) -> None:
        self.thread = thread
        self.mode = mode
        self.log_base = log_base if log_base is not None else heap.alloc_lines(log_lines)
        self.log_lines = log_lines
        self.commit_cell = (
            commit_cell if commit_cell is not None else heap.alloc_lines(1)
        )
        #: shared volatile view of variable values (mutated under locks).
        self.state = shared_state
        self._log_cursor = 0
        self._tx_seq = 0
        self.records: List[TxRecord] = []

    def transaction(
        self, writes: List[Tuple[PVar, object]]
    ) -> Iterator[Op]:
        """Yield the ops of one transaction writing ``writes``.

        Must be executed while holding whatever lock protects the
        variables (the manager mutates the shared volatile state as it
        builds the ops, exactly like a real program would).
        """
        if not writes:
            return
        tx_id = next(_GLOBAL_TX_IDS)
        self._tx_seq += 1
        record = TxRecord(
            tx_id=tx_id,
            thread=self.thread,
            tx_seq=self._tx_seq,
            writes=[],
            serial=next(_GLOBAL_SERIAL),
        )
        # Register the record *before* yielding any op: the commit store
        # can become durable while this generator is still suspended at
        # the final fence, and the atomicity checker must know about the
        # transaction by then.
        for var, new_value in writes:
            record.writes.append((var.name, self.state.get(var.name), new_value))
        self.records.append(record)

        # 1. undo records, one line each.
        for (var, _new), (_name, old_value, _n) in zip(writes, record.writes):
            slot = self.log_base + (self._log_cursor % self.log_lines) * LINE
            self._log_cursor += 1
            yield Store(
                slot, 32,
                payload=UndoPayload(tx_id=tx_id, thread=self.thread,
                                    tx_seq=self._tx_seq, var=var.name,
                                    old_value=old_value),
            )
        # 2. log before data.
        yield OFence()
        # 3. the data writes.
        for var, new_value in writes:
            self.state[var.name] = new_value
            yield Store(
                var.addr, 8,
                payload=DataPayload(tx_id=tx_id, var=var.name,
                                    value=new_value),
            )
        # 4. data before commit record.
        yield OFence()
        yield Store(
            self.commit_cell, 8,
            payload=CommitPayload(thread=self.thread, tx_seq=self._tx_seq,
                                  tx_id=tx_id),
        )
        # 5. durability policy.
        if self.mode is DurabilityMode.DFENCE:
            yield DFence()
        else:
            yield OFence()


__all__ = [
    "CommitPayload",
    "DataPayload",
    "DurabilityMode",
    "PVar",
    "TransactionManager",
    "TxRecord",
    "UndoPayload",
]
