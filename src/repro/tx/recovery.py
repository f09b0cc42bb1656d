"""Software recovery and the transaction-atomicity checker.

:func:`recover` is the procedure a real system would run after a crash:

1. read every thread's commit cell -- the surviving value names the last
   transaction that thread committed;
2. scan the surviving undo-log records; any record belonging to a
   transaction *newer* than its thread's committed sequence is an
   aborted in-flight transaction: restore the old value it guards;
3. the variables now hold an atomic state.

:func:`check_atomicity` then adjudicates that state against the
execution's transaction records: the set of committed transactions must
be a prefix of each thread's sequence *and* closed under the global
serialization order (a transaction cannot be committed if one it
observed is not), and every variable must hold exactly the value produced
by replaying the committed transactions in serialization order.

The checker is hardware-agnostic; the interesting experiments feed it
crash states from different models.  On ordering-preserving hardware
(baseline, HOPS, ASAP, eADR) both durability modes always pass.  With
``ORDERED`` commits on the ``ASAP_NO_UNDO`` ablation the serialization
closure can break -- a later transaction's commit record outlives an
earlier one's -- which the checker reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.core.crash import CrashState
from repro.tx.undolog import (
    CommitPayload,
    DataPayload,
    PVar,
    TransactionManager,
    TxRecord,
    UndoPayload,
)

LINE = 64


@dataclass
class TxRecovery:
    """Outcome of the software recovery procedure."""

    #: thread -> last committed per-thread transaction sequence.
    committed_seq: Dict[int, int]
    #: variable name -> recovered value (after undo replay).
    values: Dict[str, object]
    #: undo records that were applied (aborted transactions).
    undone: List[UndoPayload] = field(default_factory=list)


def recover(
    state: CrashState,
    managers: Iterable[TransactionManager],
    variables: Iterable[PVar],
) -> TxRecovery:
    """Run the undo-log recovery procedure against a crash image."""
    managers = list(managers)
    committed_seq: Dict[int, int] = {}
    for manager in managers:
        payload = state.surviving_payload(manager.commit_cell)
        if isinstance(payload, CommitPayload):
            committed_seq[manager.thread] = payload.tx_seq
        else:
            committed_seq[manager.thread] = 0

    # Raw surviving variable values (may include in-flight writes).
    values: Dict[str, object] = {}
    for var in variables:
        payload = state.surviving_payload(var.addr)
        if isinstance(payload, DataPayload):
            values[var.name] = payload.value
        elif payload is not None:
            values[var.name] = payload

    # Undo every surviving log record of an uncommitted transaction.
    # When several uncommitted transactions touched the same variable
    # (possible when commit records lag behind lock hand-offs), the undos
    # must apply newest-first so the variable lands on the oldest
    # pre-transaction value; transaction ids are globally monotone and
    # serve as the timestamp a real log would carry.
    undone: List[UndoPayload] = []
    for manager in managers:
        for index in range(manager.log_lines):
            payload = state.surviving_payload(manager.log_base + index * LINE)
            if not isinstance(payload, UndoPayload):
                continue
            if payload.tx_seq > committed_seq.get(payload.thread, 0):
                undone.append(payload)
    undone.sort(key=lambda p: p.tx_id, reverse=True)
    for payload in undone:
        values[payload.var] = payload.old_value

    return TxRecovery(
        committed_seq=committed_seq, values=values, undone=undone
    )


@dataclass
class AtomicityReport:
    atomic: bool
    problems: List[str] = field(default_factory=list)
    committed: List[TxRecord] = field(default_factory=list)
    expected: Dict[str, object] = field(default_factory=dict)

    def summary(self) -> str:
        if self.atomic:
            return (
                f"atomic: {len(self.committed)} committed transactions, "
                "recovered state matches replay"
            )
        return "NOT ATOMIC:\n" + "\n".join(f"  {p}" for p in self.problems)


def check_atomicity(
    recovery: TxRecovery,
    managers: Iterable[TransactionManager],
    initial: Optional[Dict[str, object]] = None,
) -> AtomicityReport:
    """Validate a recovered state against the execution's records."""
    managers = list(managers)
    problems: List[str] = []

    all_records: List[TxRecord] = []
    for manager in managers:
        all_records.extend(manager.records)
    all_records.sort(key=lambda r: r.serial)

    committed = [
        r for r in all_records
        if r.tx_seq <= recovery.committed_seq.get(r.thread, 0)
    ]

    # 1. per-thread prefix property (commit cells are monotone, so this
    # can only fail if the harness mis-recorded something).
    for manager in managers:
        seqs = sorted(
            r.tx_seq for r in committed if r.thread == manager.thread
        )
        if seqs != list(range(1, len(seqs) + 1)):
            problems.append(
                f"thread {manager.thread}: committed sequences {seqs} are "
                "not a prefix"
            )

    # 2. serialization closure: a committed transaction must not have
    # observed (executed after, under the same locks) an uncommitted one
    # that wrote any variable it read or overwrote.  With a single global
    # lock the check reduces to: the committed set is a prefix of the
    # serial order restricted to each variable's writers.
    committed_serials = {r.serial for r in committed}
    last_committed_serial = max(committed_serials, default=0)
    for record in all_records:
        if record.serial < last_committed_serial and (
            record.serial not in committed_serials
        ):
            # an earlier transaction is missing while a later one
            # committed: atomicity of the *history* is broken unless they
            # touched disjoint variables ever after; report precisely.
            later_committed = [
                c for c in committed if c.serial > record.serial
            ]
            touched = {var for var, _old, _new in record.writes}
            overlap = [
                c.tx_id for c in later_committed
                if touched & {v for v, _o, _n in c.writes}
            ]
            if overlap:
                problems.append(
                    f"tx {record.tx_id} (serial {record.serial}) is not "
                    f"committed but later transactions {overlap} touching "
                    "the same variables are -- the commit order leaked "
                    "ahead of durability"
                )

    # 3. value check: replay the committed transactions in serial order.
    expected: Dict[str, object] = dict(initial or {})
    for record in committed:
        for var, _old, new in record.writes:
            expected[var] = new
    for var, value in expected.items():
        recovered = recovery.values.get(var)
        if recovered != value:
            problems.append(
                f"variable {var!r}: expected {value!r} from committed "
                f"replay, recovered {recovered!r}"
            )
    for var, value in recovery.values.items():
        if var not in expected and value is not None:
            problems.append(
                f"variable {var!r}: uncommitted value {value!r} survived "
                "recovery"
            )

    return AtomicityReport(
        atomic=not problems,
        problems=problems,
        committed=committed,
        expected=expected,
    )


__all__ = ["AtomicityReport", "TxRecovery", "check_atomicity", "recover"]
