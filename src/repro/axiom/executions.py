"""Candidate execution enumeration for the axiomatic checker.

A *candidate execution* fixes everything about a litmus program the
axioms quantify over:

- a **total order per lock** over its critical sections (each lock's
  sections are mutually exclusive, so some total order exists), which
  induces the release->acquire synchronizes-with edges; and
- a **per-line coherence order** over the writes of each cache line
  (TSO gives every line a total store order), constrained by
  happens-before: program order plus the synchronizes-with edges,
  transitively closed.

Rather than interleaving every op (combinatorially hopeless and mostly
irrelevant -- fences and computes don't commute with anything that
matters for crash states), we enumerate exactly these two choices and
filter by happens-before consistency.  This over-approximates the set
of real executions only in ways that *enlarge* the allowed-state set,
which is the safe direction for a checker whose job is to prove the
operational simulator reaches nothing forbidden.

Each execution also carries a **witness**: one global persist order of
all writes consistent with coherence and happens-before.  Prefixes of
the witness are durable-prefix states, which the formal model must
always allow -- the hypothesis property in ``tests/property`` leans on
this.  Candidate combinations whose coherence orders cannot be embedded
in any global order (a cross-line cycle through happens-before) are
discarded: no persist schedule of a real machine could produce them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Sequence, Set, Tuple

from repro.axiom.program import LINE, LitmusTest
from repro.core.api import Acquire, Release

#: (thread, op index) -- the identity of one op in the program.
OpRef = Tuple[int, int]

#: enumeration caps: beyond these the execution set is truncated (and
#: flagged as such); corpus tests are sized to stay well under them.
MAX_LOCK_ORDERS = 64
MAX_EXECUTIONS = 512


@dataclass(frozen=True)
class WriteRef:
    """One store, with everything the axioms need to know about it."""

    thread: int
    index: int
    line: int
    label: str

    @property
    def ref(self) -> OpRef:
        return (self.thread, self.index)


@dataclass(frozen=True)
class Execution:
    """One candidate execution of a litmus test."""

    #: (line, coherence order) pairs, sorted by line.
    coherence: Tuple[Tuple[int, Tuple[WriteRef, ...]], ...]
    #: release->acquire pairs induced by the per-lock total orders.
    sync_pairs: Tuple[Tuple[OpRef, OpRef], ...]
    #: one global persist order of all writes consistent with the above.
    witness: Tuple[WriteRef, ...]

    def coherence_map(self) -> Dict[int, Tuple[WriteRef, ...]]:
        return dict(self.coherence)


@dataclass(frozen=True)
class ExecutionSet:
    executions: Tuple[Execution, ...]
    #: True if an enumeration cap was hit (allowed sets may be partial).
    truncated: bool


def _interleavings(
    sequences: Sequence[Sequence[Tuple[OpRef, OpRef]]],
) -> Iterator[Tuple[Tuple[OpRef, OpRef], ...]]:
    """All merges of the given sequences preserving each one's order."""
    counts = [len(seq) for seq in sequences]

    def rec(
        taken: List[int], acc: List[Tuple[OpRef, OpRef]]
    ) -> Iterator[Tuple[Tuple[OpRef, OpRef], ...]]:
        if sum(taken) == sum(counts):
            yield tuple(acc)
            return
        for i, seq in enumerate(sequences):
            if taken[i] < counts[i]:
                taken[i] += 1
                acc.append(seq[taken[i] - 1])
                for out in rec(taken, acc):
                    yield out
                acc.pop()
                taken[i] -= 1

    return rec([0] * len(sequences), [])


def _closure(
    num_threads: int,
    thread_lengths: Sequence[int],
    sync_pairs: Sequence[Tuple[OpRef, OpRef]],
) -> Dict[OpRef, FrozenSet[OpRef]]:
    """Happens-before reachability: op -> every op strictly after it."""
    succ: Dict[OpRef, List[OpRef]] = {}
    for thread in range(num_threads):
        for index in range(thread_lengths[thread] - 1):
            succ.setdefault((thread, index), []).append((thread, index + 1))
    for rel, acq in sync_pairs:
        succ.setdefault(rel, []).append(acq)
    reach: Dict[OpRef, FrozenSet[OpRef]] = {}

    def visit(ref: OpRef) -> FrozenSet[OpRef]:
        if ref in reach:
            return reach[ref]
        reach[ref] = frozenset()  # cut (harmless: hb graphs are acyclic)
        out: Set[OpRef] = set()
        for nxt in succ.get(ref, ()):
            out.add(nxt)
            out.update(visit(nxt))
        reach[ref] = frozenset(out)
        return reach[ref]

    for thread in range(num_threads):
        for index in range(thread_lengths[thread]):
            visit((thread, index))
    return reach


def _line_orders(
    per_thread: Sequence[Sequence[WriteRef]],
    reach: Dict[OpRef, FrozenSet[OpRef]],
) -> List[Tuple[WriteRef, ...]]:
    """Linear extensions of one line's writes under happens-before."""
    queues = [list(seq) for seq in per_thread if seq]
    total = sum(len(q) for q in queues)
    out: List[Tuple[WriteRef, ...]] = []

    def rec(acc: List[WriteRef]) -> None:
        if len(acc) == total:
            out.append(tuple(acc))
            return
        for queue in queues:
            if not queue:
                continue
            head = queue[0]
            # head may go next unless some still-pending write is
            # hb-before it (then that write must come first).
            blocked = False
            for other in queues:
                for pending in other:
                    if pending is head:
                        continue
                    if head.ref in reach.get(pending.ref, frozenset()):
                        blocked = True
                        break
                if blocked:
                    break
            if blocked:
                continue
            queue.pop(0)
            acc.append(head)
            rec(acc)
            acc.pop()
            queue.insert(0, head)

    rec([])
    return out


def _witness(
    orders: Sequence[Tuple[int, Tuple[WriteRef, ...]]],
    reach: Dict[OpRef, FrozenSet[OpRef]],
) -> Tuple[WriteRef, ...]:
    """One global persist order embedding coherence + happens-before.

    Returns ``()`` when the union has a cross-line cycle (the candidate
    is unrealizable and is dropped by the caller).
    """
    writes: List[WriteRef] = [w for _, order in orders for w in order]
    succ: Dict[WriteRef, Set[WriteRef]] = {w: set() for w in writes}
    for _, order in orders:
        for a, b in zip(order, order[1:]):
            succ[a].add(b)
    for a in writes:
        reach_a = reach.get(a.ref, frozenset())
        for b in writes:
            if a is not b and b.ref in reach_a:
                succ[a].add(b)
    indeg: Dict[WriteRef, int] = {w: 0 for w in writes}
    for a, outs in succ.items():
        for b in outs:
            indeg[b] += 1
    ready = sorted(
        (w for w, d in indeg.items() if d == 0),
        key=lambda w: (w.thread, w.index),
    )
    order_out: List[WriteRef] = []
    while ready:
        node = ready.pop(0)
        order_out.append(node)
        for b in sorted(succ[node], key=lambda w: (w.thread, w.index)):
            indeg[b] -= 1
            if indeg[b] == 0:
                ready.append(b)
        ready.sort(key=lambda w: (w.thread, w.index))
    if len(order_out) != len(writes):
        return ()
    return tuple(order_out)


def writes_of(test: LitmusTest) -> List[WriteRef]:
    """Every store of the test as a :class:`WriteRef`, program order."""
    out: List[WriteRef] = []
    for thread, index, op in test.stores():
        assert isinstance(op.payload, str)
        out.append(
            WriteRef(
                thread=thread,
                index=index,
                line=op.addr // LINE,
                label=op.payload,
            )
        )
    return out


def enumerate_executions(
    test: LitmusTest,
    max_executions: int = MAX_EXECUTIONS,
) -> ExecutionSet:
    """Enumerate candidate executions of ``test`` (possibly truncated)."""
    thread_lengths = [len(ops) for ops in test.threads]
    writes = writes_of(test)
    per_line_per_thread: Dict[int, List[List[WriteRef]]] = {}
    for write in writes:
        slots = per_line_per_thread.setdefault(
            write.line, [[] for _ in test.threads]
        )
        slots[write.thread].append(write)

    # critical sections per lock, per thread, in program order.
    cs: Dict[int, List[List[Tuple[OpRef, OpRef]]]] = {}
    for thread, ops in enumerate(test.threads):
        open_acq: Dict[int, OpRef] = {}
        for index, op in enumerate(ops):
            if isinstance(op, Acquire):
                open_acq[op.lock] = (thread, index)
            elif isinstance(op, Release):
                acq = open_acq.pop(op.lock)
                cs.setdefault(op.lock, [[] for _ in test.threads])[
                    thread
                ].append((acq, (thread, index)))

    per_lock_orders: List[List[Tuple[Tuple[OpRef, OpRef], ...]]] = []
    truncated = False
    for lock in sorted(cs):
        orders = []
        for order in _interleavings(cs[lock]):
            orders.append(order)
            if len(orders) >= MAX_LOCK_ORDERS:
                truncated = True
                break
        per_lock_orders.append(orders)

    executions: List[Execution] = []
    seen: Set[Tuple[object, ...]] = set()
    # note: product() of zero iterables yields exactly one empty combo.
    for combo in itertools.product(*per_lock_orders):
        sync_pairs: List[Tuple[OpRef, OpRef]] = []
        for order in combo:
            for (_, rel), (acq, _) in zip(order, order[1:]):
                if rel[0] != acq[0]:  # same thread: program order covers it
                    sync_pairs.append((rel, acq))
        reach = _closure(len(test.threads), thread_lengths, sync_pairs)

        line_choices: List[List[Tuple[int, Tuple[WriteRef, ...]]]] = []
        for line in sorted(per_line_per_thread):
            options = _line_orders(per_line_per_thread[line], reach)
            line_choices.append([(line, order) for order in options])

        for pick in itertools.product(*line_choices):
            orders = tuple(pick)
            key = (orders, tuple(sorted(sync_pairs)))
            if key in seen:
                continue
            seen.add(key)
            witness = _witness(orders, reach)
            if orders and not witness:
                continue  # cross-line cycle: unrealizable candidate
            executions.append(
                Execution(
                    coherence=orders,
                    sync_pairs=tuple(sorted(sync_pairs)),
                    witness=witness,
                )
            )
            if len(executions) >= max_executions:
                truncated = True
                break
        if len(executions) >= max_executions:
            break
    return ExecutionSet(executions=tuple(executions), truncated=truncated)


__all__ = [
    "Execution",
    "ExecutionSet",
    "MAX_EXECUTIONS",
    "MAX_LOCK_ORDERS",
    "OpRef",
    "WriteRef",
    "enumerate_executions",
    "writes_of",
]
