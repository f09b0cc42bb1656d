"""The detector pipeline: five static persistency checks.

Every detector is a pure function from an annotated
:class:`~repro.lint.stream.OpStream` (plus the :class:`LintConfig`
thresholds) to findings.  New detectors register with
:func:`register_detector`; the CLI and runner iterate ``DETECTORS`` in
registration order.

The checks, and the bug class each targets:

- ``unfenced-release`` (PL001, error) -- a store published to other
  threads by a ``Release`` with no ``OFence``/``DFence`` between the
  store and the release: the next acquirer can consume data that is not
  persist-ordered before its own persists.
- ``unpersisted-tail`` (PL002, warning) -- dirty stores with no
  ``DFence`` before the thread's stream ends: the "commit" the workload
  reports was never made durable.
- ``redundant-fence`` (PL003, note) -- a fence whose pending persist
  set is empty; pure overhead on fence-priced hardware.
- ``persist-race`` (PL004, error) -- Eraser-style lockset analysis:
  stores to the same cache line from two strands whose lock sets share
  no common lock (and no program-order happens-before).  Single-line
  stores no wider than :data:`ATOMIC_PUBLISH_BYTES` are treated as atomic
  publishes (the standard lock-free PM idiom); a race needs at least one
  wider participant.
- ``epoch-shape`` (PL005, note) -- anti-patterns over each thread's
  chain of epochs: oversized epochs (more dirty lines than a persist
  buffer can hold open) and self-dependency chains (the same line
  re-dirtied in consecutive epochs, defeating coalescing and
  serializing flushes).
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.core.api import (
    CAS,
    Acquire,
    DFence,
    NewStrand,
    OFence,
    Release,
    Store,
)
from repro.lint.model import Finding, LintConfig, Rule, Severity
from repro.lint.stream import AnnotatedOp, OpStream, store_lines

Detector = Callable[[OpStream, LintConfig], Iterator[Finding]]

#: single-line stores up to this size count as atomic publishes: a PL004
#: race needs at least one participant *wider* than this.
ATOMIC_PUBLISH_BYTES = 8
#: distinct dirty lines in a single epoch before PL005 flags it.
MAX_EPOCH_LINES = 24
#: a line stored in this many *consecutive* epochs of one strand is
#: flagged as a self-dependency chain (PL005).  5 clears legitimate short
#: bursts -- e.g. a skip-list predecessor publishing one pointer per
#: level for MAX_LEVEL=4 levels -- while still catching sustained chains.
SELF_DEP_MIN_RUN = 5

RULES: Dict[str, Rule] = {}
DETECTORS: Dict[str, Detector] = {}


def register_detector(rule: Rule, func: Detector) -> Detector:
    """Register a detector under its rule metadata."""
    if rule.detector in DETECTORS:
        raise ValueError(f"detector {rule.detector!r} already registered")
    RULES[rule.detector] = rule
    DETECTORS[rule.detector] = func
    return func


def _finding(
    rule: Rule,
    stream: OpStream,
    aop: AnnotatedOp,
    thread: int,
    message: str,
    line: Optional[int] = None,
    hint: Optional[str] = None,
) -> Finding:
    return Finding(
        rule_id=rule.id,
        detector=rule.detector,
        severity=rule.severity,
        message=message,
        workload=stream.workload,
        thread=thread,
        strand=aop.strand,
        op_index=aop.index,
        line=line,
        fix_hint=hint if hint is not None else rule.hint,
    )


# ---------------------------------------------------------------------------
# PL001 unfenced-release
# ---------------------------------------------------------------------------

_UNFENCED_RELEASE = Rule(
    id="PL001",
    detector="unfenced-release",
    summary="store published by a lock release without persist ordering",
    severity=Severity.ERROR,
    hint="insert an OFence() (or DFence()) between the last store and "
    "the Release so acquirers only see persist-ordered data",
)


def detect_unfenced_release(
    stream: OpStream, config: LintConfig
) -> Iterator[Finding]:
    for thread_stream in stream.threads:
        unfenced: List[AnnotatedOp] = []
        acquire_index: Dict[int, int] = {}
        for aop in thread_stream.ops:
            op = aop.op
            if isinstance(op, Store):
                unfenced.append(aop)
            elif isinstance(op, (OFence, DFence)):
                unfenced.clear()
            elif isinstance(op, Acquire):
                acquire_index[op.lock] = aop.index
            elif isinstance(op, Release):
                start = acquire_index.get(op.lock, -1)
                published = [a for a in unfenced if a.index > start]
                if published:
                    first = published[0]
                    store = first.op
                    assert isinstance(store, Store)
                    yield _finding(
                        _UNFENCED_RELEASE,
                        stream,
                        aop,
                        thread_stream.thread,
                        f"Release({op.lock:#x}) publishes "
                        f"{len(published)} store(s) with no ordering "
                        f"fence since op {first.index} "
                        f"(addr {store.addr:#x})",
                        line=store_lines(store)[0],
                    )


register_detector(_UNFENCED_RELEASE, detect_unfenced_release)


# ---------------------------------------------------------------------------
# PL002 unpersisted-tail
# ---------------------------------------------------------------------------

_UNPERSISTED_TAIL = Rule(
    id="PL002",
    detector="unpersisted-tail",
    summary="dirty stores with no durability fence before workload end",
    severity=Severity.WARNING,
    hint="end the thread program with a DFence() so the final updates "
    "are durable at the reported commit point",
)


def detect_unpersisted_tail(
    stream: OpStream, config: LintConfig
) -> Iterator[Finding]:
    for thread_stream in stream.threads:
        dirty: List[AnnotatedOp] = []
        for aop in thread_stream.ops:
            if isinstance(aop.op, Store):
                dirty.append(aop)
            elif isinstance(aop.op, DFence):
                dirty.clear()
        if dirty:
            last = dirty[-1]
            store = last.op
            assert isinstance(store, Store)
            yield _finding(
                _UNPERSISTED_TAIL,
                stream,
                last,
                thread_stream.thread,
                f"{len(dirty)} store(s) after the last DFence are never "
                f"made durable before the workload ends "
                f"(last: op {last.index}, addr {store.addr:#x})",
                line=store_lines(store)[0],
            )


register_detector(_UNPERSISTED_TAIL, detect_unpersisted_tail)


# ---------------------------------------------------------------------------
# PL003 redundant-fence
# ---------------------------------------------------------------------------

_REDUNDANT_FENCE = Rule(
    id="PL003",
    detector="redundant-fence",
    summary="fence with an empty pending persist set",
    severity=Severity.NOTE,
    hint="drop the fence, or move it after the stores it is meant to "
    "order; fences are priced even when they order nothing",
)


def detect_redundant_fence(
    stream: OpStream, config: LintConfig
) -> Iterator[Finding]:
    for thread_stream in stream.threads:
        stores_since_fence = 0
        stores_since_dfence = 0
        for aop in thread_stream.ops:
            op = aop.op
            if isinstance(op, Store):
                stores_since_fence += 1
                stores_since_dfence += 1
            elif isinstance(op, OFence):
                if stores_since_fence == 0:
                    yield _finding(
                        _REDUNDANT_FENCE,
                        stream,
                        aop,
                        thread_stream.thread,
                        f"OFence at op {aop.index} orders nothing: no "
                        f"store since the previous persist barrier",
                    )
                stores_since_fence = 0
            elif isinstance(op, DFence):
                if stores_since_dfence == 0:
                    yield _finding(
                        _REDUNDANT_FENCE,
                        stream,
                        aop,
                        thread_stream.thread,
                        f"DFence at op {aop.index} drains nothing: no "
                        f"store since the previous durability fence",
                    )
                stores_since_fence = 0
                stores_since_dfence = 0
            elif isinstance(op, NewStrand):
                # a new strand is unordered w.r.t. earlier persists, so
                # the ordering-pending set resets with it.
                stores_since_fence = 0


register_detector(_REDUNDANT_FENCE, detect_redundant_fence)


# ---------------------------------------------------------------------------
# PL004 persist-race
# ---------------------------------------------------------------------------

_PERSIST_RACE = Rule(
    id="PL004",
    detector="persist-race",
    summary="same-line stores from two strands with no common lock",
    severity=Severity.ERROR,
    hint="protect both stores with a common lock (or make every racy "
    "access a single-word atomic publish) so crash recovery sees a "
    "well-defined per-line order",
)


def detect_persist_race(
    stream: OpStream, config: LintConfig
) -> Iterator[Finding]:
    # line -> distinct (thread, lockset, atomic) access shapes, with a
    # representative op for each shape.
    shapes: Dict[
        int, Dict[Tuple[int, FrozenSet[int], bool], AnnotatedOp]
    ] = {}
    for thread_stream in stream.threads:
        for aop in thread_stream.ops:
            op = aop.op
            if not isinstance(op, Store):
                continue
            lines = store_lines(op)
            atomic = (
                op.size <= ATOMIC_PUBLISH_BYTES and len(lines) == 1
            )
            key = (thread_stream.thread, aop.locks_held, atomic)
            for line in lines:
                shapes.setdefault(line, {}).setdefault(key, aop)

    for line in sorted(shapes):
        accesses = list(shapes[line].items())
        reported = False
        for i, ((t_a, locks_a, atomic_a), aop_a) in enumerate(accesses):
            if reported:
                break
            for (t_b, locks_b, atomic_b), aop_b in accesses[i + 1:]:
                if t_a == t_b:
                    continue  # program order is a happens-before
                if locks_a & locks_b:
                    continue  # a common lock serializes the pair
                if atomic_a and atomic_b:
                    continue  # word-sized atomic publishes
                store_a = aop_a.op
                assert isinstance(store_a, Store)
                yield _finding(
                    _PERSIST_RACE,
                    stream,
                    aop_a,
                    t_a,
                    f"line {line:#x} is stored by thread {t_a} "
                    f"(op {aop_a.index}, locks "
                    f"{sorted(locks_a) or 'none'}) and thread {t_b} "
                    f"(op {aop_b.index}, locks "
                    f"{sorted(locks_b) or 'none'}) with no common lock "
                    f"and no happens-before",
                    line=line,
                )
                reported = True
                break


register_detector(_PERSIST_RACE, detect_persist_race)


# ---------------------------------------------------------------------------
# PL005 epoch-shape
# ---------------------------------------------------------------------------

_EPOCH_SHAPE = Rule(
    id="PL005",
    detector="epoch-shape",
    summary="oversized epoch or self-dependency chain",
    severity=Severity.NOTE,
    hint="split oversized epochs with an OFence, and batch re-writes of "
    "a hot line inside one epoch so flushes can coalesce",
)


def detect_epoch_shape(
    stream: OpStream, config: LintConfig
) -> Iterator[Finding]:
    # Each thread's epoch chain: its highest epoch, and the epochs that
    # start a strand (and so have no implicit predecessor).
    max_ts: Dict[int, int] = {}
    strand_starts: Set[Tuple[int, int]] = set()
    #: (thread, epoch_ts) -> dirty line set
    epoch_lines: Dict[Tuple[int, int], Set[int]] = {}
    #: (thread, epoch_ts) -> first store op of the epoch
    epoch_anchor: Dict[Tuple[int, int], AnnotatedOp] = {}
    for thread_stream in stream.threads:
        thread = thread_stream.thread
        prev_strand = 0
        for aop in thread_stream.ops:
            if aop.strand != prev_strand:
                strand_starts.add((thread, aop.epoch_ts))
                max_ts[thread] = max(max_ts.get(thread, 0), aop.epoch_ts)
                prev_strand = aop.strand
            if not isinstance(aop.op, Store):
                continue
            key = (thread, aop.epoch_ts)
            epoch_anchor.setdefault(key, aop)
            lines = epoch_lines.setdefault(key, set())
            lines.update(store_lines(aop.op))
            max_ts[thread] = max(max_ts.get(thread, 0), aop.epoch_ts)

    # (a) oversized epochs.
    for key in sorted(epoch_lines):
        lines = epoch_lines[key]
        if len(lines) > MAX_EPOCH_LINES:
            anchor = epoch_anchor[key]
            yield _finding(
                _EPOCH_SHAPE,
                stream,
                anchor,
                key[0],
                f"epoch {key} dirties {len(lines)} cache lines "
                f"(threshold {MAX_EPOCH_LINES}): a single "
                f"crash window loses all of them and the persist "
                f"buffer cannot hold the epoch open",
                line=min(lines),
            )

    # (b) self-dependency chains, walked along each thread's epoch chain
    # (strand starts break the chain).
    for thread_stream in stream.threads:
        core = thread_stream.thread
        flagged: Set[int] = set()
        run: Dict[int, int] = {}  # line -> run length ending here
        for ts in range(1, max_ts.get(core, 0) + 1):
            lines = epoch_lines.get((core, ts), set())
            chained = ts > 1 and (core, ts) not in strand_starts
            new_run: Dict[int, int] = {}
            for line in lines:
                length = run.get(line, 0) + 1 if chained else 1
                new_run[line] = length
                if (
                    length == SELF_DEP_MIN_RUN
                    and line not in flagged
                ):
                    flagged.add(line)
                    anchor = epoch_anchor[(core, ts)]
                    yield _finding(
                        _EPOCH_SHAPE,
                        stream,
                        anchor,
                        core,
                        f"line {line:#x} is re-dirtied in at least "
                        f"{length} consecutive epochs (ending at epoch "
                        f"{ts} of thread {core}): each epoch's flush "
                        f"of the line is immediately invalidated by "
                        f"the next",
                        line=line,
                    )
            run = new_run


register_detector(_EPOCH_SHAPE, detect_epoch_shape)


# ---------------------------------------------------------------------------
# PL006 cas-publish
# ---------------------------------------------------------------------------

_CAS_PUBLISH = Rule(
    id="PL006",
    detector="cas-publish",
    summary="CAS publishes data that is not persist-ordered before it",
    severity=Severity.ERROR,
    hint="flush the node's lines and fence (OFence or DFence) before "
    "the CAS that links it into the persistent structure",
)


def detect_cas_publish(
    stream: OpStream, config: LintConfig
) -> Iterator[Finding]:
    """A CAS is the lock-free publish point: once the swapped-in pointer
    persists, recovery follows it.  Everything the published node holds
    must therefore be persist-ordered *before* the CAS -- i.e. every
    store to another line since the last fence is a dangling persist the
    CAS may overtake on its way to media."""
    for thread_stream in stream.threads:
        pending: List[AnnotatedOp] = []
        for aop in thread_stream.ops:
            op = aop.op
            if isinstance(op, CAS):
                cas_lines = set(store_lines(op))
                payload = [
                    a
                    for a in pending
                    if not set(store_lines(a.op)).issubset(cas_lines)  # type: ignore[arg-type]
                ]
                if payload:
                    first = payload[0]
                    store = first.op
                    assert isinstance(store, Store)
                    yield _finding(
                        _CAS_PUBLISH,
                        stream,
                        aop,
                        thread_stream.thread,
                        f"CAS({op.addr:#x}) publishes {len(payload)} "
                        f"store(s) with no ordering fence since op "
                        f"{first.index} (addr {store.addr:#x}): "
                        f"recovery can see the new pointer before the "
                        f"node it points to",
                        line=store_lines(op)[0],
                    )
                pending.append(aop)
            elif isinstance(op, Store):
                pending.append(aop)
            elif isinstance(op, (OFence, DFence)):
                pending.clear()
            elif isinstance(op, NewStrand):
                # a CAS cannot order earlier-strand persists at all;
                # cross-strand conflicts are SPA / PL004 territory, so
                # the pending set resets with the strand.
                pending.clear()


register_detector(_CAS_PUBLISH, detect_cas_publish)


# ---------------------------------------------------------------------------
# PL000 unused-suppression (no detector function: the runner emits it
# after the pipeline, once it knows which suppressions matched).
# ---------------------------------------------------------------------------

UNUSED_SUPPRESSION = Rule(
    id="PL000",
    detector="unused-suppression",
    summary="declared lint suppression matched zero findings",
    severity=Severity.NOTE,
    hint="delete the stale lint_suppressions entry (or fix the detector "
    "name) so the suppression list stays an honest record of accepted "
    "findings",
)

RULES[UNUSED_SUPPRESSION.detector] = UNUSED_SUPPRESSION


__all__ = [
    "DETECTORS",
    "Detector",
    "RULES",
    "UNUSED_SUPPRESSION",
    "detect_cas_publish",
    "detect_epoch_shape",
    "detect_persist_race",
    "detect_redundant_fence",
    "detect_unfenced_release",
    "detect_unpersisted_tail",
    "register_detector",
]
