"""Op-stream extraction and annotation for the linter.

The linter never touches the simulator engine: a workload's thread
programs are plain generators of ops, so a *dry expansion* -- pulling
every generator to exhaustion against a fresh allocator -- yields the
exact per-thread op streams the machine would execute.  (Workload state
machines advance as their generators are pulled; no cycle-accurate
machinery is involved.)  A recorded :class:`repro.trace.Trace` can be
linted the same way.

Each op is annotated with everything the detectors need: its index, the
strand it belongs to, the lock set held when it executes, and the epoch
(persist-barrier interval) it falls in.  Epoch numbering matches the
simulator's convention: timestamps start at 1 and both ``OFence`` and
``DFence`` close the current epoch; ``NewStrand`` starts a new strand
whose first epoch has no implicit intra-thread predecessor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Tuple

from repro.core.api import (
    Acquire,
    DFence,
    NewStrand,
    OFence,
    Op,
    PMAllocator,
    Release,
    Store,
)
from repro.lint.model import LintConfig, LintError
from repro.workloads.base import LINE, Workload

#: (first_line, last_line) inclusive cache-line span of a store.
LineSpan = Tuple[int, int]


def store_lines(store: Store, line_bytes: int = LINE) -> List[int]:
    """Cache-line numbers a store dirties."""
    first = store.addr // line_bytes
    last = (store.addr + max(store.size, 1) - 1) // line_bytes
    return list(range(first, last + 1))


@dataclass(frozen=True)
class AnnotatedOp:
    """One op with its static execution context."""

    index: int
    op: Op
    strand: int
    #: per-strand epoch timestamp (starts at 1, bumped by each fence).
    epoch_ts: int
    locks_held: FrozenSet[int]


@dataclass
class ThreadStream:
    """One thread's annotated op stream."""

    thread: int
    ops: List[AnnotatedOp] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.ops)


@dataclass
class OpStream:
    """A workload's full per-thread op streams, ready to lint."""

    workload: str
    threads: List[ThreadStream]
    #: source file of the workload class, for SARIF locations.
    source_file: Optional[str] = None
    source_line: Optional[int] = None

    def num_ops(self) -> int:
        return sum(len(t) for t in self.threads)


def _annotate(thread: int, ops: List[Op]) -> ThreadStream:
    stream = ThreadStream(thread=thread)
    locks: List[int] = []
    strand = 0
    epoch_ts = 1
    for index, op in enumerate(ops):
        if isinstance(op, Acquire):
            locks.append(op.lock)
        stream.ops.append(
            AnnotatedOp(
                index=index,
                op=op,
                strand=strand,
                epoch_ts=epoch_ts,
                locks_held=frozenset(locks),
            )
        )
        if isinstance(op, Release):
            if op.lock in locks:
                locks.remove(op.lock)
        elif isinstance(op, (OFence, DFence)):
            epoch_ts += 1
        elif isinstance(op, NewStrand):
            strand += 1
            epoch_ts += 1
    return stream


def expand_workload(
    workload: Workload,
    config: Optional[LintConfig] = None,
) -> OpStream:
    """Dry-expand a workload's programs into annotated op streams."""
    config = config or LintConfig()
    heap = PMAllocator()
    try:
        programs = workload.programs(heap, config.threads)
    except Exception as exc:
        raise LintError(
            f"workload {workload.name!r} failed to build programs: {exc}"
        ) from exc
    threads: List[ThreadStream] = []
    for thread, program in enumerate(programs):
        ops: List[Op] = []
        for op in program:
            ops.append(op)
            if len(ops) > config.max_ops_per_thread:
                raise LintError(
                    f"workload {workload.name!r} thread {thread} exceeded "
                    f"{config.max_ops_per_thread} ops during dry expansion"
                )
        threads.append(_annotate(thread, ops))
    source_file, source_line = _source_of(workload)
    return OpStream(
        workload=workload.name,
        threads=threads,
        source_file=source_file,
        source_line=source_line,
    )


def stream_from_ops(
    name: str, per_thread_ops: List[List[Op]]
) -> OpStream:
    """Build a lintable stream from raw per-thread op lists (e.g. a
    recorded or loaded :class:`repro.trace.Trace`)."""
    return OpStream(
        workload=name,
        threads=[
            _annotate(thread, list(ops))
            for thread, ops in enumerate(per_thread_ops)
        ],
    )


def _source_of(
    workload: Workload,
) -> Tuple[Optional[str], Optional[int]]:
    import inspect

    try:
        path = inspect.getsourcefile(type(workload))
        _, line = inspect.getsourcelines(type(workload))
    except (OSError, TypeError):
        return None, None
    return path, line


__all__ = [
    "AnnotatedOp",
    "OpStream",
    "ThreadStream",
    "expand_workload",
    "store_lines",
    "stream_from_ops",
]
