"""The persistent-memory programming API.

Workloads are written as *thread programs*: Python generators that yield
:class:`Op` instances.  The simulated core executes each op with realistic
timing, so the generator's own Python-level state (the actual data
structure being exercised) advances in simulated-time order -- a thread
holding a simulated lock really does mutate the shared structure in mutual
exclusion.

The op vocabulary matches the paper's model (Section IV-A):

- ``Store`` / ``Load``   -- accesses to persistent memory.
- ``OFence``             -- orders earlier persists before later ones
  within the thread (HOPS's ``ofence``; maps to clwb+sfence on the
  baseline and to a no-op under eADR).
- ``DFence``             -- additionally guarantees earlier writes are
  durable before the thread continues (transaction commit, "respond to
  client" points).
- ``Acquire``/``Release`` -- synchronization with release-persistency
  annotations (Section V: acquire/release are provided as annotations
  because x86 lacks the ISA support).
- ``Compute``            -- cycles of non-memory work.

Example::

    def writer(api: PMAllocator):
        buf = api.alloc(64)
        def program():
            yield Store(buf, 64)
            yield OFence()
            yield Store(buf + 64, 8)
            yield DFence()
        return program()
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterator, Optional

#: Thread programs are generators of ops.
Program = Iterator["Op"]


@dataclass(frozen=True)
class Op:
    """Base class for everything a thread program can yield."""


@dataclass(frozen=True)
class Store(Op):
    """A store of ``size`` bytes at ``addr`` in persistent memory.

    ``payload`` is an optional opaque logical value recorded against the
    store's write id; the crash-recovery example uses it to show real data
    surviving a crash.  It has no effect on timing.
    """

    addr: int
    size: int = 8
    payload: Any = None


@dataclass(frozen=True)
class CAS(Store):
    """An atomic compare-and-swap publishing ``size`` bytes at ``addr``.

    Timing-wise a CAS behaves exactly like the store it performs (it is
    a :class:`Store` subclass and the machine dispatches it as one);
    the distinct type exists for static analysis: a CAS is how lock-free
    code *publishes* a persistent pointer, so the linter can check that
    everything the published node refers to was flushed and fenced
    before the publish (the PL006 ``cas-publish`` rule).
    """


@dataclass(frozen=True)
class Load(Op):
    """A load of ``size`` bytes at ``addr``."""

    addr: int
    size: int = 8


@dataclass(frozen=True)
class OFence(Op):
    """Ordering fence: prior persists ordered before later persists."""


@dataclass(frozen=True)
class DFence(Op):
    """Durability fence: stall until all prior writes are durable."""


@dataclass(frozen=True)
class Acquire(Op):
    """Acquire a lock; under release persistency this synchronizes-with
    the matching :class:`Release` and establishes a persist dependency."""

    lock: int


@dataclass(frozen=True)
class Release(Op):
    """Release a lock previously acquired by this thread."""

    lock: int


@dataclass(frozen=True)
class Compute(Op):
    """``cycles`` of computation that touches no memory."""

    cycles: int


@dataclass(frozen=True)
class NewStrand(Op):
    """Begin a new *strand* (strand persistency, Pelley et al.).

    Persists in different strands of the same thread are unordered with
    respect to each other; within a strand, ofences order epochs as
    usual.  Conflicting accesses still order across strands (strong
    persist atomicity).  This is the StrandWeaver integration the paper
    sketches in Section VII-E: ASAP exploits strands (independent commit
    chains), while conservative designs simply treat the strand boundary
    as an epoch boundary -- always safe, never faster.
    """


class PMAllocator:
    """A bump allocator over the simulated persistent heap.

    Hands out non-overlapping address ranges; also mints lock ids (locks
    get their own cache lines so lock traffic is distinguishable from data
    traffic).
    """

    def __init__(self, base: int = 0x1000_0000, line_bytes: int = 64) -> None:
        self._next = base
        self._line_bytes = line_bytes
        self._lock_counter = itertools.count()

    def alloc(self, size: int, align: Optional[int] = None) -> int:
        """Allocate ``size`` bytes; returns the base address."""
        if size <= 0:
            raise ValueError("allocation size must be positive")
        align = align or min(self._line_bytes, _pow2_at_least(size))
        self._next = _round_up(self._next, align)
        addr = self._next
        self._next += size
        return addr

    def alloc_lines(self, num_lines: int) -> int:
        """Allocate whole cache lines (line-aligned)."""
        return self.alloc(num_lines * self._line_bytes, align=self._line_bytes)

    def alloc_lock(self) -> int:
        """Allocate a lock variable on its own cache line."""
        return self.alloc(self._line_bytes, align=self._line_bytes)

    @property
    def bytes_allocated(self) -> int:
        return self._next - 0x1000_0000


def _round_up(value: int, align: int) -> int:
    return (value + align - 1) // align * align


def _pow2_at_least(value: int) -> int:
    power = 1
    while power < value and power < 64:
        power *= 2
    return power


__all__ = [
    "Acquire",
    "CAS",
    "Compute",
    "DFence",
    "Load",
    "NewStrand",
    "OFence",
    "Op",
    "PMAllocator",
    "Program",
    "Release",
    "Store",
]
