"""A deliberately buggy lint fixture: one true positive per detector.

``buggy_demo`` is **not** part of the stock suite (``repro lint --all``
never gates on it); it exists so every ``repro.lint`` detector has a
deterministic true positive to regression-test against, and so
``docs/lint.md`` has a concrete workload to point at.  Thread 0 carries
the single-thread bugs, thread 1 supplies the racing partner for PL004,
and any further threads run a clean fenced loop.

The seeded bugs, in stream order:

- **PL001 unfenced-release** -- thread 0 publishes a 16-byte store with
  a lock release and no fence in between.
- **PL004 persist-race** -- thread 1 stores the same 16-byte record
  under a *different* lock: disjoint locksets, no happens-before.
- **PL003 redundant-fence** -- a doubled ``OFence`` and a doubled
  ``DFence``, each second fence ordering/draining nothing.
- **PL005 epoch-shape** -- a hot line re-dirtied in six consecutive
  epochs (self-dependency chain) and a single epoch dirtying 30 lines
  (oversized).
- **PL002 unpersisted-tail** -- thread 0 ends (after a ``NewStrand``,
  for strand coverage) with dirty stores and no ``DFence``.
- **PL006 cas-publish** -- thread 1 initializes a 16-byte node and
  immediately ``CAS``-publishes it into a persistent list head with no
  fence in between: recovery can follow the new pointer to an
  unpersisted node.

The fixture also seeds a **crash-oracle true positive** for
:mod:`repro.crashtest`: thread 0 tags its stores with one ordered chain
(see :class:`repro.workloads.base.ChainTagger`) that keeps counting
**across the NewStrand** -- asserting the tail store is ordered after
the big epoch, an ordering strand persistency never promises.  Designs
that exploit the strand relaxation (ASAP commits the post-strand tail
epoch independently of the still-in-flight 30-line epoch) can crash
with the tail evident while the big epoch's writes are lost: the
semantic oracle fires while the generic Theorem-2 checker stays clean
(the strand start drops the dependency edge, so no DAG ancestry is
violated).  That split -- app-level violation, hardware-level legal --
is exactly what the per-workload oracle exists to catch.
"""

from __future__ import annotations

from typing import List

from repro.core.api import (
    CAS,
    Acquire,
    Compute,
    DFence,
    NewStrand,
    OFence,
    PMAllocator,
    Program,
    Release,
    Store,
)
from repro.workloads.base import LINE, ChainTagger, Workload


class BuggyDemo(Workload):
    """Lint fixture seeding one true positive per detector."""

    name = "buggy_demo"
    category = "fixture"
    default_ops = 1

    #: lines in the deliberately oversized epoch (> the lint threshold
    #: ``repro.lint.detectors.MAX_EPOCH_LINES`` of 24).
    OVERSIZED_LINES = 30
    #: consecutive epochs re-dirtying the hot line (>= the lint threshold
    #: ``repro.lint.detectors.SELF_DEP_MIN_RUN`` of 5).
    HOT_EPOCHS = 6

    def programs(self, heap: PMAllocator, num_threads: int) -> List[Program]:
        lock_a = heap.alloc_lock()
        lock_b = heap.alloc_lock()
        shared = heap.alloc_lines(1)   # raced 16-byte record
        scratch = heap.alloc_lines(1)
        hot = heap.alloc_lines(1)      # self-dependency chain target
        big = heap.alloc_lines(self.OVERSIZED_LINES)
        tail = heap.alloc_lines(1)     # never drained
        node = heap.alloc_lines(1)     # lock-free node, CAS-published
        head = heap.alloc_lines(1)     # persistent list head
        clean = heap.alloc_lines(max(1, num_threads))

        def buggy_writer() -> Program:
            # The crash-oracle bug: this chain keeps counting across the
            # NewStrand below, claiming tail-after-big ordering that
            # strand persistency never provides.  Do NOT imitate; sound
            # chains reset (or stop) at strand boundaries.
            chain = ChainTagger("buggy/t0")
            # PL001: store published by the release, no fence between.
            yield Acquire(lock_a)
            yield Store(shared, 16)
            yield Release(lock_a)
            yield OFence()
            # PL003: orders nothing (no store since the fence above).
            yield OFence()
            yield Store(scratch, 8)
            yield DFence()
            # PL003: drains nothing (no store since the dfence above).
            yield DFence()
            # PL005 (self-dependency): the hot line in every epoch.
            for _ in range(self.HOT_EPOCHS):
                yield Store(hot, 8, chain.tag())
                yield OFence()
                chain.fence()
            # PL005 (oversized): one epoch dirtying OVERSIZED_LINES.
            for index in range(self.OVERSIZED_LINES):
                yield Store(big + index * LINE, 8, chain.tag())
            yield OFence()
            chain.fence()
            # PL002: dirty stores on a fresh strand, never drained.
            yield NewStrand()
            yield Store(tail, 8, chain.tag())

        def racing_writer() -> Program:
            # PL004: same 16-byte record as thread 0, different lock.
            yield Acquire(lock_b)
            yield Store(shared, 16)
            yield OFence()
            yield Release(lock_b)
            yield DFence()
            # PL006: the node is initialized and CAS-linked into the
            # persistent head with no fence between -- the pointer can
            # persist before the node it points to.
            yield Store(node, 16)
            yield CAS(head, 8)
            yield DFence()

        def clean_worker(thread: int) -> Program:
            yield Compute(10)
            yield Store(clean + thread * LINE, 8)
            yield OFence()
            yield DFence()

        programs: List[Program] = []
        for thread in range(num_threads):
            if thread == 0:
                programs.append(buggy_writer())
            elif thread == 1:
                programs.append(racing_writer())
            else:
                programs.append(clean_worker(thread))
        return programs


__all__ = ["BuggyDemo"]
