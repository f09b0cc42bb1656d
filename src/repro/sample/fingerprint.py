"""Interval fingerprints: feature vectors over the dry-expanded op stream.

The workload generators are expanded *without simulation* -- ops are
drawn round-robin across threads, which reproduces a deterministic
approximation of the real interleaving for workloads whose generators
share mutable state.  Every thread's op number ``n`` belongs to interval
``n // INTERVAL_OPS`` (aligned cuts), and each interval is summarized by
one vector of persistence-relevant features.  The vectors only steer
*clustering*; their absolute scale is normalized away in
:mod:`repro.sample.phases`, so approximate features cost accuracy, not
correctness -- the golden gate measures the resulting error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.core.api import (
    Acquire,
    Compute,
    DFence,
    Load,
    OFence,
    PMAllocator,
    Release,
    Store,
)
from repro.mem.interleave import CACHE_LINE_BYTES
from repro.workloads.registry import get_workload

#: ops of each thread per interval -- the unit every sampling window is
#: cut in (:mod:`repro.sample.pipeline`).
INTERVAL_OPS = 75

#: the per-interval feature vector, in order.
FEATURE_NAMES = (
    "store_frac",      # stores / ops
    "load_frac",       # loads / ops
    "compute_frac",    # compute ops / ops
    "fence_frac",      # (ofences + dfences) / ops
    "lock_frac",       # (acquires + releases) / ops
    "dfence_mix",      # dfences / fences (epoch-closing strength)
    "epoch_len",       # mean stores per fence-delimited epoch
    "line_reuse",      # 1 - distinct store lines / stores
    "footprint",       # distinct store lines / ops
    "novelty",         # first-touch lines (never seen before) / ops --
                       # separates the cold-start transient (compulsory
                       # misses) from steady-state phases; without it the
                       # representatives all land in the steady state and
                       # miss-class statistics extrapolate to ~zero.
)


@dataclass
class IntervalSet:
    """Dry-expansion result: per-interval features + per-thread op counts."""

    #: one feature vector (len == len(FEATURE_NAMES)) per interval.
    vectors: List[List[float]]
    #: total ops each thread's generator yields.
    thread_ops: List[int]

    @property
    def num_intervals(self) -> int:
        return len(self.vectors)

    @property
    def total_ops(self) -> int:
        return sum(self.thread_ops)


class _IntervalAccum:
    __slots__ = (
        "ops", "stores", "loads", "computes", "ofences", "dfences",
        "locks", "lines", "epoch_stores", "epochs", "new_lines",
    )

    def __init__(self) -> None:
        self.ops = 0
        self.stores = 0
        self.loads = 0
        self.computes = 0
        self.ofences = 0
        self.dfences = 0
        self.locks = 0
        self.lines: Set[int] = set()
        #: stores since the last fence, summed at each fence.
        self.epoch_stores = 0
        self.epochs = 0
        #: lines first touched (by load or store) in this interval.
        self.new_lines = 0

    def vector(self) -> List[float]:
        ops = max(1, self.ops)
        stores = max(1, self.stores)
        fences = self.ofences + self.dfences
        return [
            self.stores / ops,
            self.loads / ops,
            self.computes / ops,
            fences / ops,
            self.locks / ops,
            self.dfences / max(1, fences),
            self.epoch_stores / max(1, self.epochs),
            1.0 - len(self.lines) / stores if self.stores else 0.0,
            len(self.lines) / ops,
            self.new_lines / ops,
        ]


def fingerprint_intervals(
    workload: str,
    ops_per_thread: Optional[int] = None,
    num_threads: int = 4,
    seed: int = 7,
) -> IntervalSet:
    """Dry-expand ``workload`` and fingerprint its intervals."""
    programs = get_workload(
        workload, ops_per_thread=ops_per_thread, seed=seed
    ).programs(PMAllocator(), num_threads)
    accums: Dict[int, _IntervalAccum] = {}
    seen_lines: Set[int] = set()
    pending_stores: Dict[int, int] = {t: 0 for t in range(len(programs))}
    counts = [0] * len(programs)
    alive = list(range(len(programs)))
    while alive:
        still_alive = []
        for thread in alive:
            try:
                op = next(programs[thread])
            except StopIteration:
                continue
            still_alive.append(thread)
            index = counts[thread] // INTERVAL_OPS
            counts[thread] += 1
            accum = accums.get(index)
            if accum is None:
                accum = accums[index] = _IntervalAccum()
            accum.ops += 1
            if isinstance(op, (Store, Load)):
                base = op.addr // CACHE_LINE_BYTES
                span = max(1, (op.addr % CACHE_LINE_BYTES + op.size
                               + CACHE_LINE_BYTES - 1) // CACHE_LINE_BYTES)
                for i in range(span):
                    line = base + i
                    if line not in seen_lines:
                        seen_lines.add(line)
                        accum.new_lines += 1
                if isinstance(op, Store):
                    accum.stores += 1
                    pending_stores[thread] += 1
                    for i in range(span):
                        accum.lines.add(base + i)
                else:
                    accum.loads += 1
            elif isinstance(op, Compute):
                accum.computes += 1
            elif isinstance(op, OFence):
                accum.ofences += 1
                accum.epoch_stores += pending_stores[thread]
                accum.epochs += 1
                pending_stores[thread] = 0
            elif isinstance(op, DFence):
                accum.dfences += 1
                accum.epoch_stores += pending_stores[thread]
                accum.epochs += 1
                pending_stores[thread] = 0
            elif isinstance(op, (Acquire, Release)):
                accum.locks += 1
        alive = still_alive
    num_intervals = max(accums) + 1 if accums else 0
    vectors = [
        accums[i].vector() if i in accums else [0.0] * len(FEATURE_NAMES)
        for i in range(num_intervals)
    ]
    return IntervalSet(vectors=vectors, thread_ops=counts)


__all__ = [
    "FEATURE_NAMES",
    "INTERVAL_OPS",
    "IntervalSet",
    "fingerprint_intervals",
]
