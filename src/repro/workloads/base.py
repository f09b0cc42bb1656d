"""Workload abstractions and persistence idioms.

A :class:`Workload` builds one thread program per simulated core.  The
programs are plain generators of ops (see :mod:`repro.core.api`); the
subclasses in this package implement real data-structure logic whose
*addresses and fences* follow the original implementations.

This module also provides the two persistence idioms the application
classes are built from:

- :func:`pmdk_tx` -- a PMDK-style undo-logging transaction (used by the
  WHISPER PMDK applications, Vacation and Memcached);
- :class:`AtlasSection` -- an ATLAS-style failure-atomic section, where
  every store inside a lock-delimited region is preceded by an undo-log
  append (used by the hand-written heap/queue/skip list).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.core.api import (
    Acquire,
    Compute,
    DFence,
    OFence,
    Op,
    PMAllocator,
    Program,
    Release,
    Store,
)
from repro.core.machine import Machine, RunResult
from repro.sim.config import MachineConfig, RunConfig

LINE = 64


class Workload:
    """Base class for every benchmark in the suite."""

    #: short name used in figures and the registry.
    name: str = "workload"
    #: Table III category ("whisper", "atlas", "concurrent-ds", "micro").
    category: str = "misc"
    #: default operations per thread at scale=1.0.
    default_ops: int = 120
    #: persistency-linter suppressions: detector name -> documented
    #: reason why the finding is by-design for this workload (see
    #: ``docs/lint.md``).  Suppressed findings still appear in verbose
    #: lint reports; they just do not fail the gate.
    lint_suppressions: Dict[str, str] = {}

    def __init__(self, ops_per_thread: Optional[int] = None, seed: int = 7) -> None:
        self.ops_per_thread = ops_per_thread or self.default_ops
        self.seed = seed

    def programs(self, heap: PMAllocator, num_threads: int) -> List[Program]:
        """Build one program per thread.  Subclasses must override."""
        raise NotImplementedError

    def recovery_oracle(self, state) -> List[str]:
        """Adjudicate a post-crash memory image semantically.

        ``state`` is a :class:`repro.core.crash.CrashState` from a run of
        this workload's programs.  Returns human-readable descriptions of
        every application-level invariant the image breaks (empty list =
        recoverable).  The default oracle checks the ordered chains the
        workload tagged via :class:`ChainTagger`; subclasses with richer
        invariants (e.g. transactional atomicity) override or extend it.
        """
        from repro.verify.chains import check_ordered_chains

        return [
            v.describe()
            for v in check_ordered_chains(state.log, state.media)
        ]

    def _rng(self, thread: int) -> random.Random:
        return random.Random((self.seed * 1_000_003 + thread * 97) & 0xFFFFFFFF)


class ChainTagger:
    """Stamps stores with ordered-chain payloads for the crash oracle.

    ``tag()`` returns the payload for the next store of the chain;
    ``fence()`` records that the workload is about to emit an ordering
    point (``OFence``/``DFence``/``Release``) so later stores carry a
    higher sequence number.  The resulting ``("ot", chain, seq)`` tuples
    are inert during simulation (payloads are never interpreted by the
    machine) and are read back by
    :func:`repro.verify.chains.check_ordered_chains`.

    Only bump at ordering points every hardware model honours; see the
    soundness note in :mod:`repro.verify.chains`.
    """

    def __init__(self, chain: str, seq: int = 0) -> None:
        self.chain = chain
        self.seq = seq

    def tag(self) -> tuple:
        return ("ot", self.chain, self.seq)

    def fence(self) -> None:
        self.seq += 1


@dataclass
class WorkloadResult:
    """A workload run under one (hardware, persistency) configuration.

    Results must stay **picklable**: the :mod:`repro.exp` engine ships
    them back from ``ProcessPoolExecutor`` workers and stores them in
    the on-disk result cache.  Everything reachable from here
    (:class:`~repro.core.machine.RunResult`, the stats registry, the
    epoch log) is plain data; keep it that way -- in particular, store
    only plain values as op payloads, never closures or live simulator
    objects.
    """

    workload: str
    result: RunResult

    @property
    def runtime_cycles(self) -> int:
        return self.result.runtime_cycles

    @property
    def stats(self):
        return self.result.stats

    def stats_dict(self) -> Dict[str, int]:
        """All counters, summed over scopes, as a plain dict."""
        return self.result.stats.as_dict()

    def fingerprint(self) -> tuple:
        """Everything that must be identical between a fresh run and a
        cache hit (or a serial and a parallel run) of the same spec."""
        return (
            self.workload,
            self.result.runtime_cycles,
            self.result.drain_cycles,
            self.result.ops_executed,
            tuple(self.result.per_core_runtime),
            tuple(sorted(self.stats_dict().items())),
        )


def run_workload(
    workload: Workload,
    config: MachineConfig,
    run_config: RunConfig,
    num_threads: Optional[int] = None,
    sinks: Optional[List] = None,
) -> WorkloadResult:
    """Assemble a machine and run ``workload`` on it.

    ``sinks`` is an optional list of :class:`repro.obs.EventSink`
    instances; supplying any turns on structured event tracing for the
    run (see :mod:`repro.obs`).  Tracing never alters simulation
    results.
    """
    threads = num_threads or config.num_cores
    heap = PMAllocator()
    programs = workload.programs(heap, threads)
    machine = Machine(config, run_config, sinks=sinks)
    result = machine.run(programs)
    return WorkloadResult(workload=workload.name, result=result)


# ---------------------------------------------------------------------------
# persistence idioms
# ---------------------------------------------------------------------------

def ordered_store(addr: int, size: int = 8, payload: object = None) -> Iterator[Op]:
    """A store followed by an ordering fence (store -> ofence)."""
    yield Store(addr, size, payload)
    yield OFence()


def pmdk_tx(
    log_base: int,
    log_slot: int,
    updates: List[tuple],
    log_entry_bytes: int = 64,
    work_cycles: int = 0,
    chain: Optional[ChainTagger] = None,
) -> Iterator[Op]:
    """A PMDK-style undo-logged transaction.

    For each update ``(addr, size)``: append an undo record (the old value
    plus metadata) to the transaction log, order it, then apply the data
    write.  The transaction commits with a dfence followed by an ordered
    invalidation of the log (PMDK's ``TX_COMMIT``: data must be durable
    before the undo log is dropped).

    ``log_slot`` selects a per-thread region in the log so concurrent
    transactions do not share log lines.

    ``chain`` (optional) tags the tx's stores for the crash oracle: data
    must not be evident without its undo records, nor the log drop
    without the data.
    """
    log_cursor = log_base + log_slot
    for index, (addr, size) in enumerate(updates):
        entry = log_cursor + index * log_entry_bytes
        # undo record: old value + address + length
        yield Store(
            entry,
            min(log_entry_bytes, max(size + 16, 32)),
            chain.tag() if chain else None,
        )
    yield OFence()
    if chain:
        chain.fence()
    if work_cycles:
        # transaction body: the computation that produces the new values
        yield Compute(work_cycles)
    for addr, size in updates:
        yield Store(addr, size, chain.tag() if chain else None)
    yield DFence()
    if chain:
        chain.fence()
    # drop the log (header write marks the tx committed)
    yield Store(log_cursor, 8, chain.tag() if chain else None)
    yield OFence()
    if chain:
        chain.fence()


@dataclass
class AtlasSection:
    """An ATLAS failure-atomic section.

    ATLAS ties failure atomicity to lock scopes: every store inside a
    critical section is preceded by an undo-log append, and log entries
    are ordered before their stores.  The log is per-thread; lock
    acquire/release bound the section.
    """

    lock: int
    log_base: int
    log_entry_bytes: int = 64
    #: entries the log region holds before the cursor wraps; must match
    #: the allocation backing ``log_base`` or appends bleed into
    #: neighbouring allocations (repro-lint PL004 catches this).
    log_entries: int = 32
    #: optional crash-oracle chain: log appends must be evident before
    #: their data stores (ATLAS's undo-before-data contract).
    chain: Optional[ChainTagger] = None
    _cursor: int = 0

    def begin(self) -> Iterator[Op]:
        yield Acquire(self.lock)

    def store(self, addr: int, size: int = 8, payload: object = None) -> Iterator[Op]:
        # ATLAS orders each undo-log append before its data store; the
        # data store itself needs no trailing fence (log entries of later
        # stores are independent of earlier data).
        entry = (
            self.log_base
            + (self._cursor % self.log_entries) * self.log_entry_bytes
        )
        self._cursor += 1
        tagging = self.chain is not None and payload is None
        yield Store(
            entry,
            min(self.log_entry_bytes, max(size + 16, 32)),
            self.chain.tag() if tagging else None,
        )
        yield OFence()
        if self.chain is not None:
            self.chain.fence()
        yield Store(addr, size, self.chain.tag() if tagging else payload)

    def end(self) -> Iterator[Op]:
        yield Release(self.lock)
        if self.chain is not None:
            self.chain.fence()


__all__ = [
    "AtlasSection",
    "ChainTagger",
    "LINE",
    "Workload",
    "WorkloadResult",
    "ordered_store",
    "pmdk_tx",
    "run_workload",
]
