"""The simulated machine: cores, caches, persistence paths, controllers.

:class:`Machine` assembles a full system for one hardware model and one
persistency model, runs a set of thread programs (generators of
:mod:`repro.core.api` ops), and produces a :class:`RunResult` with the
execution time, the statistics registry, and the semantic
:class:`~repro.core.epoch.EpochLog` that the crash-consistency checker
consumes.

The machine is also where the two persistency models differ
(Section IV-A):

- **epoch persistency**: every private-cache miss that hits a line whose
  last writer is another core with an uncommitted epoch establishes a
  cross-thread dependency (strong persist atomicity), and lock transfers
  do too;
- **release persistency**: only lock transfers (acquire synchronizing
  with a release) establish dependencies.

Dependence establishment follows Section IV-E: the *source* thread closed
its epoch at the release (or is closed by the coherence request), the
*dependent* thread opens a new epoch carrying the dependency, and the
pair is recorded in the epoch log as a DAG edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, Dict, Iterable, List, Optional

from repro.obs.events import EventType
from repro.obs.tracer import Tracer
from repro.sim.config import (
    HardwareModel,
    MachineConfig,
    PersistencyModel,
    RunConfig,
)
from repro.sim.engine import CPU_FREQ_GHZ, Engine, ns_to_cycles, weak_method
from repro.sim.stats import StatsRegistry
from repro.mem.controller import (
    CommitMessage,
    FlushPacket,
    FlushResponse,
    MemoryController,
    ResponseKind,
)
from repro.mem.interleave import AddressMap
from repro.coherence.bloom import CountingBloomFilter
from repro.coherence.cache import Cache, CacheHierarchy
from repro.coherence.mesi import MESIDirectory, OwnerInfo
from repro.coherence.wbb import WriteBackBuffer
from repro.core.api import (
    CAS,
    Acquire,
    Compute,
    DFence,
    Load,
    NewStrand,
    OFence,
    Op,
    Program,
    Release,
    Store,
)
from repro.core.epoch import EpochId, EpochLog
from repro.core.epoch_table import GlobalTSRegister
from repro.core.persist_buffer import PBEntry
from repro.core.models import (
    ASAPNoUndoPath,
    ASAPPath,
    BaselinePath,
    EADRPath,
    HOPSPath,
    PersistencePath,
    Transport,
    VorpalPath,
)
from repro.core.recovery_table import RecoveryTable
from repro.core.vorpal import VorpalCoordinator

class _PauseSentinel:
    """Singleton a program may yield instead of an op to park its core.

    The sampling pipeline's skip-wrappers yield it at measurement-window
    boundaries: the wrapper knows exactly where a window ends (it tracks
    lock depth and fast-forward position op by op), so letting it signal
    the pause is race-free where a precomputed executed-op target would
    not be -- the wrapper's dynamic lock deferral can legally shift
    window edges after such a target was computed.  A pause does not
    count as a retired op.  The engine stops once every core is parked
    or finished; :meth:`Machine.continue_to_pause` resumes the core
    after the op that preceded the sentinel."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "PAUSE"


PAUSE = _PauseSentinel()


#: Fixed issue cost of a store (latency is hidden by the OoO core; what
#: is *not* hidden -- persist-buffer back-pressure -- is modelled).
STORE_ISSUE_CYCLES = 1
#: Fixed cost of an ofence/dfence instruction itself (stalls are extra).
FENCE_ISSUE_CYCLES = 2


@dataclass
class _Lock:
    holder: Optional[int] = None
    waiters: List["_CoreUnit"] = field(default_factory=list)
    #: (core, epoch ts) of the most recent release, for dependence checks.
    last_release: Optional[EpochId] = None


class _CoreUnit:
    """Drives one thread program through the event engine.

    The machine owns its cores, so a core reaches the machine only
    through weak hooks (:func:`~repro.sim.engine.weak_method`)."""

    __slots__ = ("index", "program", "finished", "finish_time",
                 "ops_executed", "parked", "park_time", "_engine", "_path",
                 "_tracer", "_dispatch", "_park", "ofence_counter",
                 "dfence_counter")

    def __init__(self, machine: "Machine", index: int, program: Program) -> None:
        self.index = index
        self.program = program
        self.finished = False
        self.finish_time: Optional[int] = None
        self.ops_executed = 0
        #: set while the core sits on a :data:`PAUSE`.
        self.parked = False
        #: cycle at which the core last parked (straggler-skew-free
        #: window timing for the sampling pipeline).
        self.park_time: Optional[int] = None
        # Snapshot the hot collaborators: cores are built after the
        # machine is assembled, so `advance` pays one local load instead of
        # two attribute chains per retired op.
        self._engine = machine.engine
        self._path = machine.paths[index]
        self._tracer = machine.tracer
        self._dispatch = weak_method(machine.dispatch)
        self._park = weak_method(machine._park)
        #: per-core fence counters, bound on first fence (see Machine).
        self.ofence_counter = None
        self.dfence_counter = None

    def start(self) -> None:
        self._engine.schedule(0, self.advance)

    def advance(self) -> None:
        try:
            op = next(self.program)
        except StopIteration:
            self._end()
            return
        if op is PAUSE:
            self._park(self)
            return
        self.ops_executed += 1
        tracer = self._tracer
        if tracer is not None:
            tracer.emit(
                EventType.OP_RETIRED, "core", core=self.index,
                kind=Machine._op_names.get(type(op)),
            )
        self._dispatch(self, op)

    def _end(self) -> None:
        engine = self._engine

        def done() -> None:
            self.finished = True
            self.finish_time = engine.now

        self._path.on_program_end(done)


@dataclass
class RunResult:
    """Everything a run produced."""

    #: cycle at which the last core retired its last instruction.
    runtime_cycles: int
    #: cycle at which the last background flush drained.
    drain_cycles: int
    stats: StatsRegistry
    log: EpochLog
    config: RunConfig
    per_core_runtime: List[int] = field(default_factory=list)
    ops_executed: int = 0

    @property
    def runtime_ns(self) -> float:
        return self.runtime_cycles / CPU_FREQ_GHZ

    def table_vi(self) -> Dict[str, int]:
        return self.stats.table_vi()


class Machine:
    """A full simulated system for one (hardware, persistency) pair.

    The machine owns every component, and no component holds it (or
    anything that owns the component) strongly: a hook that calls back
    upward goes through :func:`~repro.sim.engine.weak_method`, a
    downward one captures the collaborators it uses, and the op table
    is the class's.  Only pending work -- events queued on the engine,
    continuations a stalled component holds -- refers to the machine, so
    once a run drains, reference counting frees the machine with its
    caches, directory, controllers and recovery tables the moment its
    caller drops it.
    """

    def __init__(
        self,
        config: MachineConfig,
        run_config: Optional[RunConfig] = None,
        sinks: Optional[Iterable[object]] = None,
        journal: Optional[List[tuple]] = None,
    ) -> None:
        self.config = config
        self.run_config = run_config or RunConfig()
        self.engine = Engine()
        #: Observability tracer (None unless event sinks were supplied;
        #: every emission site guards on ``tracer is not None`` so the
        #: untraced fast path stays a single attribute check).
        sinks = list(sinks) if sinks is not None else []
        self.tracer: Optional[Tracer] = (
            Tracer(self.engine, sinks) if sinks else None
        )
        #: crash journal (:func:`repro.core.crash.record_run`): every
        #: change a crash image reads, as ``(cycle, kind, *args)``; None
        #: on every other run.
        self.journal = journal
        self.stats = StatsRegistry()
        self.amap = AddressMap(
            config.num_mcs, config.interleave_bytes, config.l1.line_bytes
        )
        self.log = EpochLog()
        self.directory = MESIDirectory(config.num_cores, self.stats)
        self._next_write_id = 1
        self._locks: Dict[int, _Lock] = {}
        self._noc_cycles = ns_to_cycles(config.noc_latency_ns)
        self._flush_transit_cycles = ns_to_cycles(config.pb_flush_ns)
        if self.run_config.hardware is HardwareModel.BASELINE:
            self._flush_transit_cycles += ns_to_cycles(config.clwb_extra_ns)
        self._coherence_extra = ns_to_cycles(config.coherence_extra_ns)
        self._lock_cycles = ns_to_cycles(config.lock_access_ns)
        self._mem_read_cycles = ns_to_cycles(config.nvm.read_latency_ns)
        #: indices of parked cores, in parking order -- resuming them in
        #: this order keeps a paused run deterministic.
        self._parked_order: List[int] = []

        hardware = self.run_config.hardware
        self.vorpal = (
            VorpalCoordinator(
                self.engine,
                config.num_cores,
                self.stats,
                config.vorpal_broadcast_cycles,
            )
            if hardware is HardwareModel.VORPAL
            else None
        )
        self._build_controllers(hardware)
        self._build_paths(hardware)
        self._build_caches()
        self.cores: List[_CoreUnit] = []

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------

    def _build_controllers(self, hardware: HardwareModel) -> None:
        self.mcs: List[MemoryController] = []
        self.recovery_tables: List[Optional[RecoveryTable]] = []
        needs_rt = hardware is HardwareModel.ASAP
        for index in range(self.config.num_mcs):
            rt = (
                RecoveryTable(
                    self.engine,
                    self.config.rt_entries,
                    self.stats,
                    scope=f"mc{index}",
                    mc=index,
                    tracer=self.tracer,
                    journal=self.journal,
                )
                if needs_rt
                else None
            )
            bloom = (
                CountingBloomFilter(self.config.bloom_bits, self.config.bloom_hashes)
                if needs_rt
                else None
            )
            mc = MemoryController(
                self.engine,
                self.config,
                self.stats,
                index,
                recovery_table=rt,
                bloom_filter=bloom,
                tracer=self.tracer,
                journal=self.journal,
            )
            mc.respond = weak_method(self._route_response)
            mc.vorpal = self.vorpal
            self.mcs.append(mc)
            self.recovery_tables.append(rt)

    def _build_paths(self, hardware: HardwareModel) -> None:
        self.paths: List[PersistencePath] = []
        self.global_ts = GlobalTSRegister(
            self.stats, self.engine, self.config.hops_poll_access_cycles
        )
        tracer = self.tracer
        journal = self.journal
        for core in range(self.config.num_cores):
            transport = Transport(
                flush=weak_method(self._send_flush, core),
                commit=weak_method(self._send_commit),
                cdr=weak_method(self._send_cdr),
                mc_of=self.amap.mc_of_line,
            )
            if hardware is HardwareModel.BASELINE:
                path: PersistencePath = BaselinePath(
                    self.engine, self.config, self.stats, core, transport,
                    tracer=tracer,
                )
            elif hardware is HardwareModel.HOPS:
                path = HOPSPath(
                    self.engine, self.config, self.stats, core, transport,
                    self.global_ts, tracer=tracer, journal=journal,
                )
            elif hardware is HardwareModel.ASAP:
                path = ASAPPath(
                    self.engine, self.config, self.stats, core, transport,
                    tracer=tracer, journal=journal,
                )
            elif hardware is HardwareModel.ASAP_NO_UNDO:
                path = ASAPNoUndoPath(
                    self.engine, self.config, self.stats, core, transport,
                    tracer=tracer, journal=journal,
                )
            elif hardware is HardwareModel.VORPAL:
                path = VorpalPath(
                    self.engine, self.config, self.stats, core, transport,
                    self.vorpal, tracer=tracer, journal=journal,
                )
            elif hardware is HardwareModel.EADR:
                path = EADRPath(
                    self.engine, self.config, self.stats, core, tracer=tracer
                )
            else:
                raise ValueError(f"unknown hardware model: {hardware}")
            self.paths.append(path)

    def _build_caches(self) -> None:
        self.llc = Cache(self.config.llc, self.stats, scope="llc")
        self.hierarchies: List[CacheHierarchy] = []
        self.wbbs: List[WriteBackBuffer] = []
        for core in range(self.config.num_cores):
            scope = f"core{core}"
            wbb = WriteBackBuffer(
                self.config.wbb_entries, self.stats, scope, core=core,
                tracer=self.tracer,
            )
            self.wbbs.append(wbb)
            hierarchy = CacheHierarchy(
                l1=Cache(self.config.l1, self.stats, scope=f"{scope}.l1"),
                l2=Cache(self.config.l2, self.stats, scope=f"{scope}.l2"),
                llc=self.llc,
                memory_latency=weak_method(self._demand_read_latency),
                on_private_eviction=self._make_private_eviction(core),
                on_llc_eviction=weak_method(self._llc_eviction),
            )
            self.hierarchies.append(hierarchy)
            path = self.paths[core]
            if path.has_persist_buffer:
                path.pb.on_head_advance = self._make_head_advance(core)

    def _demand_read_latency(self, line: int) -> int:
        self.stats.inc("pm_demand_reads")
        return self._mem_read_cycles

    # The two hooks below capture the collaborators they use, never the
    # machine.

    def _make_private_eviction(self, core: int) -> Callable[[int, bool], None]:
        directory = self.directory
        path = self.paths[core]
        wbb = self.wbbs[core]

        def on_evict(line: int, dirty: bool) -> None:
            # The core's copy leaves the private caches: drop its MESI
            # state so the next access issues a real directory request.
            directory.evict(core, line)
            # Section V-F: an eviction of a line whose writes are still in
            # the persist buffer is held in the write-back buffer.
            if dirty and path.has_persist_buffer and path.pb.contains_line(line):
                seqs = [e.seq for e in path.pb.entries if e.line == line]
                wbb.hold(line, max(seqs))

        return on_evict

    def _make_head_advance(self, core: int) -> Callable[[int], None]:
        wbb = self.wbbs[core]
        stats = self.stats

        def on_advance(oldest_seq: int) -> None:
            released = wbb.release_upto(oldest_seq - 1)
            if released:
                stats.inc("wbb_released", len(released), scope=f"core{core}")

        return on_advance

    def _llc_eviction(self, line: int, dirty: bool) -> None:
        # PM lines are dropped on LLC eviction (the persist path owns
        # durability).  If the line has a NACKed flush pending, the bloom
        # filter at its controller delays the eviction (Section V-F).
        mc = self.mcs[self.amap.mc_of_line(line)]
        if mc.bloom_filter is not None and line in mc.bloom_filter:
            self.stats.inc("llc_evictions_delayed")

    # ------------------------------------------------------------------
    # interconnect
    # ------------------------------------------------------------------

    def _send_flush(self, core: int, entry: PBEntry) -> None:
        packet = FlushPacket(
            line=entry.line,
            write_id=entry.write_id,
            core=core,
            epoch_ts=entry.epoch_ts,
            early=entry.issued_early,
            entry=entry,
        )
        mc = self.mcs[self.amap.mc_of_line(entry.line)]
        # Table II: flush = 60 ns -- the PB -> MC transit of the packet.
        self.engine.schedule(
            self._flush_transit_cycles, lambda: mc.receive_flush(packet)
        )

    def _route_response(self, response: FlushResponse) -> None:
        packet = response.packet
        entry = packet.entry
        pb = self.paths[packet.core].pb

        def deliver() -> None:
            if response.kind is ResponseKind.ACK:
                pb.handle_ack(entry)
            else:
                pb.handle_nack(entry)

        self.engine.schedule(self._noc_cycles, deliver)

    def _send_commit(
        self, mc_index: int, core: int, epoch_ts: int, on_ack: Callable[[], None]
    ) -> None:
        mc = self.mcs[mc_index]
        message = CommitMessage(
            core=core,
            epoch_ts=epoch_ts,
            on_ack=lambda: self.engine.schedule(self._noc_cycles, on_ack),
        )
        self.engine.schedule(self._noc_cycles, lambda: mc.receive_commit(message))

    def _send_cdr(self, dependent: EpochId) -> None:
        core, ts = dependent
        path = self.paths[core]
        self.engine.schedule(
            self._noc_cycles, lambda: path.et.resolve_dep(ts)
        )

    # ------------------------------------------------------------------
    # cross-thread dependencies (Section IV-E)
    # ------------------------------------------------------------------

    def _establish_dep(self, source: EpochId, dependent_core: int) -> None:
        """Record + enforce: dependent's *new* epoch follows ``source``."""
        src_core, src_ts = source
        src_path = self.paths[src_core]
        dst_path = self.paths[dependent_core]
        if not (src_path.tracks_dependencies and dst_path.tracks_dependencies):
            return
        if not src_path.epoch_uncommitted(src_ts):
            return
        new_ts = dst_path.split_epoch()
        dst_path.set_dep(source)
        registered = src_path.register_dependent(src_ts, (dependent_core, new_ts))
        assert registered, "source committed within the same event"
        self.log.record_dep(source, (dependent_core, new_ts))
        if self.journal is not None:
            self.journal.append(
                (self.engine.now, "dep", source, (dependent_core, new_ts))
            )
        self.stats.inc("interTEpochConflict")
        if self.tracer is not None:
            self.tracer.emit(
                EventType.DEP_ESTABLISHED, "core", core=dependent_core,
                epoch=new_ts, value=src_core,
            )

    def _maybe_cross_strand_dep(self, core: int, line: int) -> None:
        """Strong persist atomicity *within* a thread, across strands.

        Strand persistency leaves different strands unordered -- except
        for conflicting accesses.  When a thread writes a line it last
        wrote in a *different, still uncommitted* strand, the new strand's
        epoch must be ordered after the old one (StrandWeaver resolves
        this in hardware; we reuse the cross-thread dependence machinery,
        which works unchanged for the same-core case)."""
        owner = self.directory.owner_of(line)
        if owner is None or owner.core != core:
            return
        path = self.paths[core]
        if not path.tracks_dependencies:
            return
        owner_strand = path.strand_of(owner.epoch_ts)
        if owner_strand is None:  # committed: no ordering needed
            return
        if owner_strand == path.strand_of(path.current_ts):
            return
        if not path.epoch_uncommitted(owner.epoch_ts):
            return
        self._establish_dep((core, owner.epoch_ts), core)
        self.stats.inc("cross_strand_conflicts", scope=f"core{core}")

    def _coherence_charge(self, transition) -> int:
        """Latency of a coherence transaction beyond the cache lookups.

        A transfer out of another core's M/E copy costs the full
        cache-to-cache latency; an invalidation-only upgrade (S -> M)
        needs no data movement and costs about half."""
        if transition.cache_to_cache:
            return self._coherence_extra
        if transition.invalidated or transition.downgraded:
            return self._coherence_extra // 2
        return 0

    def _dep_from_source(self, core: int, source: OwnerInfo) -> None:
        """Epoch-persistency conflict handling for a coherence request
        that reached another core's write."""
        if self.run_config.persistency is PersistencyModel.EPOCH:
            # The source thread replies with its epoch and starts a new
            # one; the requester starts a new epoch that depends on it.
            # New epochs on both sides keep the epoch dependency graph
            # acyclic (Lemma 0.1).
            src_path = self.paths[source.core]
            if src_path.tracks_dependencies and src_path.epoch_uncommitted(
                source.epoch_ts
            ):
                src_path.split_epoch()
                self._establish_dep((source.core, source.epoch_ts), core)
        else:
            # Under release persistency regular coherence requests carry no
            # dependence information: a conflicting access to another
            # thread's *uncommitted* write that was not ordered by an
            # acquire/release is a data race, which the paper's contract
            # excludes ("ASAP requires race-free code", Section IV-E).
            # Count it so workloads can assert they are race-free.
            src_path = self.paths[source.core]
            if src_path.tracks_dependencies and src_path.epoch_uncommitted(
                source.epoch_ts
            ):
                self.stats.inc("rp_unsynchronized_conflicts")

    # ------------------------------------------------------------------
    # op dispatch
    # ------------------------------------------------------------------

    def dispatch(self, core: _CoreUnit, op: Op) -> None:
        """Run the handler of ``op``'s exact type; a type without an
        entry, an op subclass included, is a ``TypeError``."""
        try:
            handler = self._op_handlers[type(op)]
        except KeyError:
            raise TypeError(f"unknown op: {op!r}") from None
        handler(self, core, op)

    def _do_compute(self, core: _CoreUnit, op: Compute) -> None:
        self.engine.schedule(max(1, op.cycles), core.advance)

    def _do_ofence(self, core: _CoreUnit, op: OFence) -> None:
        counter = core.ofence_counter
        if counter is None:
            counter = core.ofence_counter = self.stats.counter(
                "ofences", scope=f"core{core.index}"
            )
        counter.inc()
        self.paths[core.index].on_ofence(
            lambda: self.engine.schedule(FENCE_ISSUE_CYCLES, core.advance)
        )

    def _do_dfence(self, core: _CoreUnit, op: DFence) -> None:
        counter = core.dfence_counter
        if counter is None:
            counter = core.dfence_counter = self.stats.counter(
                "dfences", scope=f"core{core.index}"
            )
        counter.inc()
        tracer = self.tracer
        if tracer is not None:
            tracer.emit(EventType.DFENCE_BEGIN, "core", core=core.index)

        def dfence_done() -> None:
            if tracer is not None:
                tracer.emit(EventType.DFENCE_END, "core", core=core.index)
            self.engine.schedule(FENCE_ISSUE_CYCLES, core.advance)

        self.paths[core.index].on_dfence(dfence_done)

    def _do_new_strand(self, core: _CoreUnit, op: NewStrand) -> None:
        path = self.paths[core.index]
        relaxed = path.on_new_strand(
            lambda: self.engine.schedule(FENCE_ISSUE_CYCLES, core.advance)
        )
        if relaxed:
            # The new current epoch starts a strand: the epoch log drops
            # its implicit intra-thread predecessor edge so the checker
            # permits the relaxation the hardware grants.
            self.log.record_strand_start(core.index, path.current_ts)
            if self.journal is not None:
                self.journal.append(
                    (self.engine.now, "strand", core.index, path.current_ts)
                )
            self.stats.inc("strand_starts", scope=f"core{core.index}")

    # -- memory ops ---------------------------------------------------------

    def _do_store(self, core: _CoreUnit, op: Store) -> None:
        lines = self.amap.lines_of(op.addr, op.size)
        self._store_lines(core, lines, op.payload, 0)

    def _store_lines(
        self, core: _CoreUnit, lines: List[int], payload: object, pos: int = 0
    ) -> None:
        # `lines` is the AddressMap's memoized (shared, read-only) list;
        # walking it by index avoids re-slicing a fresh list per line.
        if pos >= len(lines):
            self.engine.schedule(STORE_ISSUE_CYCLES, core.advance)
            return
        line = lines[pos]
        index = core.index
        hierarchy = self.hierarchies[index]
        hierarchy.access_ex(line, is_write=True)
        self._maybe_cross_strand_dep(index, line)
        path = self.paths[index]
        # MESI: obtain the line in M, invalidating other copies; a request
        # that reaches another core's write carries dependence info.
        transition = self.directory.write(index, line, path.current_ts)
        extra = self._coherence_charge(transition)
        if transition.source is not None:
            self._dep_from_source(index, transition.source)
            # dependence handling may have opened a new epoch on this
            # core; the directory must attribute the write to it.
            self.directory.update_writer_epoch(line, index, path.current_ts)
        for victim_core in transition.invalidated:
            self.hierarchies[victim_core].invalidate(line)
        write_id = self._next_write_id
        self._next_write_id = write_id + 1
        epoch_ts = path.current_ts
        self.log.record_write(write_id, line, index, epoch_ts, payload=payload)
        journal = self.journal
        if journal is not None:
            journal.append(
                (self.engine.now, "write", write_id, line, index, epoch_ts,
                 payload)
            )

        def stored() -> None:
            self.engine.schedule(
                STORE_ISSUE_CYCLES + extra,
                lambda: self._store_lines(core, lines, payload, pos + 1),
            )

        path.on_store(line, write_id, stored)

    def _do_load(self, core: _CoreUnit, op: Load) -> None:
        lines = self.amap.lines_of(op.addr, op.size)
        index = core.index
        hierarchy = self.hierarchies[index]
        latency = 0
        for line in lines:
            line_latency, _level = hierarchy.access_ex(line, is_write=False)
            latency += line_latency
            transition = self.directory.read(index, line)
            latency += self._coherence_charge(transition)
            if transition.source is not None:
                # the read reached another core's write: the reply carries
                # the writer's epoch (Section IV-E).
                self._dep_from_source(index, transition.source)
        self.engine.schedule(max(1, latency), core.advance)

    # -- locks ---------------------------------------------------------------

    def _lock(self, lock_id: int) -> _Lock:
        lock = self._locks.get(lock_id)
        if lock is None:
            lock = _Lock()
            self._locks[lock_id] = lock
        return lock

    def _do_acquire(self, core: _CoreUnit, op: Acquire) -> None:
        lock = self._lock(op.lock)
        if lock.holder is None:
            self._grant(core, lock)
        else:
            if lock.holder == core.index:
                raise RuntimeError(
                    f"core {core.index} re-acquiring lock {op.lock:#x}"
                )
            self.stats.inc("lock_contended", scope=f"core{core.index}")
            lock.waiters.append(core)

    def _grant(self, core: _CoreUnit, lock: _Lock) -> None:
        lock.holder = core.index
        # Acquire synchronizes with the previous release: under both
        # persistency models this is a dependence-creating conflicting
        # access (under RP it is the *only* kind, Section IV-A).
        if lock.last_release is not None:
            src_core, _ = lock.last_release
            if src_core != core.index:
                self._establish_dep(lock.last_release, core.index)
        self.engine.schedule(self._lock_cycles, core.advance)

    def _do_release(self, core: _CoreUnit, op: Release) -> None:
        lock = self._lock(op.lock)
        if lock.holder != core.index:
            raise RuntimeError(
                f"core {core.index} releasing lock {op.lock:#x} it does "
                f"not hold (holder={lock.holder})"
            )
        path = self.paths[core.index]
        release_ts = path.current_ts

        def released() -> None:
            lock.last_release = (core.index, release_ts)
            if lock.waiters:
                # Direct hand-off: reserve the lock for the next waiter
                # immediately so nobody can sneak in during the transfer
                # latency.
                waiter = lock.waiters.pop(0)
                lock.holder = waiter.index
                self.engine.schedule(
                    self._lock_cycles, lambda: self._grant(waiter, lock)
                )
            else:
                lock.holder = None
            self.engine.schedule(self._lock_cycles, core.advance)

        path.on_release_boundary(released)

    #: exact op type -> handler (see :meth:`dispatch`); a CAS times
    #: exactly like the store it performs.  The class's, so the machine
    #: holds no bound method of itself.
    _op_handlers: ClassVar[Dict[type, Callable[..., None]]] = {
        Store: _do_store,
        CAS: _do_store,
        Load: _do_load,
        Compute: _do_compute,
        OFence: _do_ofence,
        DFence: _do_dfence,
        Acquire: _do_acquire,
        Release: _do_release,
        NewStrand: _do_new_strand,
    }
    #: op type -> the ``kind`` its OP_RETIRED event reports.
    _op_names: ClassVar[Dict[type, str]] = {
        cls: cls.__name__.lower() for cls in _op_handlers
    }

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------

    def run(self, programs: Iterable[Program]) -> RunResult:
        """Run one program per core to completion and drain the system."""
        self.start(programs)
        self.engine.run(max_events=self.run_config.max_events)
        return self._finish_result()

    def run_until(self, programs: Iterable[Program], crash_cycle: int) -> "Machine":
        """Run with a crash at ``crash_cycle``; returns self for the crash
        inspection API (:mod:`repro.core.crash`)."""
        if crash_cycle < 0:
            raise ValueError(f"crash cycle {crash_cycle} precedes cycle 0")
        self.start(programs)
        self.engine.run(
            until=crash_cycle, max_events=self.run_config.max_events
        )
        return self

    # ------------------------------------------------------------------
    # pauses (the sampling pipeline's measurement windows)
    # ------------------------------------------------------------------

    def continue_run(self) -> RunResult:
        """Resume parked cores and run to completion."""
        self._resume_cores()
        self.engine.run(max_events=self.run_config.max_events)
        return self._finish_result()

    def run_to_pause(self, programs: Iterable[Program]) -> None:
        """Run until every core parked on :data:`PAUSE` (or finished).

        The engine halts the moment the last core parks -- the event
        queue is NOT drained.  In-flight persist state (buffer
        occupancy, pending flushes, open epochs) carries across the
        boundary exactly as it would mid-run; draining here would empty
        the persist buffers the warm-up just filled and charge a
        drain's worth of cycles into every measured window."""
        self.start(programs)
        self.continue_to_pause()

    def continue_to_pause(self) -> None:
        """Resume parked cores and run to the next pause round."""
        self._resume_cores()
        self.engine.run(max_events=self.run_config.max_events)
        self._check_paused()

    def mean_arrival_cycle(self) -> float:
        """Mean cycle at which cores reached the current pause round.

        ``engine.now`` at a pause is the *last* core's arrival; windows
        timed with it systematically over-count cycles by the straggler
        wait, because in an unpaused run the fast cores would overlap
        into the next interval instead of idling at the pause.  The
        per-core arrival mean removes that skew, and mean-deltas still
        telescope to the mean completion time over a full run."""
        times = [
            core.park_time if core.parked else core.finish_time
            for core in self.cores
        ]
        known = [t for t in times if t is not None]
        if not known:
            return float(self.engine.now)
        return sum(known) / len(known)

    def _check_paused(self) -> None:
        stuck = [
            core.index for core in self.cores
            if not core.finished and not core.parked
        ]
        if stuck:
            raise RuntimeError(
                f"cores {stuck} neither finished nor parked after the "
                "event queue drained -- a program stopped yielding "
                "without a PAUSE (deadlocked lock waiter?)"
            )

    def _park(self, core: _CoreUnit) -> None:
        core.parked = True
        core.park_time = self.engine.now
        self._parked_order.append(core.index)
        if all(c.parked or c.finished for c in self.cores):
            self.engine.stop()

    def _resume_cores(self) -> None:
        order, self._parked_order = self._parked_order, []
        for core in self.cores:
            core.parked = False
        for index in order:
            self.engine.schedule(0, self.cores[index].advance)

    def start(self, programs: Iterable[Program]) -> None:
        """Load one program per core; nothing runs until the engine does."""
        if self.cores:
            raise RuntimeError("machine already ran; build a fresh one")
        programs = list(programs)
        if len(programs) > self.config.num_cores:
            raise ValueError(
                f"{len(programs)} programs for {self.config.num_cores} cores"
            )
        for index, program in enumerate(programs):
            core = _CoreUnit(self, index, program)
            self.cores.append(core)
            core.start()

    def _finish_result(self) -> RunResult:
        unfinished = [c.index for c in self.cores if not c.finished]
        if unfinished:
            raise RuntimeError(
                f"cores {unfinished} never finished (deadlock? lock leak?)"
            )
        undrained = [
            i for i, p in enumerate(self.paths) if not p.is_drained()
        ]
        if undrained:
            raise RuntimeError(f"persistence paths {undrained} not drained")
        now = self.engine.now
        self.stats.finish(now)
        for path in self.paths:
            if path.has_persist_buffer:
                path.pb.finish(now)
        per_core = [c.finish_time or 0 for c in self.cores]
        return RunResult(
            runtime_cycles=max(per_core) if per_core else 0,
            drain_cycles=now,
            stats=self.stats,
            log=self.log,
            config=self.run_config,
            per_core_runtime=per_core,
            ops_executed=sum(c.ops_executed for c in self.cores),
        )


__all__ = ["Machine", "RunResult"]
