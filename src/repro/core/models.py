"""The evaluated hardware designs (Section VII's six models).

Each design is a *persistence path*: the per-core machinery that sits
between the core's stores and the memory controllers.  The machine
(:mod:`repro.core.machine`) executes workload ops and delegates every
persistence-relevant action to the path:

- ``BaselinePath``    -- current Intel systems: stores are flushed with
  clwb semantics and every ordering point (ofence / release) is an sfence
  that stalls the core until all outstanding flushes are ACKed.
- ``HOPSPath``        -- HOPS_EP / HOPS_RP: persist buffers with
  *conservative* flushing; cross-thread dependencies resolved by polling
  a global timestamp register (500-cycle period, 50-cycle access).
- ``ASAPPath``        -- ASAP_EP / ASAP_RP: *eager* flushing with early
  bits, recovery tables at the MCs, commit messages and direct CDR
  messages; NACK fallback to conservative flushing.
- ``EADRPath``        -- eADR / BBB ideal: the caches are inside the
  persistence domain, so no flushes and free fences.
- ``ASAPNoUndoPath``  -- ablation: eager flushing *without* recovery
  information.  Fast and unsound; exists so the failure-injection tests
  can demonstrate why the recovery table is necessary.

The EP/RP distinction does not live here: persistency models differ only
in *when* the machine establishes cross-thread dependencies (Section IV-A),
which is handled in :mod:`repro.core.machine`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Union

from repro.obs.events import REASON_COUNTERS, EventType, StallReason
from repro.obs.tracer import Tracer
from repro.sim.config import (
    HardwareModel,
    MachineConfig,
    PersistencyModel,
    RunConfig,
)
from repro.sim.engine import Engine, ns_to_cycles
from repro.sim.stats import StatsRegistry
from repro.core.epoch import EpochEntry, EpochId
from repro.core.epoch_table import EpochTable, GlobalTSRegister
from repro.core.persist_buffer import (
    EnqueueResult,
    PersistBuffer,
    make_conservative_policy,
    make_eager_policy,
    select_fifo_any,
)


# ---------------------------------------------------------------------------
# model registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    """One evaluated design: a hardware model under a persistency model.

    Instances are frozen and hashable, so a spec can key result caches
    and travel across process boundaries unchanged.
    """

    name: str
    hardware: HardwareModel
    persistency: PersistencyModel

    def run_config(self, **kwargs) -> RunConfig:
        return RunConfig(
            hardware=self.hardware, persistency=self.persistency, **kwargs
        )

    def renamed(self, name: str) -> "ModelSpec":
        """The same design under a different display name (figure labels
        sometimes drop the persistency suffix, e.g. ``asap_rp`` -> ``asap``)."""
        return replace(self, name=name)


#: The canonical model table: every design the CLI, the sweeps, and the
#: benchmarks may name.  This is the ONLY place a (name, hardware,
#: persistency) triple is spelled out.
MODEL_REGISTRY: Dict[str, ModelSpec] = {
    spec.name: spec
    for spec in (
        ModelSpec("baseline", HardwareModel.BASELINE, PersistencyModel.RELEASE),
        ModelSpec("hops_ep", HardwareModel.HOPS, PersistencyModel.EPOCH),
        ModelSpec("hops_rp", HardwareModel.HOPS, PersistencyModel.RELEASE),
        ModelSpec("asap_ep", HardwareModel.ASAP, PersistencyModel.EPOCH),
        ModelSpec("asap_rp", HardwareModel.ASAP, PersistencyModel.RELEASE),
        ModelSpec("eadr", HardwareModel.EADR, PersistencyModel.RELEASE),
        ModelSpec("vorpal", HardwareModel.VORPAL, PersistencyModel.RELEASE),
        ModelSpec(
            "asap_no_undo", HardwareModel.ASAP_NO_UNDO, PersistencyModel.RELEASE
        ),
    )
}

#: Display aliases used by the release-persistency figures, resolved to
#: registry entries (the design is identical; only the label differs).
MODEL_ALIASES: Dict[str, str] = {
    "hops": "hops_rp",
    "asap": "asap_rp",
}

#: the six designs of Figure 8, in presentation order.
STANDARD_MODELS: List[ModelSpec] = [
    MODEL_REGISTRY[name]
    for name in ("baseline", "hops_ep", "hops_rp", "asap_ep", "asap_rp", "eadr")
]

#: release-persistency-only comparison (Sections VII-B onward use RP).
RP_MODELS: List[ModelSpec] = [
    MODEL_REGISTRY["baseline"],
    MODEL_REGISTRY["hops_rp"].renamed("hops"),
    MODEL_REGISTRY["asap_rp"].renamed("asap"),
    MODEL_REGISTRY["eadr"],
]


def model_names() -> List[str]:
    """Canonical model names, in registry (presentation) order."""
    return list(MODEL_REGISTRY)


def resolve_model(model: Union[str, ModelSpec]) -> ModelSpec:
    """Resolve a model name (or pass a spec through) to a :class:`ModelSpec`.

    Accepts canonical registry names, the RP display aliases (``hops``,
    ``asap``), and pre-built specs (returned unchanged, so callers may
    carry custom display names).
    """
    if isinstance(model, ModelSpec):
        return model
    spec = MODEL_REGISTRY.get(model)
    if spec is not None:
        return spec
    alias = MODEL_ALIASES.get(model)
    if alias is not None:
        return MODEL_REGISTRY[alias].renamed(model)
    raise KeyError(
        f"unknown model {model!r}; available: {sorted(MODEL_REGISTRY)}"
    )


@dataclass
class Transport:
    """Machine-provided message plumbing for a path."""

    #: send a flush packet for a PB entry (machine adds NoC latency and
    #: routes the MC's response back to the PB).
    flush: Callable[[object], None]
    #: send an epoch-commit message to MC ``mc``; ``on_ack`` fires when
    #: the MC has processed it (ASAP, Section V-C).
    commit: Callable[[int, int, int, Callable[[], None]], None]
    #: deliver a CDR message to a dependent epoch on another core.
    cdr: Callable[[EpochId], None]
    #: index of the memory controller a line interleaves to.
    mc_of: Callable[[int], int]


class PersistencePath:
    """Base class: epoch numbering shared by all designs.

    Even designs with no epoch hardware (baseline, eADR) keep a timestamp
    counter so the machine can attribute writes to program-level epochs in
    the :class:`repro.core.epoch.EpochLog`.
    """

    #: whether this design buffers writes in a persist buffer.
    has_persist_buffer = False
    #: whether this design tracks cross-thread dependencies in hardware.
    tracks_dependencies = False

    def __init__(
        self,
        engine: Engine,
        config: MachineConfig,
        stats: StatsRegistry,
        core: int,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.engine = engine
        self.config = config
        self.stats = stats
        self.core = core
        self.scope = f"core{core}"
        self._ts = 1
        #: optional :class:`repro.obs.Tracer`; None = tracing off.
        self.tracer = tracer

    # -- core stalls ------------------------------------------------------

    def _stall_begin(self, reason: StallReason, epoch: int) -> int:
        """Open a core stall interval; returns its start cycle."""
        if self.tracer is not None:
            self.tracer.emit(
                EventType.STALL_BEGIN, "core", core=self.core, epoch=epoch,
                reason=reason,
            )
        return self.engine.now

    def _stall_end(self, reason: StallReason, epoch: int, started: int) -> None:
        """Close a core stall interval opened at cycle ``started``.

        The one place a core stall is both counted in the registry (when
        ``reason`` has a counter) and traced, with the same length, which
        is what keeps the stall profiler conserved against the registry."""
        dur = self.engine.now - started
        counter = REASON_COUNTERS.get(reason)
        if counter is not None:
            self.stats.inc(counter, dur, scope=self.scope)
        if self.tracer is not None:
            self.tracer.emit(
                EventType.STALL_END, "core", core=self.core, epoch=epoch,
                reason=reason, dur=dur,
            )

    # -- epoch bookkeeping ------------------------------------------------

    @property
    def current_ts(self) -> int:
        return self._ts

    def split_epoch(self) -> int:
        """Close the current epoch; return the new epoch's timestamp."""
        self._ts += 1
        return self._ts

    def epoch_uncommitted(self, ts: int) -> bool:
        """Is epoch ``ts`` still in flight (so a dependency is needed)?"""
        return False

    def set_dep(self, source: EpochId) -> None:
        """Attach a cross-thread dependency to the current epoch."""
        raise NotImplementedError(f"{type(self).__name__} does not track deps")

    def register_dependent(self, ts: int, dependent: EpochId) -> bool:
        """A remote epoch now depends on our epoch ``ts``."""
        raise NotImplementedError(f"{type(self).__name__} does not track deps")

    # -- op hooks (continuation-passing; ``done`` resumes the core) -------

    def on_store(self, line: int, write_id: int, done: Callable[[], None]) -> None:
        done()

    def on_ofence(self, done: Callable[[], None]) -> None:
        self.split_epoch()
        done()

    def on_dfence(self, done: Callable[[], None]) -> None:
        self.split_epoch()
        done()

    def on_release_boundary(self, done: Callable[[], None]) -> None:
        """Persist-ordering work a release must perform before the lock
        becomes available to others."""
        self.split_epoch()
        done()

    def on_new_strand(self, done: Callable[[], None]) -> bool:
        """Begin a new strand.  Returns True when the design actually
        relaxes the intra-thread ordering at this point (so the machine
        records a strand start in the epoch log); designs that merely
        treat it as an epoch boundary return False -- always safe, the
        paper's "it is always safe to split an epoch" argument."""
        self.split_epoch()
        done()
        return False

    def strand_of(self, ts: int) -> Optional[int]:
        """Strand id of a live epoch; None when unknown/committed."""
        return None

    def on_program_end(self, done: Callable[[], None]) -> None:
        """Close the final epoch so dependents can resolve."""
        self.split_epoch()
        done()

    def is_drained(self) -> bool:
        return True


class EADRPath(PersistencePath):
    """eADR / BBB: the whole cache hierarchy is battery-backed.

    Stores are durable the moment they hit the cache; ordering is free
    because nothing is ever lost.  This is the paper's ideal bound."""

    def on_new_strand(self, done: Callable[[], None]) -> bool:
        # Nothing is ever lost, so the relaxation is trivially honoured.
        self.split_epoch()
        done()
        return True


class BaselinePath(PersistencePath):
    """Intel clwb + sfence synchronous ordering.

    Every store's line is flushed (weakly ordered, so flushes overlap one
    another and overlap execution), and each ordering point stalls the
    core until all outstanding flushes are ACKed by the controllers."""

    has_persist_buffer = True

    def __init__(
        self, engine, config, stats, core, transport: Transport,
        tracer: Optional[Tracer] = None,
    ) -> None:
        super().__init__(engine, config, stats, core, tracer)
        self.transport = transport
        self.pb = PersistBuffer(
            engine,
            config.pb_entries,
            ns_to_cycles(config.pb_issue_ns),
            stats,
            self.scope,
            core,
            inflight_max=config.pb_inflight_max,
            tracer=tracer,
        )
        self.pb.select_entry = select_fifo_any
        self.pb.send_flush = transport.flush

    def on_store(self, line: int, write_id: int, done: Callable[[], None]) -> None:
        self._enqueue(line, write_id, done, None)

    def _enqueue(
        self, line: int, write_id: int, done: Callable[[], None],
        started: Optional[int],
    ) -> None:
        ts = self.current_ts
        outcome = self.pb.enqueue(line, write_id, ts)
        if outcome is EnqueueResult.FULL:
            if started is None:
                started = self._stall_begin(StallReason.PB_FULL, ts)
            self.pb.space_waiter.wait(
                lambda: self._enqueue(line, write_id, done, started)
            )
            return
        if outcome is EnqueueResult.ADDED:
            self._store_added(ts)
        if started is not None:
            self._stall_end(StallReason.PB_FULL, ts, started)
        done()

    def _store_added(self, ts: int) -> None:
        """A store took a new persist-buffer entry in epoch ``ts``."""

    def _drain_then(self, done: Callable[[], None], reason: StallReason) -> None:
        if self.pb.empty:
            done()
            return
        epoch = self._ts
        started = self._stall_begin(reason, epoch)

        def finish() -> None:
            if self.pb.empty:
                self._stall_end(reason, epoch, started)
                done()
            else:
                self.pb.drain_waiter.wait(finish)

        self.pb.drain_waiter.wait(finish)

    def on_ofence(self, done: Callable[[], None]) -> None:
        self.split_epoch()
        self._drain_then(done, StallReason.SFENCE)

    def on_dfence(self, done: Callable[[], None]) -> None:
        self.split_epoch()
        self._drain_then(done, StallReason.DFENCE)

    def on_release_boundary(self, done: Callable[[], None]) -> None:
        # Real PMDK-style code issues clwb+sfence before unlocking so the
        # next lock holder observes durable data.
        self.split_epoch()
        self._drain_then(done, StallReason.SFENCE)

    def on_program_end(self, done: Callable[[], None]) -> None:
        self.split_epoch()
        self._drain_then(done, StallReason.DFENCE)

    def is_drained(self) -> bool:
        return self.pb.empty


class BufferedPath(BaselinePath):
    """Shared machinery for the epoch-table designs (HOPS and ASAP).

    The persist buffer and its store path are the baseline's; the epoch
    table replaces the baseline's fence drains with epoch ordering."""

    tracks_dependencies = True

    def __init__(
        self, engine, config, stats, core, transport: Transport,
        tracer: Optional[Tracer] = None, journal: Optional[list] = None,
    ) -> None:
        super().__init__(engine, config, stats, core, transport, tracer)
        self.et = EpochTable(
            engine, config.et_entries, stats, self.scope, core, tracer=tracer,
            journal=journal,
        )
        self.pb.on_acked = lambda entry: self.et.on_write_acked(entry.epoch_ts)
        self.et.on_progress = self._on_progress

    # epoch numbering is delegated to the epoch table ----------------------

    @property
    def current_ts(self) -> int:
        return self.et.current_ts

    def split_epoch(self) -> int:
        return self.et.open_epoch()

    def epoch_uncommitted(self, ts: int) -> bool:
        return not self.et.is_committed(ts)

    def set_dep(self, source: EpochId) -> None:
        self.et.set_dep(self.et.current_ts, source)

    def register_dependent(self, ts: int, dependent: EpochId) -> bool:
        return self.et.register_dependent(ts, dependent)

    def strand_of(self, ts: int) -> Optional[int]:
        return self.et.strand_of(ts)

    def _on_progress(self) -> None:
        self.pb.reassess()

    # op hooks --------------------------------------------------------------

    def _store_added(self, ts: int) -> None:
        # A coalesced store shares its entry's single ACK; counting it
        # would leave the epoch incomplete forever.
        self.et.on_enqueue(ts)

    def on_ofence(self, done: Callable[[], None]) -> None:
        self.split_epoch()
        self._wait_et_space(done)

    def _wait_et_space(
        self, done: Callable[[], None], started: Optional[int] = None
    ) -> None:
        if not self.et.over_capacity:
            if started is not None:
                self._stall_end(StallReason.ET_FULL, self.current_ts, started)
            done()
            return
        self.stats.inc("et_full_stalls", scope=self.scope)
        if started is None:
            started = self._stall_begin(StallReason.ET_FULL, self.current_ts)
        self.et.space_waiter.wait(lambda: self._wait_et_space(done, started))

    def on_dfence(self, done: Callable[[], None]) -> None:
        closed_ts = self.et.current_ts
        self.et.open_epoch()
        started = self.engine.now

        def resume() -> None:
            self._stall_end(StallReason.DFENCE, closed_ts, started)
            done()

        if self.et.wait_for_commit(closed_ts, resume):
            done()
        else:
            self._stall_begin(StallReason.DFENCE, closed_ts)

    def on_release_boundary(self, done: Callable[[], None]) -> None:
        # Buffered designs track the dependency instead of draining; the
        # release is only an epoch boundary (a one-sided barrier, Fig. 4).
        self.split_epoch()
        done()

    def on_program_end(self, done: Callable[[], None]) -> None:
        self.split_epoch()
        done()

    def is_drained(self) -> bool:
        return self.pb.empty and self.et.all_committed()


class HOPSPath(BufferedPath):
    """HOPS: conservative flushing + global-TS-register polling."""

    def __init__(
        self, engine, config, stats, core, transport: Transport,
        global_ts: GlobalTSRegister, tracer: Optional[Tracer] = None,
        journal: Optional[list] = None,
    ) -> None:
        super().__init__(engine, config, stats, core, transport, tracer, journal)
        self.global_ts = global_ts
        self._polling = False
        self.pb.select_entry = make_conservative_policy(self.et.is_safe)
        self.et.commit_action = self._commit

    def _commit(self, entry: EpochEntry) -> None:
        self.et.finalize_commit(entry)
        self.global_ts.publish(self.core, self.et.committed_upto)

    def set_dep(self, source: EpochId) -> None:
        super().set_dep(source)
        self._ensure_polling()

    def _ensure_polling(self) -> None:
        if self._polling:
            return
        self._polling = True
        self.engine.schedule(self.config.hops_poll_interval_cycles, self._poll_fire)

    def _poll_fire(self) -> None:
        # The global register holds one committed-timestamp entry per
        # core, so a poll round needs one serialized 50-cycle access per
        # *distinct source core* it is waiting on (Section VII's updated
        # HOPS).  All cores' polls and the commit publishes contend for
        # the same access port; under epoch persistency the denser
        # dependence fan-in means more sources per round, which is what
        # pushes HOPS_EP below the baseline on the concurrent structures
        # (Section VII-A) and caps HOPS's scaling (Section IV-E).
        deps = self.et.unresolved_deps()
        if not deps:
            self._polling = False
            return
        done_at = self.engine.now
        for _ in deps:
            done_at = self.global_ts.read_done_at()
        self.engine.at(done_at, self._poll_check)

    def _poll_check(self) -> None:
        for ts, source in self.et.unresolved_deps():
            src_core, src_ts = source
            if self.global_ts.committed_upto(src_core) >= src_ts:
                self.et.resolve_dep(ts)
        if self.et.unresolved_deps():
            self.engine.schedule(
                self.config.hops_poll_interval_cycles, self._poll_fire
            )
        else:
            self._polling = False


class ASAPPath(BufferedPath):
    """ASAP: eager flushing, speculative updates, commit/CDR protocol.

    Also the design that exploits strand persistency (the StrandWeaver
    integration the paper sketches): a strand-start epoch has no
    predecessor, so its flushes are *safe* immediately and its commit
    chain runs independently of other strands'."""

    def __init__(
        self, engine, config, stats, core, transport: Transport,
        tracer: Optional[Tracer] = None, journal: Optional[list] = None,
    ) -> None:
        super().__init__(engine, config, stats, core, transport, tracer, journal)
        self.pb.select_entry = make_eager_policy(self.et.is_safe)
        self.pb.classify_early = lambda ts: not self.et.is_safe(ts)
        self.pb.on_issue = self._on_issue
        self.pb.on_nacked = self._on_nacked
        self.et.commit_action = self._commit
        self.et.send_cdr = transport.cdr

    def on_new_strand(self, done: Callable[[], None]) -> bool:
        self.et.open_epoch(strand_break=True)
        self._wait_et_space(done)
        return True

    def _on_issue(self, entry) -> None:
        if entry.issued_early:
            mc = self.transport.mc_of(entry.line)
            self.et.on_write_issued(entry.epoch_ts, mc, early=True)

    def _on_nacked(self, entry) -> None:
        """Fall back to conservative flushing until this epoch commits
        (Section V-D)."""
        horizon = entry.epoch_ts
        if (
            self.pb.conservative_until_ts is None
            or horizon > self.pb.conservative_until_ts
        ):
            self.pb.conservative_until_ts = horizon
        self.stats.inc("conservative_fallbacks", scope=self.scope)

    def _on_progress(self) -> None:
        if (
            self.pb.conservative_until_ts is not None
            and self.et.committed_upto >= self.pb.conservative_until_ts
        ):
            self.pb.conservative_until_ts = None
        super()._on_progress()

    def _commit(self, entry: EpochEntry) -> None:
        if not entry.early_mcs:
            self.et.finalize_commit(entry)
            return
        entry.commit_acks_pending = len(entry.early_mcs)
        for mc in sorted(entry.early_mcs):
            self.transport.commit(
                mc, self.core, entry.ts, lambda e=entry: self._commit_ack(e)
            )

    def _commit_ack(self, entry: EpochEntry) -> None:
        entry.commit_acks_pending -= 1
        if entry.commit_acks_pending == 0:
            self.et.finalize_commit(entry)


class VorpalPath(BufferedPath):
    """Vorpal-style design: eager issue, ordering at the controllers.

    The persist buffer flushes FIFO without any safety gating; every
    epoch's writes carry a vector-clock tag (registered with the
    coordinator), and the memory controllers delay writes until the
    broadcast-distributed durable view covers their tags.  Cross-thread
    dependences merge the source's clock into the dependent's -- no epoch
    table dependence is recorded because the ordering burden lives at the
    controllers, not in the core."""

    def __init__(
        self, engine, config, stats, core, transport: Transport, coordinator,
        tracer: Optional[Tracer] = None, journal: Optional[list] = None,
    ) -> None:
        super().__init__(engine, config, stats, core, transport, tracer, journal)
        self.coordinator = coordinator
        self.et.commit_action = self._commit
        self.vc = [0] * config.num_cores
        self.vc[core] = 1
        coordinator.register_epoch(core, 1, tuple(self.vc))

    def _commit(self, entry: EpochEntry) -> None:
        self.et.finalize_commit(entry)
        self.coordinator.note_commit(self.core, self.et.committed_upto)

    def split_epoch(self) -> int:
        ts = self.et.open_epoch()
        self.vc[self.core] = ts
        self.coordinator.register_epoch(self.core, ts, tuple(self.vc))
        return ts

    def set_dep(self, source: EpochId) -> None:
        # merge the source epoch's clock into the current epoch's tag;
        # the controllers enforce the resulting ordering.
        src_vc = self.coordinator.vc_of(*source)
        self.vc = [max(a, b) for a, b in zip(self.vc, src_vc)]
        self.vc[self.core] = self.et.current_ts
        self.coordinator.register_epoch(
            self.core, self.et.current_ts, tuple(self.vc)
        )


class ASAPNoUndoPath(ASAPPath):
    """Eager flushing with the recovery table disabled (ablation).

    Every flush claims to be safe, so the controllers write speculative
    data straight to memory with no undo information.  Normal-operation
    performance matches ASAP's upper bound, but crashes can recover to an
    inconsistent state -- the property tests rely on this model to prove
    the consistency checker has teeth."""

    def __init__(
        self, engine, config, stats, core, transport: Transport,
        tracer: Optional[Tracer] = None, journal: Optional[list] = None,
    ) -> None:
        super().__init__(engine, config, stats, core, transport, tracer, journal)
        self.pb.classify_early = lambda ts: False


__all__ = [
    "ASAPNoUndoPath",
    "ASAPPath",
    "BaselinePath",
    "BufferedPath",
    "EADRPath",
    "HOPSPath",
    "MODEL_ALIASES",
    "MODEL_REGISTRY",
    "ModelSpec",
    "PersistencePath",
    "RP_MODELS",
    "STANDARD_MODELS",
    "Transport",
    "VorpalPath",
    "model_names",
    "resolve_model",
]
