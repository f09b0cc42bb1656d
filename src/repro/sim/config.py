"""Configuration dataclasses for the simulated machine.

The defaults mirror Table II of the paper:

======================  =============================================
CPU cores               4 cores, 8-way OoO, 2 GHz
L1D caches              private, 32 kB, 8-way, 1 ns
L1I caches              private, 32 kB, 8-way, 1 ns
L2 cache                private, 2 MB, 8-way, 10 ns
LLC                     shared, 16 MB, 16-way
Coherence               MESI three level
Memory controllers      2 MCs, 16-entry WPQ, 32-entry RT
PM                      read 175 ns / write 90 ns
Persist buffers         32 entries, flush = 60 ns
======================  =============================================

All latencies are stored in nanoseconds in the config and converted to
cycles where they are consumed (see :func:`repro.sim.engine.ns_to_cycles`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.sim.engine import CPU_FREQ_GHZ

CACHE_LINE_BYTES = 64


class PersistencyModel(enum.Enum):
    """ISA/language-level persistency model a hardware design implements.

    ``EPOCH``  -- epoch persistency: every conflicting access between
    threads establishes a cross-thread persist dependency (strong persist
    atomicity).

    ``RELEASE`` -- release persistency: cross-thread dependencies are
    established only when an ``acquire`` synchronizes with a ``release``
    (requires data-race-free programs, as the paper notes in Section IV-E).
    """

    EPOCH = "epoch"
    RELEASE = "release"


class HardwareModel(enum.Enum):
    """The hardware designs evaluated in the paper (Section VII)."""

    BASELINE = "baseline"  # Intel clwb + sfence synchronous ordering
    HOPS = "hops"  # conservative flushing + global TS register polling
    ASAP = "asap"  # eager flushing + speculative memory updates
    EADR = "eadr"  # eADR / BBB: battery-backed caches (ideal)
    # Vorpal-style comparator (Table IV): vector-clock tags, ordering
    # queues at the controllers, periodic clock broadcasts.
    VORPAL = "vorpal"
    # Ablation model: ASAP's eager flushing without the recovery table.
    # Fast but *incorrect* -- exists so failure-injection tests can show
    # why undo records are necessary.
    ASAP_NO_UNDO = "asap_no_undo"


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level."""

    size_bytes: int
    ways: int
    latency_ns: float
    line_bytes: int = CACHE_LINE_BYTES

    @property
    def num_sets(self) -> int:
        sets = self.size_bytes // (self.ways * self.line_bytes)
        if sets <= 0:
            raise ValueError(f"cache too small: {self}")
        return sets


@dataclass(frozen=True)
class NVMConfig:
    """Timing model for the persistent-memory device behind each MC.

    Latencies follow the Optane study the paper cites (Yang et al., FAST'20):
    reads are fast-ish and high-bandwidth, writes slower and bandwidth
    limited.  ``xpbuffer_lines`` models the internal write-combining buffer
    of an Optane DIMM: recently accessed lines hit in it and avoid paying
    the media read latency again (the paper leans on this when arguing the
    undo-record read-modify-write is cheap, Section V-A).
    """

    read_latency_ns: float = 175.0
    write_latency_ns: float = 90.0
    #: Number of media writes a single device services concurrently
    #: (banking across the DIMMs behind one controller).  The controller's
    #: WPQ drain enforces it by keeping at most this many writes in
    #: flight.  4 concurrent 90 ns line writes = ~2.8 GB/s of write
    #: bandwidth per controller, in line with the Optane
    #: characterizations the paper cites.
    write_parallelism: int = 4
    xpbuffer_lines: int = 64


@dataclass(frozen=True)
class MachineConfig:
    """Full description of the simulated machine."""

    num_cores: int = 4
    num_mcs: int = 2
    #: Fixed at :data:`repro.sim.engine.CPU_FREQ_GHZ`, the one rate every
    #: cycle conversion uses; the field stays only because it is part of
    #: every run's spec key and crash-point seed.
    cpu_freq_ghz: float = CPU_FREQ_GHZ

    l1: CacheConfig = field(
        default_factory=lambda: CacheConfig(32 * 1024, 8, 1.0)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig(2 * 1024 * 1024, 8, 10.0)
    )
    llc: CacheConfig = field(
        default_factory=lambda: CacheConfig(16 * 1024 * 1024, 16, 30.0)
    )

    nvm: NVMConfig = field(default_factory=NVMConfig)

    #: Persist buffer entries per core (Table II: 32).
    pb_entries: int = 32
    #: Epoch table entries per core (Table II: 32).
    et_entries: int = 32
    #: Recovery table entries per memory controller (Table II: 32).
    rt_entries: int = 32
    #: Write pending queue entries per memory controller (Table II: 16).
    wpq_entries: int = 16

    #: Persist-buffer flush latency to the controller (Table II:
    #: flush = 60 ns) -- the one-way transit of a flush packet.
    pb_flush_ns: float = 60.0
    #: Issue occupancy of the PB's flush port (flushes are pipelined; a
    #: new one can be injected every couple of cycles).
    pb_issue_ns: float = 2.0
    #: Extra flush latency on the baseline: clwb write-backs travel through
    #: the cache hierarchy (L2 -> LLC -> MC), unlike the dedicated persist
    #: path the buffered designs add next to the L1.
    clwb_extra_ns: float = 30.0
    #: Maximum flushes a single persist buffer may have in flight.
    pb_inflight_max: int = 8
    #: One-way on-chip network latency core<->MC and core<->core.
    noc_latency_ns: float = 15.0
    #: Extra latency of an access that hits a line owned by another core
    #: (cache-to-cache transfer through the directory).
    coherence_extra_ns: float = 50.0
    #: Latency of an uncontended lock acquire/release operation.
    lock_access_ns: float = 15.0

    #: Interleaving granularity across memory controllers, in bytes.  The
    #: paper's bandwidth microbenchmark alternates 256-byte writes across
    #: two MCs, which matches Optane's interleaving.
    interleave_bytes: int = 256

    #: HOPS global timestamp register polling parameters (Section VII:
    #: "poll every 500 cycles with each access ... taking 50 cycles").
    hops_poll_interval_cycles: int = 500
    hops_poll_access_cycles: int = 50

    #: Vorpal clock-broadcast period ("the broadcast frequency determines
    #: the rate of forward progress", Section III).
    vorpal_broadcast_cycles: int = 100

    #: Writeback-buffer entries per core (private-cache eviction holding).
    wbb_entries: int = 8
    #: Counting-bloom-filter size at each MC for NACKed flush addresses.
    bloom_bits: int = 256
    bloom_hashes: int = 2

    def __post_init__(self) -> None:
        if self.cpu_freq_ghz != CPU_FREQ_GHZ:
            raise ValueError(
                f"cpu_freq_ghz must be {CPU_FREQ_GHZ} (the simulated clock "
                f"is fixed), not {self.cpu_freq_ghz}"
            )
        if self.num_cores < 1:
            raise ValueError("need at least one core")
        if self.num_mcs < 1:
            raise ValueError("need at least one memory controller")
        if self.interleave_bytes % CACHE_LINE_BYTES != 0:
            raise ValueError(
                "interleave granularity must be a multiple of the line size"
            )
        if self.pb_entries < 1 or self.et_entries < 1 or self.rt_entries < 0:
            raise ValueError("buffer sizes must be positive")

    def with_cores(self, num_cores: int) -> "MachineConfig":
        """Return a copy configured for a different core count."""
        return replace(self, num_cores=num_cores)

    def with_mcs(self, num_mcs: int) -> "MachineConfig":
        """Return a copy configured for a different MC count."""
        return replace(self, num_mcs=num_mcs)

    def scaled_nvm_write(self, factor: float) -> "MachineConfig":
        """Return a copy with NVM write latency scaled by ``factor``.

        Used by the bandwidth-sensitivity ablation: the paper argues ASAP's
        advantage grows as NVM write bandwidth grows (write latency drops).
        """
        nvm = replace(self.nvm, write_latency_ns=self.nvm.write_latency_ns * factor)
        return replace(self, nvm=nvm)


#: The paper's evaluated configuration (Table II).
TABLE_II_CONFIG = MachineConfig()


@dataclass(frozen=True)
class RunConfig:
    """Per-run knobs that are not machine properties."""

    hardware: HardwareModel = HardwareModel.ASAP
    persistency: PersistencyModel = PersistencyModel.RELEASE
    #: Hard cap on simulated events (livelock guard).
    max_events: Optional[int] = 50_000_000
    seed: int = 0


__all__ = [
    "CACHE_LINE_BYTES",
    "CacheConfig",
    "HardwareModel",
    "MachineConfig",
    "NVMConfig",
    "PersistencyModel",
    "RunConfig",
    "TABLE_II_CONFIG",
]
