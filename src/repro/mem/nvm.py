"""The non-volatile memory device model: timing only.

The device holds no values.  A write is durable once its controller's
WPQ accepts it (ADR), so which write survives a crash is decided by the
controller's ``adr_value`` record, never by what reached the media
(:func:`repro.core.crash.crash_image`).

Timing follows the Optane characterization the paper uses (Yang et al.,
FAST '20): long read latency (175 ns), lower write latency at the buffer
(90 ns), read bandwidth much higher than write bandwidth, and an internal
write-combining buffer (the *XPBuffer*) that absorbs hits to recently
accessed 256-byte blocks.  The paper's Section V-A leans on exactly these
properties to argue that creating undo records via read-modify-write is
cheap.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

from repro.sim.engine import Engine, ns_to_cycles
from repro.sim.config import NVMConfig
from repro.sim.stats import StatsRegistry

#: Internal Optane access granularity; the XPBuffer caches blocks this big.
XPLINE_BYTES = 256


class XPBuffer:
    """LRU model of the DIMM-internal write-combining buffer.

    Tracks recently touched 256-byte blocks.  A hit means the device can
    service the access from its internal buffer, skipping the 3D-XPoint
    media latency.
    """

    def __init__(self, capacity_lines: int) -> None:
        self.capacity = max(1, capacity_lines)
        self._blocks: "OrderedDict[int, None]" = OrderedDict()

    @staticmethod
    def block_of(line: int) -> int:
        return line - (line % XPLINE_BYTES)

    def access(self, line: int) -> bool:
        """Touch ``line``'s block; return True on hit."""
        block = self.block_of(line)
        if block in self._blocks:
            self._blocks.move_to_end(block)
            return True
        self._blocks[block] = None
        if len(self._blocks) > self.capacity:
            self._blocks.popitem(last=False)
        return False

    def __contains__(self, line: int) -> bool:
        return self.block_of(line) in self._blocks


class NVMDevice:
    """One persistent-memory device (one per memory controller).

    The device starts every write it is given at once; the limited
    write bandwidth is enforced by the controller's WPQ drain, which keeps
    at most ``write_parallelism`` media writes in flight
    (:meth:`repro.mem.controller.MemoryController._pump_drain`).
    """

    def __init__(
        self,
        engine: Engine,
        config: NVMConfig,
        stats: StatsRegistry,
        scope: str,
    ) -> None:
        self.engine = engine
        self.config = config
        self.stats = stats
        self.scope = scope
        self.xpbuffer = XPBuffer(config.xpbuffer_lines)
        self._read_cycles = ns_to_cycles(config.read_latency_ns)
        self._write_cycles = ns_to_cycles(config.write_latency_ns)
        #: XPBuffer hits complete at a fraction of the media latency.
        self._buffered_write_cycles = max(1, self._write_cycles // 4)
        self._buffered_read_cycles = max(1, self._read_cycles // 8)
        #: lazily bound hot counters (bound on first use so a device that
        #: never reads/writes creates no zero-valued stats rows).
        self._writes_counter = None
        self._read_hits_counter = None
        self._reads_counter = None

    def read_latency(self, line: int) -> int:
        """Cycles to read ``line`` right now (XPBuffer-aware).

        Reads are not queued: Optane read bandwidth is far higher than
        write bandwidth, so reads effectively never saturate the device in
        these workloads.  Only XPBuffer *misses* touch the media and count
        as PM reads (the Figure 9 discussion: undo-record reads mostly hit
        the internal buffer, so ASAP's extra media reads stay small).
        """
        if self.xpbuffer.access(line):
            counter = self._read_hits_counter
            if counter is None:
                counter = self._read_hits_counter = self.stats.counter(
                    "xpbuffer_read_hits", scope=self.scope
                )
            counter.inc()
            return self._buffered_read_cycles
        counter = self._reads_counter
        if counter is None:
            counter = self._reads_counter = self.stats.counter(
                "pm_reads", scope=self.scope
            )
        counter.inc()
        return self._read_cycles

    def write(self, line: int, on_done: Callable[[], None]) -> None:
        """Start a media write of ``line``; ``on_done`` runs when it
        completes (XPBuffer-aware latency)."""
        counter = self._writes_counter
        if counter is None:
            counter = self._writes_counter = self.stats.counter(
                "pm_writes", scope=self.scope
            )
        counter.inc()
        if self.xpbuffer.access(line):
            latency = self._buffered_write_cycles
        else:
            latency = self._write_cycles
        self.engine.schedule(latency, on_done)


__all__ = ["NVMDevice", "XPBuffer", "XPLINE_BYTES"]
