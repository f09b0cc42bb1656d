"""A Vorpal-style comparator: vector-clock ordering at the controllers.

Vorpal (Korgaonkar et al., PODC '19) is the other design that orders
persists across multiple memory controllers.  The paper compares against
it only qualitatively (Table IV); this module makes the comparison
quantitative with a simplified but mechanism-faithful model:

- every write is tagged with its thread's **vector clock** (one entry per
  core -- the "high tag cost" the paper calls out);
- writes are flushed eagerly but are **delayed in an ordering queue at
  the controller** until the controller can prove every write that
  happens-before them is durable;
- controllers learn about global durability through **periodic clock
  broadcasts** -- "the broadcast frequency determines the rate of forward
  progress" (Section III), which the bench sweep demonstrates directly.

Durability bookkeeping rides on the existing epoch tables: a core's
committed prefix *is* its durable epoch index, and the coordinator's
broadcast snapshots those indices for the controllers.  On a crash the
ordering queues are simply discarded -- everything in them was, by
construction, not yet safely ordered -- so recovery consistency holds
(the property tests check it like every other model's).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.mem.controller import FlushPacket, MemoryController
from repro.sim.engine import Engine
from repro.sim.stats import StatsRegistry

#: bits per vector-clock entry (the tag-cost accounting).
TAG_BITS_PER_ENTRY = 32


@dataclass
class _QueuedWrite:
    packet: FlushPacket
    releasing: bool = False


class VorpalCoordinator:
    """Vector clocks, epoch tags, and the broadcast machinery."""

    def __init__(
        self,
        engine: Engine,
        num_cores: int,
        stats: StatsRegistry,
        broadcast_cycles: int = 100,
    ) -> None:
        self.engine = engine
        self.num_cores = num_cores
        self.stats = stats
        self.broadcast_cycles = broadcast_cycles
        #: (core, epoch_ts) -> vector-clock tag for that epoch's writes.
        self._tags: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        #: live (instant) durable-epoch view, updated as epochs commit.
        self._durable: List[int] = [0] * num_cores
        #: the controllers' (stale) view, refreshed by broadcasts.
        self._published: List[int] = [0] * num_cores
        self._queues: Dict[MemoryController, List[_QueuedWrite]] = {}
        self._broadcast_scheduled = False

    # ------------------------------------------------------------------
    # path-facing: tags and durability
    # ------------------------------------------------------------------

    def register_epoch(
        self, core: int, epoch_ts: int, vc: Tuple[int, ...]
    ) -> None:
        self._tags[(core, epoch_ts)] = vc
        self.stats.inc("vorpal_tag_bits", TAG_BITS_PER_ENTRY * self.num_cores)

    def vc_of(self, core: int, epoch_ts: int) -> Tuple[int, ...]:
        tag = self._tags.get((core, epoch_ts))
        if tag is None:
            # epoch predates tracking (already durable): depend on nothing
            return tuple(0 for _ in range(self.num_cores))
        return tag

    def note_commit(self, core: int, committed_upto: int) -> None:
        """A core's epoch chain advanced; picked up at the next broadcast."""
        if committed_upto > self._durable[core]:
            self._durable[core] = committed_upto
        self._ensure_broadcast()

    # ------------------------------------------------------------------
    # controller-facing: the ordering queues
    # ------------------------------------------------------------------

    def enqueue(self, mc: MemoryController, packet: FlushPacket) -> None:
        """A flush arrived; hold it until its ordering is provably safe."""
        queue = self._queues.setdefault(mc, [])
        queue.append(_QueuedWrite(packet=packet))
        occupancy = self.stats.weighted(
            "vorpal_queue_occupancy", 256, scope=mc.scope
        )
        occupancy.update(self.engine.now, len(queue))
        self._scan(mc)
        self._ensure_broadcast()

    def _eligible(self, packet: FlushPacket) -> bool:
        tag = self.vc_of(packet.core, packet.epoch_ts)
        view = self._published
        for core, needed in enumerate(tag):
            if core == packet.core:
                if view[core] < packet.epoch_ts - 1:
                    return False
            elif view[core] < needed:
                return False
        return True

    def _scan(self, mc: MemoryController) -> None:
        """Release every eligible write, FIFO, respecting WPQ space."""
        queue = self._queues.get(mc, [])
        for item in list(queue):
            if item.releasing:
                continue
            if self._eligible(item.packet):
                item.releasing = True
                self._release(mc, item)

    def _release(self, mc: MemoryController, item: _QueuedWrite) -> None:
        """Admit the write to ``mc``'s WPQ; it leaves the ordering queue
        once admitted."""

        def leave_queue() -> None:
            queue = self._queues[mc]
            queue.remove(item)
            self.stats.weighted(
                "vorpal_queue_occupancy", 256, scope=mc.scope
            ).update(self.engine.now, len(queue))

        mc.admit(item.packet, leave_queue)

    # ------------------------------------------------------------------
    # broadcasts
    # ------------------------------------------------------------------

    def _ensure_broadcast(self) -> None:
        if self._broadcast_scheduled:
            return
        self._broadcast_scheduled = True
        self.engine.schedule(self.broadcast_cycles, self._broadcast)

    def _broadcast(self) -> None:
        self._broadcast_scheduled = False
        self.stats.inc("vorpal_broadcasts")
        self._published = list(self._durable)
        for mc in list(self._queues):
            self._scan(mc)
        # keep broadcasting while any write is waiting or views are stale
        if any(self._queues.get(mc) for mc in self._queues) or (
            self._published != self._durable
        ):
            self._ensure_broadcast()

    # ------------------------------------------------------------------

    def pending_writes(self) -> int:
        return sum(len(queue) for queue in self._queues.values())


__all__ = ["TAG_BITS_PER_ENTRY", "VorpalCoordinator"]
