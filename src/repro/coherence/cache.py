"""Set-associative LRU cache models.

The hierarchy mirrors Table II: private 32 kB L1, private 2 MB L2, shared
16 MB LLC.  The model answers one question per access -- *how long does it
take?* -- and tracks hit/miss statistics.  Data values never live in the
cache model (which write is durable is the memory controllers'
``adr_value`` record, :mod:`repro.mem.controller`), so evictions only
matter for their interaction with the persist path:

- dirty *persistent* lines evicted from the LLC are dropped, because in the
  buffered designs the persist path goes through the persist buffer, not
  the cache (Section V-A);
- private-cache evictions of lines still queued in a persist buffer are
  held in the write-back buffer (:mod:`repro.coherence.wbb`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Optional, Tuple

from repro.sim.config import CacheConfig
from repro.sim.engine import ns_to_cycles
from repro.sim.stats import Counter, StatsRegistry


class Cache:
    """One set-associative LRU cache level.

    Sets are allocated lazily: workloads touch a tiny fraction of (say)
    the LLC's 16384 sets, and eagerly building one OrderedDict per set
    made machine construction a measurable fraction of short runs.  Stat
    counters are bound on first use -- binding them eagerly would create
    zero-valued rows in stats.txt that the lazy registry never had.
    """

    def __init__(self, config: CacheConfig, stats: StatsRegistry, scope: str) -> None:
        self.config = config
        self.stats = stats
        self.scope = scope
        self.latency = ns_to_cycles(config.latency_ns)
        self.num_sets = config.num_sets
        self.ways = config.ways
        self.line_bytes = config.line_bytes
        self._sets: Dict[int, "OrderedDict[int, bool]"] = {}
        self._hits: Optional[Counter] = None
        self._misses: Optional[Counter] = None
        self._evictions: Optional[Counter] = None

    def _set_of(self, line: int) -> "OrderedDict[int, bool]":
        index = (line // self.line_bytes) % self.num_sets
        cache_set = self._sets.get(index)
        if cache_set is None:
            cache_set = self._sets[index] = OrderedDict()
        return cache_set

    def lookup(self, line: int, touch: bool = True) -> bool:
        """Return True on hit.  ``touch`` refreshes LRU order."""
        # _set_of inlined: lookup/fill run on every access of every level.
        index = (line // self.line_bytes) % self.num_sets
        cache_set = self._sets.get(index)
        if cache_set is None:
            cache_set = self._sets[index] = OrderedDict()
        if line in cache_set:
            if touch:
                cache_set.move_to_end(line)
            counter = self._hits
            if counter is None:
                counter = self._hits = self.stats.counter(
                    "cache_hits", scope=self.scope
                )
            counter.inc()
            return True
        counter = self._misses
        if counter is None:
            counter = self._misses = self.stats.counter(
                "cache_misses", scope=self.scope
            )
        counter.inc()
        return False

    def fill(self, line: int, dirty: bool = False) -> Optional[Tuple[int, bool]]:
        """Insert ``line``; return the evicted ``(line, dirty)`` if any."""
        index = (line // self.line_bytes) % self.num_sets
        cache_set = self._sets.get(index)
        if cache_set is None:
            cache_set = self._sets[index] = OrderedDict()
        if line in cache_set:
            cache_set[line] = cache_set[line] or dirty
            cache_set.move_to_end(line)
            return None
        victim: Optional[Tuple[int, bool]] = None
        if len(cache_set) >= self.ways:
            victim = cache_set.popitem(last=False)
            counter = self._evictions
            if counter is None:
                counter = self._evictions = self.stats.counter(
                    "cache_evictions", scope=self.scope
                )
            counter.inc()
        cache_set[line] = dirty
        return victim

    def mark_dirty(self, line: int) -> None:
        cache_set = self._set_of(line)
        if line in cache_set:
            cache_set[line] = True

    def invalidate(self, line: int) -> bool:
        """Drop ``line``; return True if it was present."""
        cache_set = self._set_of(line)
        return cache_set.pop(line, None) is not None

    def __contains__(self, line: int) -> bool:
        return line in self._set_of(line)


class CacheHierarchy:
    """Private L1 + private L2 + shared LLC for one core.

    ``access_ex`` returns the access latency in cycles (and the level that
    serviced it) and drives fills and evictions.  The shared LLC instance is passed in by the machine so all
    cores see the same one.  ``memory_latency`` is a callback supplied by
    the machine that charges the NVM (or DRAM) read for a miss all the way
    down, and ``on_private_eviction`` lets the persist path interpose the
    write-back buffer.
    """

    def __init__(
        self,
        l1: Cache,
        l2: Cache,
        llc: Cache,
        memory_latency: Callable[[int], int],
        on_private_eviction: Optional[Callable[[int, bool], None]] = None,
        on_llc_eviction: Optional[Callable[[int, bool], None]] = None,
    ) -> None:
        self.l1 = l1
        self.l2 = l2
        self.llc = llc
        self._memory_latency = memory_latency
        self._on_private_eviction = on_private_eviction or (lambda line, dirty: None)
        self._on_llc_eviction = on_llc_eviction or (lambda line, dirty: None)

    def access_ex(self, line: int, is_write: bool) -> Tuple[int, str]:
        """Perform one access; return ``(latency, level)`` where level is
        the hierarchy level that serviced it: l1 | l2 | llc | mem.

        The level matters to the coherence layer: cross-thread dependence
        checks only fire on private-cache misses (a hit means no coherence
        request left the core, so no dependence information could have
        been exchanged)."""
        latency = self.l1.latency
        if self.l1.lookup(line):
            if is_write:
                self.l1.mark_dirty(line)
            return latency, "l1"
        latency += self.l2.latency
        if self.l2.lookup(line):
            self._fill_l1(line, is_write)
            return latency, "l2"
        latency += self.llc.latency
        if self.llc.lookup(line):
            self._fill_private(line, is_write)
            return latency, "llc"
        latency += self._memory_latency(line)
        victim = self.llc.fill(line)
        if victim is not None:
            self._on_llc_eviction(*victim)
        self._fill_private(line, is_write)
        return latency, "mem"

    def _fill_private(self, line: int, is_write: bool) -> None:
        victim = self.l2.fill(line)
        if victim is not None:
            self._on_private_eviction(*victim)
        self._fill_l1(line, is_write)

    def _fill_l1(self, line: int, is_write: bool) -> None:
        victim = self.l1.fill(line, dirty=is_write)
        if victim is not None:
            # L1 victims land in the L2 (inclusive-ish simplification).
            l2_victim = self.l2.fill(victim[0], dirty=victim[1])
            if l2_victim is not None:
                self._on_private_eviction(*l2_victim)
        elif is_write:
            self.l1.mark_dirty(line)

    def invalidate(self, line: int) -> None:
        """Remove ``line`` from the private levels (coherence downgrade)."""
        self.l1.invalidate(line)
        self.l2.invalidate(line)


__all__ = ["Cache", "CacheHierarchy"]
