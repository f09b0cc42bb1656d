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

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.sim.config import CacheConfig
from repro.sim.engine import ns_to_cycles
from repro.sim.stats import Counter, StatsRegistry


class Cache:
    """One set-associative LRU cache level.

    A set is a list of its lines, least recently used first, and the
    level keeps its dirty lines in one set beside them: a run holds a
    line in every level it touched, so per-line state is what a run's
    host memory grows with.  Sets are allocated on first fill, because
    workloads touch a tiny fraction of (say) the LLC's 16384 sets;
    probing a line no set holds (a miss, ``mark_dirty``, ``invalidate``
    or ``in``) allocates nothing, and a set that loses its last line is
    dropped.  Stat counters are bound on first use -- binding them
    eagerly would create zero-valued rows in stats.txt that the lazy
    registry never had.
    """

    def __init__(self, config: CacheConfig, stats: StatsRegistry, scope: str) -> None:
        self.config = config
        self.stats = stats
        self.scope = scope
        self.latency = ns_to_cycles(config.latency_ns)
        self.num_sets = config.num_sets
        self.ways = config.ways
        self.line_bytes = config.line_bytes
        self._sets: Dict[int, List[int]] = {}
        self._dirty: Set[int] = set()
        self._hits: Optional[Counter] = None
        self._misses: Optional[Counter] = None
        self._evictions: Optional[Counter] = None

    def lookup(self, line: int, touch: bool = True) -> bool:
        """Return True on hit.  ``touch`` refreshes LRU order."""
        # The set index is inlined here and in fill: both run on every
        # access of every level.
        cache_set = self._sets.get((line // self.line_bytes) % self.num_sets)
        if cache_set is not None and line in cache_set:
            if touch and cache_set[-1] != line:
                cache_set.remove(line)
                cache_set.append(line)
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
        if dirty:
            self._dirty.add(line)
        index = (line // self.line_bytes) % self.num_sets
        cache_set = self._sets.get(index)
        if cache_set is None:
            self._sets[index] = [line]
            return None
        if line in cache_set:
            if cache_set[-1] != line:
                cache_set.remove(line)
                cache_set.append(line)
            return None
        victim: Optional[Tuple[int, bool]] = None
        if len(cache_set) >= self.ways:
            evicted = cache_set.pop(0)
            dirty_lines = self._dirty
            if evicted in dirty_lines:
                dirty_lines.remove(evicted)
                victim = (evicted, True)
            else:
                victim = (evicted, False)
            counter = self._evictions
            if counter is None:
                counter = self._evictions = self.stats.counter(
                    "cache_evictions", scope=self.scope
                )
            counter.inc()
        cache_set.append(line)
        return victim

    def mark_dirty(self, line: int) -> None:
        if line in self:
            self._dirty.add(line)

    def invalidate(self, line: int) -> bool:
        """Drop ``line``; return True if it was present."""
        index = (line // self.line_bytes) % self.num_sets
        cache_set = self._sets.get(index)
        if cache_set is None or line not in cache_set:
            return False
        cache_set.remove(line)
        if not cache_set:
            del self._sets[index]
        self._dirty.discard(line)
        return True

    def __contains__(self, line: int) -> bool:
        cache_set = self._sets.get((line // self.line_bytes) % self.num_sets)
        return cache_set is not None and line in cache_set


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
