"""Unit tests for the cache models."""

import pytest

from repro.sim.config import CacheConfig
from repro.sim.engine import ns_to_cycles
from repro.coherence.cache import Cache, CacheHierarchy


def small_cache(stats, size=1024, ways=2, latency=1.0, scope="t"):
    return Cache(CacheConfig(size, ways, latency), stats, scope)


class TestCache:
    def test_miss_then_hit(self, stats):
        cache = small_cache(stats)
        assert not cache.lookup(0)
        cache.fill(0)
        assert cache.lookup(0)

    def test_lru_eviction_within_set(self, stats):
        cache = small_cache(stats, size=256, ways=2)  # 2 sets x 2 ways
        num_sets = cache.num_sets
        stride = num_sets * 64  # same set
        cache.fill(0)
        cache.fill(stride)
        victim = cache.fill(2 * stride)
        assert victim == (0, False)
        assert 0 not in cache

    def test_lookup_refreshes_lru(self, stats):
        cache = small_cache(stats, size=256, ways=2)
        stride = cache.num_sets * 64
        cache.fill(0)
        cache.fill(stride)
        cache.lookup(0)  # refresh
        victim = cache.fill(2 * stride)
        assert victim == (stride, False)

    def test_dirty_bit_travels_with_eviction(self, stats):
        cache = small_cache(stats, size=256, ways=2)
        stride = cache.num_sets * 64
        cache.fill(0, dirty=True)
        cache.fill(stride)
        victim = cache.fill(2 * stride)
        assert victim == (0, True)

    def test_mark_dirty(self, stats):
        cache = small_cache(stats)
        cache.fill(0)
        cache.mark_dirty(0)
        cache.fill(0)  # refill keeps dirty
        # evict everything in set 0 to observe the dirty bit
        stride = cache.num_sets * 64
        cache.fill(stride)
        victim = cache.fill(2 * stride)
        assert victim[1] is True

    def test_invalidate(self, stats):
        cache = small_cache(stats)
        cache.fill(0)
        assert cache.invalidate(0)
        assert 0 not in cache
        assert not cache.invalidate(0)

    def test_hit_miss_stats(self, stats):
        cache = small_cache(stats, scope="c0")
        cache.lookup(0)
        cache.fill(0)
        cache.lookup(0)
        assert stats.get("cache_misses", scope="c0") == 1
        assert stats.get("cache_hits", scope="c0") == 1


@pytest.fixture
def hierarchy(stats):
    l1 = small_cache(stats, size=512, ways=2, latency=1.0, scope="l1")
    l2 = small_cache(stats, size=2048, ways=2, latency=10.0, scope="l2")
    llc = small_cache(stats, size=8192, ways=4, latency=30.0, scope="llc")
    return CacheHierarchy(l1, l2, llc, memory_latency=lambda line: 350)


class TestHierarchy:
    def test_cold_miss_costs_full_path(self, hierarchy):
        latency, level = hierarchy.access_ex(0, is_write=False)
        assert level == "mem"
        assert latency == (
            ns_to_cycles(1.0) + ns_to_cycles(10.0) + ns_to_cycles(30.0) + 350
        )

    def test_l1_hit_after_fill(self, hierarchy):
        hierarchy.access_ex(0, is_write=False)
        latency, level = hierarchy.access_ex(0, is_write=False)
        assert level == "l1"
        assert latency == ns_to_cycles(1.0)

    def test_invalidate_forces_reload(self, hierarchy):
        hierarchy.access_ex(0, is_write=False)
        hierarchy.invalidate(0)
        _, level = hierarchy.access_ex(0, is_write=False)
        assert level in ("llc", "mem")  # still in the shared LLC

    def test_llc_hit_path(self, hierarchy):
        hierarchy.access_ex(0, is_write=False)
        hierarchy.invalidate(0)
        latency, level = hierarchy.access_ex(0, is_write=False)
        assert level == "llc"
        assert latency == ns_to_cycles(1.0) + ns_to_cycles(10.0) + ns_to_cycles(30.0)

    def test_write_marks_dirty_in_l1(self, hierarchy):
        hierarchy.access_ex(0, is_write=True)
        _, level = hierarchy.access_ex(0, is_write=False)
        assert level == "l1"

    def test_private_eviction_callback(self, stats):
        evicted = []
        l1 = small_cache(stats, size=128, ways=1, scope="l1")  # 2 lines
        l2 = small_cache(stats, size=256, ways=1, scope="l2")  # 4 lines
        llc = small_cache(stats, size=8192, ways=4, scope="llc")
        hierarchy = CacheHierarchy(
            l1, l2, llc,
            memory_latency=lambda line: 100,
            on_private_eviction=lambda line, dirty: evicted.append(line),
        )
        # Touch many same-set lines to force L2 evictions.
        for i in range(8):
            hierarchy.access_ex(i * 256, is_write=True)
        assert evicted  # someone fell out of the private levels

    def test_llc_eviction_callback(self, stats):
        dropped = []
        l1 = small_cache(stats, size=128, ways=1, scope="l1")
        l2 = small_cache(stats, size=256, ways=1, scope="l2")
        llc = small_cache(stats, size=256, ways=1, scope="llc")  # tiny LLC
        hierarchy = CacheHierarchy(
            l1, l2, llc,
            memory_latency=lambda line: 100,
            on_llc_eviction=lambda line, dirty: dropped.append(line),
        )
        for i in range(12):
            hierarchy.access_ex(i * 256, is_write=False)
        assert dropped
