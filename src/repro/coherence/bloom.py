"""Counting Bloom filter for NACKed flush addresses.

Section V-F: when a flush is NACKed by a memory controller (recovery table
full), the data sits in the persist buffer until it can be retried as a
safe flush.  During that window the corresponding cache line must not be
silently dropped by an LLC eviction -- a later load would then read stale
memory.  ASAP populates a counting Bloom filter at the memory controller
with NACKed flush addresses; LLC evictions that hit in the filter are
delayed, and the entry is removed when the flush is retried successfully.

A *counting* filter is required because several NACKed addresses can share
hash buckets; plain bits could not be cleared safely.
"""

from __future__ import annotations

from typing import Dict, List


class CountingBloomFilter:
    """A small counting Bloom filter over cache-line addresses."""

    def __init__(self, num_bits: int = 256, num_hashes: int = 2) -> None:
        if num_bits < 1 or num_hashes < 1:
            raise ValueError("filter geometry must be positive")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._counters = [0] * num_bits
        self._population = 0
        self._index_memo: Dict[int, List[int]] = {}

    def _indices(self, line: int) -> List[int]:
        # Pure function of the line address; memoized because every LLC
        # eviction and every admitted flush probes the filter.
        indices = self._index_memo.get(line)
        if indices is not None:
            return indices
        indices = []
        h = line
        for i in range(self.num_hashes):
            # Cheap deterministic double hashing over the line address.
            h = (h * 0x9E3779B97F4A7C15 + i * 0xBF58476D1CE4E5B9) & (2**64 - 1)
            indices.append((h >> 17) % self.num_bits)
        self._index_memo[line] = indices
        return indices

    def add(self, line: int) -> None:
        for index in self._indices(line):
            self._counters[index] += 1
        self._population += 1

    def discard(self, line: int) -> None:
        """Remove one occurrence of ``line`` if it may be present.

        Counting filters cannot tell whether the exact element was added,
        so this decrements only when every counter is positive (the filter
        claims membership).  Removing an element that was never added can
        therefore under-count another element -- callers (the MC NACK path)
        only discard lines they previously added.
        """
        if self._population == 0:
            # every counter is zero (adds and removes balanced), so the
            # membership test below could never pass.
            return
        indices = self._indices(line)
        if all(self._counters[i] > 0 for i in indices):
            for index in indices:
                self._counters[index] -= 1
            self._population = max(0, self._population - 1)

    def __contains__(self, line: int) -> bool:
        if self._population == 0:
            return False
        return all(self._counters[i] > 0 for i in self._indices(line))

    def __len__(self) -> int:
        """Number of elements currently counted (upper bound)."""
        return self._population


__all__ = ["CountingBloomFilter"]
