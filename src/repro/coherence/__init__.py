"""Cache and coherence substrate.

Provides the three-level cache hierarchy (private L1/L2, shared LLC), a
MESI directory that tracks last writers and carries the epoch-dependence
information ASAP piggybacks on coherence messages (Section IV-E), the
write-back buffer that delays private-cache evictions of lines still queued
in a persist buffer (Section V-F), and the counting Bloom filter that guards
LLC evictions of NACKed flushes (Section V-F).
"""

from repro.coherence.cache import Cache, CacheHierarchy
from repro.coherence.mesi import LineState, MESIDirectory, OwnerInfo, Transition
from repro.coherence.wbb import WriteBackBuffer
from repro.coherence.bloom import CountingBloomFilter

__all__ = [
    "Cache",
    "CacheHierarchy",
    "CountingBloomFilter",
    "LineState",
    "MESIDirectory",
    "OwnerInfo",
    "Transition",
    "WriteBackBuffer",
]
