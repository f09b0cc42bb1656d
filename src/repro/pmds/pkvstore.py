"""A recoverable hash key-value store with out-of-place updates.

Layout: ``buckets`` head lines (each holding the slot number of its
newest entry) and an entry pool.  A ``put``:

1. writes the new entry out of place -- key, value, and the slot of the
   previous bucket head (the chain link);
2. ofence -- the entry must be durable before anything names it;
3. publishes the bucket head.

Because of step 2's ordering, a recovered head pointer can never name an
entry that failed to persist, and a recovered chain link can never
dangle: the pointed-to entry is always older, hence (by per-bucket epoch
ordering) durable.  :meth:`PersistentKVStore.recover` walks every chain
and reports any dangling pointer -- which only unsound hardware produces.

Writers take a per-bucket lock (fine-grained, CCEH-style), so the store
is multi-thread safe under release persistency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List

from repro.core.api import Acquire, Load, OFence, Op, PMAllocator, Release, Store
from repro.core.crash import CrashState

LINE = 64
NO_ENTRY = -1


@dataclass(frozen=True)
class KVEntry:
    """Payload of one out-of-place entry."""

    key: object
    value: object
    prev_slot: int  # chain link: slot of the previous bucket head


@dataclass(frozen=True)
class HeadPointer:
    """Payload of a bucket head: names the newest entry's slot."""

    slot: int


@dataclass
class KVRecovery:
    """Result of recovering the store from a crash image."""

    #: key -> recovered value (newest durable put per key).
    values: Dict[object, object]
    #: bucket indices whose head named a missing entry.
    dangling: List[int] = field(default_factory=list)
    #: number of entries reached by chain walks.
    entries_found: int = 0

    @property
    def clean(self) -> bool:
        return not self.dangling


class PersistentKVStore:
    """A recoverable chained-hash KV store."""

    def __init__(
        self, heap: PMAllocator, buckets: int = 8, pool_slots: int = 128
    ) -> None:
        self.num_buckets = buckets
        self.pool_slots = pool_slots
        self.heads = heap.alloc_lines(buckets)
        self.pool = heap.alloc_lines(pool_slots)
        self.locks = [heap.alloc_lock() for _ in range(buckets)]
        self._next_slot = 0
        #: volatile shadow: bucket -> newest slot (what the heads *should*
        #: say), plus key -> value for assertions.
        self._head_shadow: Dict[int, int] = {}
        self.shadow: Dict[object, object] = {}

    def bucket_of(self, key: object) -> int:
        return hash(key) % self.num_buckets

    def head_addr(self, bucket: int) -> int:
        return self.heads + bucket * LINE

    def slot_addr(self, slot: int) -> int:
        return self.pool + slot * LINE

    def put(self, key: object, value: object) -> Iterator[Op]:
        """Yield the ops of one insert/update (caller runs them)."""
        if self._next_slot >= self.pool_slots:
            raise ValueError("entry pool exhausted")
        bucket = self.bucket_of(key)
        yield Acquire(self.locks[bucket])
        yield Load(self.head_addr(bucket), 8)
        slot = self._next_slot
        self._next_slot += 1
        prev = self._head_shadow.get(bucket, NO_ENTRY)
        self.shadow[key] = value
        self._head_shadow[bucket] = slot
        # 1. the entry, out of place
        yield Store(
            self.slot_addr(slot), 48,
            payload=KVEntry(key=key, value=value, prev_slot=prev),
        )
        # 2. entry before pointer
        yield OFence()
        # 3. publish
        yield Store(self.head_addr(bucket), 8, payload=HeadPointer(slot=slot))
        yield Release(self.locks[bucket])

    # ------------------------------------------------------------------

    def recover(self, state: CrashState) -> KVRecovery:
        """Walk every bucket chain in the crash image."""
        values: Dict[object, object] = {}
        dangling: List[int] = []
        found = 0
        for bucket in range(self.num_buckets):
            head = state.surviving_payload(self.head_addr(bucket))
            if not isinstance(head, HeadPointer):
                continue  # bucket never published (or head lost): empty
            slot = head.slot
            while slot != NO_ENTRY:
                entry = state.surviving_payload(self.slot_addr(slot))
                if not isinstance(entry, KVEntry):
                    # A pointer (head or chain link) names an entry that
                    # never persisted -- impossible with correct persist
                    # ordering, since every entry is ordered before the
                    # pointer that names it.
                    dangling.append(bucket)
                    break
                found += 1
                # chains go newest-first; keep the newest value per key.
                values.setdefault(entry.key, entry.value)
                slot = entry.prev_slot
        return KVRecovery(values=values, dangling=dangling, entries_found=found)


__all__ = ["HeadPointer", "KVEntry", "KVRecovery", "PersistentKVStore"]
