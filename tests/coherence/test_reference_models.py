"""The compact cache and directory state against reference models.

``Cache`` keeps a set as a list in LRU order with one dirty-line set per
level, and ``MESIDirectory`` keeps a line as one owner slot plus a sharer
bitmask.  These properties drive random op sequences through both and
through straightforward models kept here -- an ``OrderedDict`` per set,
and a dict of per-core states per line -- and require every return
value, evicted victim, transition, query and counter to agree.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.coherence.cache import Cache
from repro.coherence.mesi import LineState, MESIDirectory, OwnerInfo
from repro.sim.config import CacheConfig
from repro.sim.stats import StatsRegistry

LINE_BYTES = 64
NUM_SETS = 2


class LRUModel:
    """A set-associative LRU cache as one ``OrderedDict`` of line ->
    dirty per set, least recently used first."""

    def __init__(self, ways: int) -> None:
        self.ways = ways
        self.sets: Dict[int, "OrderedDict[int, bool]"] = {}
        self.hits = self.misses = self.evictions = 0

    def _set(self, line: int) -> "OrderedDict[int, bool]":
        return self.sets.setdefault((line // LINE_BYTES) % NUM_SETS,
                                    OrderedDict())

    def lookup(self, line: int, touch: bool) -> bool:
        cache_set = self._set(line)
        if line in cache_set:
            if touch:
                cache_set.move_to_end(line)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def fill(self, line: int, dirty: bool) -> Optional[Tuple[int, bool]]:
        cache_set = self._set(line)
        if line in cache_set:
            cache_set[line] = cache_set[line] or dirty
            cache_set.move_to_end(line)
            return None
        victim = None
        if len(cache_set) >= self.ways:
            victim = cache_set.popitem(last=False)
            self.evictions += 1
        cache_set[line] = dirty
        return victim

    def mark_dirty(self, line: int) -> None:
        cache_set = self._set(line)
        if line in cache_set:
            cache_set[line] = True

    def invalidate(self, line: int) -> bool:
        return self._set(line).pop(line, None) is not None

    def __contains__(self, line: int) -> bool:
        return line in self._set(line)


def _cache(ways: int) -> Tuple[Cache, StatsRegistry]:
    stats = StatsRegistry()
    config = CacheConfig(NUM_SETS * ways * LINE_BYTES, ways, 1.0)
    cache = Cache(config, stats, scope="c")
    assert cache.num_sets == NUM_SETS
    return cache, stats


CACHE_OPS = st.lists(
    st.tuples(
        # fills and lookups weighted up, so sets fill and overflow often
        st.sampled_from(["lookup", "lookup", "fill", "fill", "fill",
                         "mark_dirty", "invalidate", "in"]),
        st.integers(0, 99),  # line, modulo the pool
        st.booleans(),  # touch for lookup, dirty for fill
    ),
    max_size=100,
)


@pytest.mark.parametrize("ways", [2, 4])
@given(ops=CACHE_OPS)
@settings(max_examples=150, deadline=None)
def test_cache_agrees_with_an_ordered_dict_lru(ways, ops):
    cache, stats = _cache(ways)
    model = LRUModel(ways)
    # one line more than a set holds, in each of the two sets
    pool = NUM_SETS * (ways + 1)
    for kind, index, flag in ops:
        line = index % pool * LINE_BYTES
        if kind == "lookup":
            assert cache.lookup(line, touch=flag) == model.lookup(line, flag)
        elif kind == "fill":
            assert cache.fill(line, dirty=flag) == model.fill(line, flag)
        elif kind == "mark_dirty":
            cache.mark_dirty(line)
            model.mark_dirty(line)
        elif kind == "invalidate":
            assert cache.invalidate(line) == model.invalidate(line)
        else:
            assert (line in cache) == (line in model)
        assert stats.get("cache_hits", scope="c") == model.hits
        assert stats.get("cache_misses", scope="c") == model.misses
        assert stats.get("cache_evictions", scope="c") == model.evictions
    # Push every line out through fresh ones: each victim's dirty bit
    # must match too.
    for fresh in range(pool, pool + NUM_SETS * ways):
        line = fresh * LINE_BYTES
        assert cache.fill(line) == model.fill(line, False)


def test_probing_an_absent_line_allocates_no_set():
    cache, stats = _cache(4)
    for index in range(10):
        line = index * LINE_BYTES
        assert not cache.lookup(line)
        cache.mark_dirty(line)
        assert not cache.invalidate(line)
        assert line not in cache
    assert cache._sets == {}
    assert stats.get("cache_misses", scope="c") == 10
    # and a set that loses its last line is dropped again
    cache.fill(0, dirty=True)
    assert cache.invalidate(0)
    assert cache._sets == {}


class MESIModel:
    """MESI as a dict of core -> state per line (absent = Invalid) and
    the last writer as a ``(core, epoch_ts)`` pair."""

    def __init__(self) -> None:
        self.states: Dict[int, Dict[int, LineState]] = {}
        self.writer: Dict[int, Tuple[int, int]] = {}
        self.downgrades = self.invalidations = 0

    def _source(self, core: int, line: int) -> Optional[Tuple[int, int]]:
        writer = self.writer.get(line)
        return writer if writer is not None and writer[0] != core else None

    def read(self, core: int, line: int) -> tuple:
        states = self.states.setdefault(line, {})
        if core in states:
            return (states[core], [], [], None, False)
        downgraded: List[int] = []
        for other, state in states.items():
            if state in (LineState.MODIFIED, LineState.EXCLUSIVE):
                states[other] = LineState.SHARED
                downgraded.append(other)
                self.downgrades += 1
        new_state = LineState.SHARED if states else LineState.EXCLUSIVE
        states[core] = new_state
        return (new_state, [], downgraded, self._source(core, line),
                bool(downgraded))

    def write(self, core: int, line: int, epoch_ts: int) -> tuple:
        states = self.states.setdefault(line, {})
        invalidated: List[int] = []
        cache_to_cache = False
        if states.get(core) is not LineState.MODIFIED:
            for other in sorted(states):
                if other == core:
                    continue
                if states[other] in (LineState.MODIFIED, LineState.EXCLUSIVE):
                    cache_to_cache = True
                del states[other]
                invalidated.append(other)
                self.invalidations += 1
        source = self._source(core, line)
        states[core] = LineState.MODIFIED
        self.writer[line] = (core, epoch_ts)
        return (LineState.MODIFIED, invalidated, [], source, cache_to_cache)

    def evict(self, core: int, line: int) -> None:
        self.states.get(line, {}).pop(core, None)

    def update_writer_epoch(self, line: int, core: int, epoch_ts: int) -> None:
        writer = self.writer.get(line)
        if writer is not None and writer[0] == core:
            self.writer[line] = (core, epoch_ts)


def _fields(transition) -> tuple:
    source = transition.source
    return (
        transition.new_state,
        list(transition.invalidated),
        list(transition.downgraded),
        None if source is None else (source.core, source.epoch_ts),
        transition.cache_to_cache,
    )


MESI_OPS = st.lists(
    st.tuples(
        st.sampled_from(["read", "write", "evict", "update"]),
        st.integers(0, 3),  # core
        st.integers(0, 2),  # line index
        st.integers(1, 6),  # epoch_ts
    ),
    max_size=80,
)


@given(ops=MESI_OPS)
@settings(max_examples=200, deadline=None)
def test_directory_agrees_with_a_dict_of_states(ops):
    stats = StatsRegistry()
    mesi = MESIDirectory(num_cores=4, stats=stats)
    model = MESIModel()
    for kind, core, index, epoch_ts in ops:
        line = 0x1000 + index * LINE_BYTES
        if kind == "read":
            assert _fields(mesi.read(core, line)) == model.read(core, line)
        elif kind == "write":
            assert _fields(mesi.write(core, line, epoch_ts)) == model.write(
                core, line, epoch_ts)
        elif kind == "evict":
            mesi.evict(core, line)
            model.evict(core, line)
        else:
            mesi.update_writer_epoch(line, core, epoch_ts)
            model.update_writer_epoch(line, core, epoch_ts)
        states = model.states.get(line, {})
        for other in range(4):
            assert mesi.state_of(other, line) is states.get(
                other, LineState.INVALID)
        writer = model.writer.get(line)
        assert mesi.owner_of(line) == (
            None if writer is None else OwnerInfo(*writer))
        assert mesi.sharers_of(line) == set(states)
        assert stats.get("mesi_downgrades") == model.downgrades
        assert stats.get("mesi_invalidations") == model.invalidations


def test_owner_info_is_a_hashable_value():
    assert OwnerInfo(1, 5) == OwnerInfo(core=1, epoch_ts=5)
    assert OwnerInfo(1, 5) != OwnerInfo(1, 6)
    assert OwnerInfo(1, 5) != (1, 5)
    assert len({OwnerInfo(1, 5), OwnerInfo(1, 5), OwnerInfo(2, 5)}) == 2
    assert repr(OwnerInfo(1, 5)) == "OwnerInfo(core=1, epoch_ts=5)"
    assert not hasattr(OwnerInfo(1, 5), "__dict__")
