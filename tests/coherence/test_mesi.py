"""Unit and property tests for the MESI directory protocol."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.coherence.mesi import LineState, MESIDirectory
from repro.sim.stats import StatsRegistry


@pytest.fixture
def mesi(stats):
    return MESIDirectory(num_cores=4, stats=stats)


LINE = 0x1000


class TestReads:
    def test_first_read_takes_exclusive(self, mesi):
        transition = mesi.read(0, LINE)
        assert transition.new_state is LineState.EXCLUSIVE
        assert not transition.cache_to_cache
        assert mesi.state_of(0, LINE) is LineState.EXCLUSIVE

    def test_second_reader_shares_and_downgrades(self, mesi):
        mesi.read(0, LINE)
        transition = mesi.read(1, LINE)
        assert transition.new_state is LineState.SHARED
        assert transition.downgraded == [0]
        assert transition.cache_to_cache
        assert mesi.state_of(0, LINE) is LineState.SHARED

    def test_read_hit_is_silent(self, mesi):
        mesi.read(0, LINE)
        transition = mesi.read(0, LINE)
        assert transition.new_state is LineState.EXCLUSIVE
        assert not transition.downgraded
        assert transition.source is None

    def test_read_of_modified_line_downgrades_writer(self, mesi):
        mesi.write(0, LINE, epoch_ts=3)
        transition = mesi.read(1, LINE)
        assert transition.cache_to_cache
        assert mesi.state_of(0, LINE) is LineState.SHARED
        assert transition.source is not None
        assert transition.source.core == 0
        assert transition.source.epoch_ts == 3

    def test_read_after_own_write_carries_no_source(self, mesi):
        mesi.write(0, LINE, epoch_ts=3)
        transition = mesi.read(0, LINE)
        assert transition.source is None


class TestWrites:
    def test_first_write_takes_modified(self, mesi):
        transition = mesi.write(0, LINE, epoch_ts=1)
        assert transition.new_state is LineState.MODIFIED
        assert transition.invalidated == []

    def test_write_invalidates_sharers(self, mesi):
        mesi.read(0, LINE)
        mesi.read(1, LINE)
        mesi.read(2, LINE)
        transition = mesi.write(3, LINE, epoch_ts=1)
        assert transition.invalidated == [0, 1, 2]
        for core in (0, 1, 2):
            assert mesi.state_of(core, LINE) is LineState.INVALID

    def test_write_steals_modified_line(self, mesi):
        mesi.write(0, LINE, epoch_ts=5)
        transition = mesi.write(1, LINE, epoch_ts=2)
        assert transition.invalidated == [0]
        assert transition.cache_to_cache
        assert transition.source.core == 0
        assert transition.source.epoch_ts == 5

    def test_upgrade_from_shared_is_not_a_transfer(self, mesi):
        mesi.read(0, LINE)
        mesi.read(1, LINE)
        transition = mesi.write(0, LINE, epoch_ts=1)
        assert transition.invalidated == [1]
        assert not transition.cache_to_cache  # data already local

    def test_write_hit_in_modified_is_silent(self, mesi):
        mesi.write(0, LINE, epoch_ts=1)
        transition = mesi.write(0, LINE, epoch_ts=2)
        assert transition.invalidated == []
        assert transition.source is None  # own write


class TestEvictions:
    def test_evicted_copy_refetches(self, mesi):
        mesi.read(0, LINE)
        mesi.evict(0, LINE)
        assert mesi.state_of(0, LINE) is LineState.INVALID
        transition = mesi.read(0, LINE)
        assert transition.new_state is LineState.EXCLUSIVE

    def test_last_writer_survives_eviction(self, mesi):
        """Dependence info outlives the cached copy: the directory must
        still name the last writer after its line fell out of the cache."""
        mesi.write(0, LINE, epoch_ts=7)
        mesi.evict(0, LINE)
        transition = mesi.read(1, LINE)
        assert transition.source is not None
        assert transition.source.epoch_ts == 7


class TestDirectoryCompatibility:
    def test_owner_of(self, mesi):
        assert mesi.owner_of(LINE) is None
        mesi.write(2, LINE, epoch_ts=9)
        owner = mesi.owner_of(LINE)
        assert (owner.core, owner.epoch_ts) == (2, 9)

    def test_update_writer_epoch(self, mesi):
        mesi.write(1, LINE, epoch_ts=4)
        mesi.update_writer_epoch(LINE, 1, 6)
        assert mesi.owner_of(LINE).epoch_ts == 6
        # a different core's update is ignored (stale)
        mesi.update_writer_epoch(LINE, 0, 99)
        assert mesi.owner_of(LINE).epoch_ts == 6

    def test_sharers_of(self, mesi):
        mesi.read(0, LINE)
        mesi.read(1, LINE)
        assert mesi.sharers_of(LINE) == {0, 1}


class TestSWMRProperty:
    @given(
        accesses=st.lists(
            st.tuples(
                st.integers(0, 3),  # core
                st.integers(0, 3),  # line index
                st.sampled_from(["r", "w", "e"]),
            ),
            max_size=120,
        )
    )
    @settings(max_examples=120, deadline=None)
    def test_random_access_streams_maintain_swmr(self, accesses):
        """The single-writer / multiple-reader invariant holds under any
        interleaving of reads, writes, and evictions."""
        mesi = MESIDirectory(num_cores=4, stats=StatsRegistry())
        for core, line_index, kind in accesses:
            line = 0x1000 + line_index * 64
            if kind == "r":
                mesi.read(core, line)
            elif kind == "w":
                mesi.write(core, line, epoch_ts=1)
            else:
                mesi.evict(core, line)
            mesi.check_swmr(line)  # explicit re-check

    @given(
        accesses=st.lists(
            st.tuples(st.integers(0, 3), st.sampled_from(["r", "w"])),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_last_writer_is_the_most_recent_write(self, accesses):
        mesi = MESIDirectory(num_cores=4, stats=StatsRegistry())
        last_writer = None
        for step, (core, kind) in enumerate(accesses):
            if kind == "w":
                mesi.write(core, LINE, epoch_ts=step + 1)
                last_writer = (core, step + 1)
            else:
                mesi.read(core, LINE)
        owner = mesi.owner_of(LINE)
        if last_writer is None:
            assert owner is None
        else:
            assert (owner.core, owner.epoch_ts) == last_writer
