"""Property-based tests on the core data structures."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.coherence.bloom import CountingBloomFilter
from repro.core.recovery_table import RecoveryTable
from repro.mem.wpq import WritePendingQueue
from repro.sim.engine import Engine
from repro.sim.stats import Histogram, StatsRegistry, TimeWeightedStat

lines = st.integers(min_value=0, max_value=63).map(lambda i: i * 64)


class TestBloomProperties:
    @given(st.lists(lines, max_size=40))
    @settings(max_examples=50)
    def test_no_false_negatives(self, added):
        bloom = CountingBloomFilter(128, 2)
        for line in added:
            bloom.add(line)
        assert all(line in bloom for line in added)

    @given(st.lists(lines, min_size=1, max_size=40), st.data())
    @settings(max_examples=50)
    def test_discard_preserves_other_members(self, added, data):
        bloom = CountingBloomFilter(64, 2)
        for line in added:
            bloom.add(line)
        victim = data.draw(st.sampled_from(added))
        bloom.discard(victim)
        remaining = list(added)
        remaining.remove(victim)
        assert all(line in bloom for line in remaining)

    @given(st.lists(lines, max_size=40))
    @settings(max_examples=30)
    def test_add_discard_all_returns_to_empty_population(self, added):
        bloom = CountingBloomFilter(128, 2)
        for line in added:
            bloom.add(line)
        for line in added:
            bloom.discard(line)
        assert len(bloom) == 0


class TestWPQProperties:
    @given(st.lists(lines, max_size=60))
    @settings(max_examples=50)
    def test_drain_yields_each_line_once_in_first_push_order(self, pushed):
        engine = Engine()
        stats = StatsRegistry()
        wpq = WritePendingQueue(engine, capacity=64, stats=stats, scope="t")
        for line in pushed:
            assert wpq.push(line)
        drained = []
        while len(wpq):
            drained.append(wpq.pop_head())
        assert drained == list(dict.fromkeys(pushed))

    @given(st.lists(lines, max_size=200))
    @settings(max_examples=30)
    def test_occupancy_never_exceeds_capacity(self, pushed):
        engine = Engine()
        stats = StatsRegistry()
        wpq = WritePendingQueue(engine, capacity=8, stats=stats, scope="t")
        for line in pushed:
            if not wpq.push(line):
                wpq.pop_head()
                assert wpq.push(line)
            assert len(wpq) <= 8


class TestRecoveryTableProperties:
    @given(
        st.lists(
            st.tuples(lines, st.integers(0, 3), st.integers(1, 5)),
            max_size=60,
        )
    )
    @settings(max_examples=50)
    def test_occupancy_bounded_and_commit_cleans(self, events):
        """Apply a random stream of early flushes and commits; the table
        never exceeds capacity, and committing every epoch empties it."""
        engine = Engine()
        stats = StatsRegistry()
        rt = RecoveryTable(engine, capacity=8, stats=stats, scope="t")
        touched = set()
        for line, core, ts in events:
            if rt.has_undo(line):
                rt.add_delay(line, 1, core, ts)
            else:
                rt.create_undo(line, 0, core, ts)
            touched.add((core, ts))
            assert len(rt) <= 8
        for core, ts in sorted(touched):
            released = rt.process_commit(core, ts)
            for _line, _wid in released:
                pass  # controller would persist these
        assert len(rt) == 0

    @given(st.lists(st.tuples(lines, st.integers(1, 100)), max_size=30))
    @settings(max_examples=50)
    def test_undo_values_trace_safe_updates(self, safe_values):
        """update_undo always leaves the record at the latest safe value."""
        engine = Engine()
        stats = StatsRegistry()
        rt = RecoveryTable(engine, capacity=64, stats=stats, scope="t")
        latest = {}
        for line, value in safe_values:
            if not rt.has_undo(line):
                rt.create_undo(line, 0, core=0, epoch_ts=1)
                latest.setdefault(line, 0)
            rt.update_undo(line, value)
            latest[line] = value
        for line, value in latest.items():
            assert rt.undo_for(line).safe_value == value


class TestHistogramProperties:
    @given(st.lists(st.integers(0, 31), min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_mean_matches_reference(self, values):
        hist = Histogram("h", 31)
        for value in values:
            hist.record(value)
        assert hist.mean() == pytest.approx(sum(values) / len(values))

    @given(st.lists(st.integers(0, 31), min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_percentiles_monotone(self, values):
        hist = Histogram("h", 31)
        for value in values:
            hist.record(value)
        ps = [hist.percentile(p) for p in (10, 50, 90, 99, 100)]
        assert ps == sorted(ps)
        assert ps[-1] == max(values)

    @given(
        st.lists(
            st.tuples(st.integers(1, 50), st.integers(0, 15)),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=50)
    def test_time_weighted_mean_bounded(self, intervals):
        stat = TimeWeightedStat("occ", 15)
        now = 0
        for duration, level in intervals:
            stat.update(now, level)
            now += duration
        stat.finish(now)
        levels = [level for _d, level in intervals]
        assert min(levels) <= stat.mean() <= max(levels)
