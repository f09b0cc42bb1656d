"""Unit tests for the statistics registry."""

import pytest

from repro.sim.stats import (
    Counter,
    Histogram,
    TABLE_VI_COUNTERS,
    TimeWeightedStat,
)


class TestCounter:
    def test_increment(self):
        counter = Counter("x")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6


class TestHistogram:
    def test_mean(self):
        hist = Histogram("h", 10)
        hist.record(2)
        hist.record(4)
        assert hist.mean() == pytest.approx(3.0)

    def test_weighted_mean(self):
        hist = Histogram("h", 10)
        hist.record(0, weight=3)
        hist.record(10, weight=1)
        assert hist.mean() == pytest.approx(2.5)

    def test_percentile(self):
        hist = Histogram("h", 100)
        for value in range(1, 101):
            hist.record(value)
        assert hist.percentile(50) == 50
        assert hist.percentile(99) == 99
        assert hist.percentile(100) == 100

    def test_percentile_empty(self):
        assert Histogram("h", 10).percentile(99) == 0

    def test_percentile_out_of_range(self):
        hist = Histogram("h", 10)
        hist.record(1)
        with pytest.raises(ValueError):
            hist.percentile(101)

    def test_values_clamped_to_max(self):
        hist = Histogram("h", 4)
        hist.record(99)
        assert hist.max_observed() == 4

    def test_zero_weight_ignored(self):
        hist = Histogram("h", 4)
        hist.record(2, weight=0)
        assert hist.samples == 0


class TestTimeWeightedStat:
    def test_levels_weighted_by_duration(self):
        stat = TimeWeightedStat("occ", 10)
        stat.update(0, 2)  # level 0 held for 0 cycles
        stat.update(10, 4)  # level 2 held for 10 cycles
        stat.finish(20)  # level 4 held for 10 cycles
        assert stat.mean() == pytest.approx(3.0)

    def test_p99_tracks_peak_levels(self):
        stat = TimeWeightedStat("occ", 10)
        stat.update(0, 1)
        stat.update(985, 9)  # level 1 for 985 cycles (< 99%)
        stat.finish(1000)  # level 9 for 15 cycles
        assert stat.p99() == 9

    def test_p99_with_exact_99_percent_below(self):
        stat = TimeWeightedStat("occ", 10)
        stat.update(0, 1)
        stat.update(990, 9)  # level 1 for exactly 99% of the time
        stat.finish(1000)
        assert stat.p99() == 1  # P(X <= 1) >= 0.99 already holds

    def test_max_observed_includes_current_level(self):
        stat = TimeWeightedStat("occ", 10)
        stat.update(5, 7)
        assert stat.max_observed() == 7

    def test_time_backwards_raises(self):
        stat = TimeWeightedStat("occ", 10)
        stat.update(10, 1)
        with pytest.raises(ValueError):
            stat.update(5, 2)

    def test_finish_idempotent(self):
        stat = TimeWeightedStat("occ", 10)
        stat.update(0, 3)
        stat.finish(10)
        stat.finish(10)
        assert stat.mean() == pytest.approx(3.0)


class TestStatsRegistry:
    def test_table_vi_counters_preregistered(self, stats):
        assert set(stats.table_vi()) == set(TABLE_VI_COUNTERS)
        assert all(v == 0 for v in stats.table_vi().values())

    def test_scoped_counters_sum_in_total(self, stats):
        stats.inc("pm_writes", 3, scope="mc0")
        stats.inc("pm_writes", 4, scope="mc1")
        assert stats.total("pm_writes") == 7
        assert stats.get("pm_writes", scope="mc0") == 3

    def test_scopes_listing(self, stats):
        stats.inc("x", scope="b")
        stats.inc("x", scope="a")
        assert stats.scopes("x") == ["a", "b"]

    def test_as_dict_merges_scopes(self, stats):
        stats.inc("y", 2, scope="core0")
        stats.inc("y", 3)
        assert stats.as_dict()["y"] == 5

    def test_weighted_stats_finish(self, stats):
        stat = stats.weighted("pb_occupancy", 32, scope="core0")
        stat.update(0, 5)
        stats.finish(100)
        assert stat.mean() == pytest.approx(5.0)

    def test_dump_format(self, stats):
        stats.inc("alpha", 7)
        text = stats.dump(["alpha"])
        assert text == "alpha = 7"
