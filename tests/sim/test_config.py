"""Unit tests for the configuration dataclasses."""

import pytest

from repro.sim.config import (
    CacheConfig,
    HardwareModel,
    MachineConfig,
    PersistencyModel,
    RunConfig,
    TABLE_II_CONFIG,
)
from repro.sim.engine import CPU_FREQ_GHZ


class TestTableIIDefaults:
    """The default configuration mirrors the paper's Table II."""

    def test_core_and_mc_counts(self):
        assert TABLE_II_CONFIG.num_cores == 4
        assert TABLE_II_CONFIG.num_mcs == 2

    def test_cache_geometry(self):
        assert TABLE_II_CONFIG.l1.size_bytes == 32 * 1024
        assert TABLE_II_CONFIG.l1.ways == 8
        assert TABLE_II_CONFIG.l2.size_bytes == 2 * 1024 * 1024
        assert TABLE_II_CONFIG.llc.size_bytes == 16 * 1024 * 1024
        assert TABLE_II_CONFIG.llc.ways == 16

    def test_buffer_sizes(self):
        assert TABLE_II_CONFIG.pb_entries == 32
        assert TABLE_II_CONFIG.et_entries == 32
        assert TABLE_II_CONFIG.rt_entries == 32
        assert TABLE_II_CONFIG.wpq_entries == 16

    def test_nvm_latencies(self):
        assert TABLE_II_CONFIG.nvm.read_latency_ns == 175.0
        assert TABLE_II_CONFIG.nvm.write_latency_ns == 90.0

    def test_flush_latency(self):
        assert TABLE_II_CONFIG.pb_flush_ns == 60.0

    def test_hops_polling_parameters(self):
        assert TABLE_II_CONFIG.hops_poll_interval_cycles == 500
        assert TABLE_II_CONFIG.hops_poll_access_cycles == 50


class TestCacheConfig:
    def test_num_sets(self):
        cache = CacheConfig(32 * 1024, 8, 1.0)
        assert cache.num_sets == 64

    def test_too_small_cache_raises(self):
        with pytest.raises(ValueError):
            CacheConfig(32, 8, 1.0).num_sets


class TestValidation:
    def test_zero_cores_rejected(self):
        with pytest.raises(ValueError):
            MachineConfig(num_cores=0)

    def test_zero_mcs_rejected(self):
        with pytest.raises(ValueError):
            MachineConfig(num_mcs=0)

    def test_misaligned_interleave_rejected(self):
        with pytest.raises(ValueError):
            MachineConfig(interleave_bytes=100)

    def test_zero_pb_rejected(self):
        with pytest.raises(ValueError):
            MachineConfig(pb_entries=0)

    def test_clock_rate_other_than_the_engines_rejected(self):
        """Every cycle conversion uses the engine's one clock rate, so any
        other value would only change the run's spec key and crash-point
        seeds, not its timing."""
        assert MachineConfig().cpu_freq_ghz == CPU_FREQ_GHZ
        with pytest.raises(ValueError, match="cpu_freq_ghz"):
            MachineConfig(cpu_freq_ghz=3.0)


class TestDerivedConfigs:
    def test_with_cores(self):
        cfg = TABLE_II_CONFIG.with_cores(8)
        assert cfg.num_cores == 8
        assert cfg.num_mcs == TABLE_II_CONFIG.num_mcs

    def test_with_mcs(self):
        cfg = TABLE_II_CONFIG.with_mcs(4)
        assert cfg.num_mcs == 4

    def test_scaled_nvm_write(self):
        cfg = TABLE_II_CONFIG.scaled_nvm_write(0.5)
        assert cfg.nvm.write_latency_ns == pytest.approx(45.0)
        assert TABLE_II_CONFIG.nvm.write_latency_ns == 90.0  # original intact

    def test_configs_are_frozen(self):
        with pytest.raises(Exception):
            TABLE_II_CONFIG.num_cores = 8


class TestEnums:
    def test_hardware_models_cover_evaluation(self):
        names = {m.value for m in HardwareModel}
        assert {
            "baseline", "hops", "asap", "eadr", "vorpal", "asap_no_undo",
        } == names

    def test_persistency_models(self):
        assert PersistencyModel.EPOCH.value == "epoch"
        assert PersistencyModel.RELEASE.value == "release"

    def test_run_config_defaults(self):
        rc = RunConfig()
        assert rc.hardware is HardwareModel.ASAP
        assert rc.persistency is PersistencyModel.RELEASE
