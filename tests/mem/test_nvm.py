"""Unit tests for the NVM device model."""

import pytest

from repro.sim.config import NVMConfig
from repro.sim.engine import ns_to_cycles
from repro.mem.nvm import NVMDevice, XPBuffer, XPLINE_BYTES


@pytest.fixture
def device(engine, stats):
    return NVMDevice(engine, NVMConfig(), stats, scope="mc0")


class TestXPBuffer:
    def test_miss_then_hit(self):
        buf = XPBuffer(4)
        assert buf.access(0) is False
        assert buf.access(0) is True

    def test_same_256b_block_hits(self):
        buf = XPBuffer(4)
        buf.access(0)
        assert buf.access(64) is True
        assert buf.access(192) is True

    def test_different_block_misses(self):
        buf = XPBuffer(4)
        buf.access(0)
        assert buf.access(XPLINE_BYTES) is False

    def test_lru_eviction(self):
        buf = XPBuffer(2)
        buf.access(0)
        buf.access(256)
        buf.access(512)  # evicts block 0
        assert 0 not in buf
        assert 256 in buf

    def test_hit_refreshes_lru(self):
        buf = XPBuffer(2)
        buf.access(0)
        buf.access(256)
        buf.access(0)  # refresh block 0
        buf.access(512)  # evicts 256, not 0
        assert 0 in buf
        assert 256 not in buf


class TestTiming:
    def test_cold_read_costs_media_latency(self, device):
        assert device.read_latency(0x9000) == ns_to_cycles(175.0)

    def test_xpbuffer_read_hit_is_cheap(self, device):
        cold = device.read_latency(0x9000)
        warm = device.read_latency(0x9000)
        assert warm < cold // 4

    def test_write_completion_callback(self, engine, device):
        done = []
        device.write(0, lambda: done.append(engine.now))
        engine.run()
        assert len(done) == 1
        assert done[0] >= ns_to_cycles(90.0) // 4  # at least buffered latency

    def test_parallel_banks_overlap(self, engine, stats):
        config = NVMConfig(write_parallelism=4, xpbuffer_lines=1)
        device = NVMDevice(engine, config, stats, scope="mc0")
        finish_times = []
        for i in range(4):
            device.write(i * 4096, lambda: finish_times.append(engine.now))
        engine.run()
        # All four run concurrently: they all finish at the same cycle.
        assert max(finish_times) == min(finish_times)

    def test_stats_counted(self, engine, device, stats):
        device.write(0, lambda: None)
        device.read_latency(4096)  # cold block: a real media read
        device.read_latency(4096)  # warm: served by the XPBuffer
        engine.run()
        assert stats.get("pm_writes", scope="mc0") == 1
        assert stats.get("pm_reads", scope="mc0") == 1
        assert stats.get("xpbuffer_read_hits", scope="mc0") == 1
