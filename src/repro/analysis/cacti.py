"""Analytical hardware-cost model (Table V, Section VII-D).

The paper sizes ASAP's structures with CACTI 7 at the 22 nm node.  CACTI
itself is a large C++ tool; this module provides an analytical stand-in
*calibrated to the paper's own Table V outputs*, so the reference
configuration reproduces the published numbers exactly and nearby
configurations (the RT/PB size ablations) scale with standard
CAM/SRAM trends:

- area grows slightly sub-linearly with capacity (peripheral
  amortization), exponent 0.95;
- access latency grows with the square root of capacity (wordline/bitline
  lengths);
- access energy grows roughly linearly with the searched width, here
  modelled with exponent 0.9 over capacity.

Reference rows (Table V; PB and ET are per core, RT per controller):

================  ==========  =============  ============  ============
Structure         Area (mm2)  Latency (ns)   Write (pJ)    Read (pJ)
================  ==========  =============  ============  ============
Persist Buffer    0.093       0.402          30            28.876
Epoch Table       0.006       0.185          0.428         0.092
Recovery Table    0.097       0.413          31.5          31.5
32 KB L1 cache    0.759       1.403          327.86        327.85
================  ==========  =============  ============  ============
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

#: Table II capacities the reference numbers were computed at.
REF_ENTRIES = 32

AREA_EXPONENT = 0.95
LATENCY_EXPONENT = 0.5
ENERGY_EXPONENT = 0.9


@dataclass(frozen=True)
class HardwareCost:
    """Cost of one hardware structure."""

    name: str
    entries: int
    entry_bits: int
    area_mm2: float
    access_latency_ns: float
    write_energy_pj: float
    read_energy_pj: float

    def row(self) -> List[str]:
        return [
            self.name,
            str(self.entries),
            f"{self.area_mm2:.3f}",
            f"{self.access_latency_ns:.3f}",
            f"{self.write_energy_pj:.3f}",
            f"{self.read_energy_pj:.3f}",
        ]


@dataclass(frozen=True)
class _Reference:
    name: str
    entry_bits: int
    area_mm2: float
    latency_ns: float
    write_pj: float
    read_pj: float

    def scaled(self, entries: int) -> HardwareCost:
        ratio = entries / REF_ENTRIES
        return HardwareCost(
            name=self.name,
            entries=entries,
            entry_bits=self.entry_bits,
            area_mm2=self.area_mm2 * ratio**AREA_EXPONENT,
            access_latency_ns=self.latency_ns * ratio**LATENCY_EXPONENT,
            write_energy_pj=self.write_pj * ratio**ENERGY_EXPONENT,
            read_energy_pj=self.read_pj * ratio**ENERGY_EXPONENT,
        )


# Entry widths follow Figure 6b's field layout:
#  PB entry: line address (48b) + data (512b) + timestamp (32b) + state (4b)
#  ET entry: timestamp (32b) + write counters (16b) + dep core/ts (40b) +
#            dependent (40b) + flags (8b)
#  RT entry: line address (48b) + data (512b) + threadID (8b) + ts (32b)
PERSIST_BUFFER = _Reference("Persist Buffer", 596, 0.093, 0.402, 30.0, 28.876)
EPOCH_TABLE = _Reference("Epoch Table", 136, 0.006, 0.185, 0.428, 0.092)
RECOVERY_TABLE = _Reference("Recovery Table", 600, 0.097, 0.413, 31.5, 31.5)
L1_CACHE = _Reference("32KB L1 cache", 512, 0.759, 1.403, 327.86, 327.85)


def table_v(
    pb_entries: int = 32, et_entries: int = 32, rt_entries: int = 32
) -> List[HardwareCost]:
    """The Table V rows (plus the L1 comparison row) at given capacities."""
    return [
        PERSIST_BUFFER.scaled(pb_entries),
        EPOCH_TABLE.scaled(et_entries),
        RECOVERY_TABLE.scaled(rt_entries),
        # The L1 row is a fixed comparison point, not a scaled structure.
        HardwareCost(
            name=L1_CACHE.name,
            entries=512,
            entry_bits=L1_CACHE.entry_bits,
            area_mm2=L1_CACHE.area_mm2,
            access_latency_ns=L1_CACHE.latency_ns,
            write_energy_pj=L1_CACHE.write_pj,
            read_energy_pj=L1_CACHE.read_pj,
        ),
    ]


# ---------------------------------------------------------------------------
# Section VII-D: draining energy on power failure
# ---------------------------------------------------------------------------

#: energy to push one byte from on-chip buffers out to NVM on the
#: emergency power path (order-of-magnitude constant; only the *ratios*
#: between designs matter for the comparison).
DRAIN_NJ_PER_BYTE = 2.0


@dataclass(frozen=True)
class DrainingCost:
    """Data (and energy) that must be flushed when power fails."""

    design: str
    bytes_to_flush: int

    @property
    def energy_uj(self) -> float:
        return self.bytes_to_flush * DRAIN_NJ_PER_BYTE / 1000.0

    def row(self) -> List[str]:
        if self.bytes_to_flush >= 1 << 20:
            amount = f"{self.bytes_to_flush / (1 << 20):.1f} MB"
        else:
            amount = f"{self.bytes_to_flush / 1024:.1f} KB"
        return [self.design, amount, f"{self.energy_uj:.1f}"]


def draining_comparison(
    num_cores: int = 32,
    num_mcs: int = 2,
    dirty_fraction: float = 0.5,
    rt_entries: int = 32,
    bbb_buffer_bytes: int = 2048,
) -> List[DrainingCost]:
    """Reproduce the Section VII-D comparison for a 32-core server.

    eADR must flush every dirty block in the hierarchy (~42 MB at 50%
    dirty), BBB flushes its per-core battery-backed buffers (~64 KB), and
    ASAP flushes only the recovery tables in the memory controllers
    (< 4 KB) -- and unlike the other two, ASAP's flush domain is already
    at the controllers, not in the caches.
    """
    l1d = 32 * 1024
    l1i = 32 * 1024
    l2 = 2 * 1024 * 1024
    llc = 16 * 1024 * 1024
    cache_bytes = num_cores * (l1d + l1i + l2) + llc
    eadr = int(cache_bytes * dirty_fraction)
    bbb = num_cores * bbb_buffer_bytes
    # RT entry: 64B data + ~10B metadata; only the data needs writing out.
    asap = num_mcs * rt_entries * 64
    return [
        DrainingCost("eADR", eadr),
        DrainingCost("BBB", bbb),
        DrainingCost("ASAP", asap),
    ]


__all__ = [
    "DrainingCost",
    "HardwareCost",
    "draining_comparison",
    "table_v",
]
