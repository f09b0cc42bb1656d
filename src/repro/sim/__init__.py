"""Discrete-event simulation substrate.

This package provides the building blocks every hardware model in the
reproduction is assembled from:

- :mod:`repro.sim.engine` -- the event loop and simulated clock.
- :mod:`repro.sim.config` -- configuration dataclasses mirroring Table II of
  the paper.
- :mod:`repro.sim.stats` -- the statistics registry, including every counter
  listed in Table VI of the paper's artifact appendix.
"""

from repro.sim.config import (
    CacheConfig,
    MachineConfig,
    NVMConfig,
    PersistencyModel,
    TABLE_II_CONFIG,
)
from repro.sim.engine import Engine
from repro.sim.stats import Counter, Histogram, StatsRegistry, TimeWeightedStat

__all__ = [
    "CacheConfig",
    "Counter",
    "Engine",
    "Histogram",
    "MachineConfig",
    "NVMConfig",
    "PersistencyModel",
    "StatsRegistry",
    "TABLE_II_CONFIG",
    "TimeWeightedStat",
]
