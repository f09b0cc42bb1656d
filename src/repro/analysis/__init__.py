"""Analysis utilities: hardware-cost models and result rendering.

Experiment grids are run by :func:`repro.exp.run_grid`.

- :mod:`repro.analysis.cacti`  -- analytical CAM/SRAM cost model
  calibrated to the paper's CACTI 7 @ 22 nm numbers (Table V) plus the
  draining-energy comparison of Section VII-D.
- :mod:`repro.analysis.report` -- plain-text table/series rendering used
  by the benchmarks and EXPERIMENTS.md.
"""

from repro.analysis.cacti import (
    DrainingCost,
    HardwareCost,
    draining_comparison,
    table_v,
)
from repro.analysis.report import render_series, render_table

__all__ = [
    "DrainingCost",
    "HardwareCost",
    "draining_comparison",
    "render_series",
    "render_table",
    "table_v",
]
