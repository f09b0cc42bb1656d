"""Shared infrastructure for the figure/table benchmarks.

Every benchmark regenerates one of the paper's evaluation artifacts
(Figures 2, 3, 8-13 and Table V).  Each writes its rows/series to
``benchmarks/results/<name>.txt`` and prints them, so the numbers can be
compared against the paper and pasted into EXPERIMENTS.md.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.exp import ResultCache, make_executor, run_grid

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Executor of the figure grids: ``REPRO_BENCH_JOBS=4 pytest
#: benchmarks/`` fans every sweep out; unset/0/1 keeps them serial.
BENCH_EXECUTOR = make_executor(int(os.environ.get("REPRO_BENCH_JOBS", "0")))

#: Result cache: ``REPRO_BENCH_CACHE=/tmp/repro-cache`` makes re-runs of
#: the harness skip every already-computed cell.
BENCH_CACHE = (
    ResultCache(os.environ["REPRO_BENCH_CACHE"])
    if os.environ.get("REPRO_BENCH_CACHE") else None
)


def bench_grid(workloads, models, machine=None, **kwargs):
    """The benchmarks' single entry into the :mod:`repro.exp` engine.

    Identical to :func:`repro.exp.run_grid` but wired to the harness's
    ``REPRO_BENCH_JOBS`` / ``REPRO_BENCH_CACHE`` environment knobs.
    """
    kwargs.setdefault("executor", BENCH_EXECUTOR)
    kwargs.setdefault("cache", BENCH_CACHE)
    return run_grid(workloads, models, machine, **kwargs)

#: Operations per thread used by the figure sweeps.  Large enough to
#: reach buffer steady state (the calibration analysis showed transients
#: die out after ~30-50 ops), small enough to keep the whole harness at a
#: few minutes.
FIGURE_OPS = 150


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def record(results_dir):
    """Write a named result artifact and echo it to stdout."""

    def _record(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n=== {name} ===\n{text}\n")

    return _record


def geomean(values):
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))
