#!/usr/bin/env python3
"""Regenerate the paper's headline figure with ASCII bars.

The original artifact ships ``reproduce_results.py`` which harvests gem5
``stats.txt`` files and plots Figure 8.  This is the analogous entry
point for this reproduction: it runs the full Table III suite under all
six models, prints the speedup table, draws an ASCII version of the
figure, and (optionally) writes per-run gem5-style stats files.

The grid executes through the :mod:`repro.exp` engine: ``--jobs N``
fans the (workload, model) cells out over N worker processes, and
``--cache-dir DIR`` re-uses deterministic results from earlier runs, so
iterating on one model reruns only that model's cells.

Usage:
    python scripts/reproduce_results.py [--ops N] [--threads N]
                                        [--jobs N] [--cache-dir DIR]
                                        [--stats-dir DIR] [--quick]
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.analysis.report import render_table
from repro.analysis.statsfile import write_stats
from repro.core.models import STANDARD_MODELS
from repro.exp import ResultCache, make_executor, run_grid
from repro.sim.config import MachineConfig
from repro.workloads import SUITE


def ascii_bar(value: float, scale: float = 18.0, vmax: float = 3.0) -> str:
    width = int(min(value, vmax) / vmax * scale)
    return "#" * max(1, width)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ops", type=int, default=150)
    parser.add_argument("--threads", type=int, default=4)
    parser.add_argument("--stats-dir", type=pathlib.Path,
                        help="also write per-run gem5-style stats files")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="run grid cells across N worker processes")
    parser.add_argument("--cache-dir", type=pathlib.Path,
                        help="reuse deterministic results cached here")
    parser.add_argument("--quick", action="store_true",
                        help="smaller runs (ops=60) for a fast smoke pass")
    args = parser.parse_args()
    ops = 60 if args.quick else args.ops

    config = MachineConfig(num_cores=args.threads)
    print(f"running {len(SUITE)} workloads x {len(STANDARD_MODELS)} models "
          f"({args.threads} threads, {ops} ops/thread)...")
    result = run_grid(
        SUITE, STANDARD_MODELS, config, ops_per_thread=ops,
        cache=ResultCache(args.cache_dir) if args.cache_dir else None,
        executor=make_executor(args.jobs),
    )
    model_names = [m.name for m in STANDARD_MODELS]

    rows = []
    for workload in result.workloads:
        rows.append([workload] + [
            f"{result.speedup(workload, m):.2f}" for m in model_names
        ])
    rows.append(["geomean"] + [
        f"{result.geomean_speedup(m):.2f}" for m in model_names
    ])
    print()
    print(render_table(["workload"] + model_names, rows,
                       title="Figure 8: speedup over the Intel baseline"))

    print()
    print("geomean speedups:")
    for model in model_names:
        value = result.geomean_speedup(model)
        print(f"  {model:10s} {value:5.2f}x  {ascii_bar(value)}")

    if args.stats_dir:
        args.stats_dir.mkdir(parents=True, exist_ok=True)
        for (workload, model), run in result.runs.items():
            path = args.stats_dir / f"{workload}.{model}.stats.txt"
            write_stats(run.result, path)
        print(f"\nwrote {len(result.runs)} stats files to {args.stats_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
