#!/usr/bin/env python3
"""Figure 8 in miniature: one workload across all six hardware designs.

Pick any Table III workload (default: the Dash-EH hash table, one of the
dependency-heavy structures the paper highlights) and run it on the
paper's 4-core / 2-MC machine under every evaluated model.  Prints the
speedup over the Intel baseline and the stall breakdown that explains it.

Run:  python examples/compare_models.py [workload] [ops_per_thread]
"""

import sys

from repro.analysis.report import render_table
from repro.core.models import STANDARD_MODELS
from repro.exp import run_grid
from repro.sim.config import MachineConfig
from repro.workloads import get_workload


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "dash_eh"
    ops = int(sys.argv[2]) if len(sys.argv) > 2 else 150
    workload_cls = type(get_workload(name))

    config = MachineConfig(num_cores=4)
    result = run_grid([workload_cls], STANDARD_MODELS, config,
                      ops_per_thread=ops)

    rows = []
    for model in [m.name for m in STANDARD_MODELS]:
        run = result.runs[(name, model)]
        stats = run.result.stats
        rows.append([
            model,
            run.runtime_cycles,
            f"{result.speedup(name, model):.2f}x",
            stats.total("interTEpochConflict"),
            stats.total("totSpecWrites"),
            stats.total("cyclesBlocked"),
            stats.total("dfenceStalled") + stats.total("sfenceStalled"),
        ])
    print(render_table(
        ["model", "cycles", "speedup", "cross-deps", "early flushes",
         "PB blocked", "fence stalls"],
        rows,
        title=f"{name} on 4 cores / 2 MCs ({ops} ops/thread)",
    ))
    print()
    print("Reading the table:")
    print(" * baseline pays fence stalls (the core waits for every flush);")
    print(" * HOPS moves the cost into PB blocked cycles (conservative")
    print("   flushing can't issue writes whose epoch isn't safe);")
    print(" * ASAP's early flushes make both stall columns collapse,")
    print("   landing within a few percent of the eADR ideal.")


if __name__ == "__main__":
    main()
