#!/usr/bin/env python3
"""Cross-thread dependencies up close: a concurrent persistent hash table.

The paper's motivation (Section III): modern concurrent persistent data
structures -- CCEH, Dash, the RECIPE conversions -- synchronize constantly,
so one thread's persists frequently depend on another's.  Conservative
designs stall flushing on every such dependency; ASAP flushes through
them speculatively and resolves them with direct CDR messages.

This example runs the CCEH workload at increasing thread counts and shows
how each design's throughput responds to the growing dependency rate
(Figure 10's mechanism).

Run:  python examples/concurrent_hashtable.py
"""

from repro.analysis.report import render_table
from repro.core.models import ModelSpec
from repro.exp import run_grid
from repro.sim.config import HardwareModel, MachineConfig, PersistencyModel
from repro.workloads.cceh import CCEH

OPS = 120

MODELS = [
    ModelSpec("baseline", HardwareModel.BASELINE, PersistencyModel.RELEASE),
    ModelSpec("hops", HardwareModel.HOPS, PersistencyModel.RELEASE),
    ModelSpec("asap", HardwareModel.ASAP, PersistencyModel.RELEASE),
    ModelSpec("eadr", HardwareModel.EADR, PersistencyModel.RELEASE),
]


def main() -> None:
    rows = []
    for threads in (1, 2, 4, 8):
        config = MachineConfig(num_cores=threads)
        result = run_grid([CCEH], MODELS, config, ops_per_thread=OPS)
        deps = result.stat("cceh", "asap", "interTEpochConflict")
        throughput = {
            model: threads * OPS / result.runtime("cceh", model)
            for model in ("baseline", "hops", "asap", "eadr")
        }
        rows.append([
            threads,
            deps,
            *(f"{throughput[m] * 1000:.2f}" for m in
              ("baseline", "hops", "asap", "eadr")),
            f"{throughput['asap'] / throughput['hops']:.2f}x",
        ])
    print(render_table(
        ["threads", "cross-deps", "baseline", "HOPS", "ASAP", "eADR",
         "ASAP/HOPS"],
        rows,
        title="CCEH inserts: throughput in ops per 1000 cycles",
    ))
    print()
    print("As threads (and therefore cross-thread dependencies) grow, HOPS")
    print("pays a polling round-trip per dependency while ASAP keeps")
    print("flushing -- the gap widens exactly as the paper's scaling study")
    print("describes.")


if __name__ == "__main__":
    main()
