"""Figure 10: sensitivity to the number of cores (1, 2, 4, 8).

The paper fixes 2 MCs, varies threads, and normalizes every point to
HOPS with a single thread.  Published series (suite averages):

- ASAP: 1.18 / 1.79 / 2.51 / 2.85
- HOPS: 1.00 / 1.36 / 1.94 / 2.15

P-ART scales best and Skiplist worst; HOPS flattens as dependence
resolution and the global TS register saturate.
"""

from repro.analysis.report import render_table
from repro.sim.config import MachineConfig
from repro.workloads import SUITE

from benchmarks.conftest import bench_grid, geomean

CORE_COUNTS = (1, 2, 4, 8)
OPS = 100  # per thread; total work grows with threads as in the paper

MODELS = ["hops", "asap"]


def run_figure10():
    # throughput = total ops / runtime; normalize to HOPS at 1 thread.
    throughput = {}  # (workload, model, cores) -> ops/cycle
    for cores in CORE_COUNTS:
        config = MachineConfig(num_cores=cores)
        result = bench_grid(SUITE, MODELS, config, ops_per_thread=OPS)
        for name in result.workloads:
            for model in ("hops", "asap"):
                cycles = result.runtime(name, model)
                throughput[(name, model, cores)] = cores * OPS / cycles

    speedup = {
        key: value / throughput[(key[0], "hops", 1)]
        for key, value in throughput.items()
    }
    averages = {
        (model, cores): geomean(
            [speedup[(name, model, cores)] for name in [w.name for w in SUITE]]
        )
        for model in ("hops", "asap")
        for cores in CORE_COUNTS
    }

    rows = []
    for name in ("p_art", "skiplist"):
        for model in ("hops", "asap"):
            rows.append(
                [name, model]
                + [f"{speedup[(name, model, c)]:.2f}" for c in CORE_COUNTS]
            )
    for model in ("hops", "asap"):
        rows.append(
            ["average", model]
            + [f"{averages[(model, c)]:.2f}" for c in CORE_COUNTS]
        )
    table = render_table(
        ["workload", "model"] + [f"{c}T" for c in CORE_COUNTS],
        rows,
        title=(
            "Figure 10: scaling with core count, normalized to HOPS@1T "
            "(paper: ASAP 1.18/1.79/2.51/2.85, HOPS 1/1.36/1.94/2.15)"
        ),
    )
    return table, speedup, averages


def test_fig10_core_count_sensitivity(benchmark, record):
    table, speedup, averages = benchmark.pedantic(
        run_figure10, rounds=1, iterations=1
    )
    record("fig10_scaling", table)

    # ASAP is ahead of HOPS at every thread count, including 1 thread
    # (eager flushing uses both controllers even without cross deps).
    for cores in CORE_COUNTS:
        assert averages[("asap", cores)] > averages[("hops", cores)]
    assert averages[("asap", 1)] > 1.05  # paper: 1.18x at one thread

    # Both scale with cores, and ASAP scales better.
    assert averages[("asap", 8)] > averages[("asap", 1)] * 1.8
    asap_gain = averages[("asap", 8)] / averages[("asap", 1)]
    hops_gain = averages[("hops", 8)] / averages[("hops", 1)]
    assert asap_gain > hops_gain

    # P-ART scales best / Skiplist worst among the highlighted pair.
    part_gain = speedup[("p_art", "asap", 8)] / speedup[("p_art", "asap", 1)]
    skip_gain = speedup[("skiplist", "asap", 8)] / speedup[("skiplist", "asap", 1)]
    assert part_gain > skip_gain
