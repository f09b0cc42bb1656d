"""Figure 3: percentage of persist-buffer stall cycles under HOPS.

The paper measures, for each workload running on HOPS, the fraction of
cycles during which the persist buffers hold writes they are not allowed
to flush ("blocked" cycles).  It reports 26% on average, higher for the
dependency-heavy concurrent structures -- the motivation for eager
flushing.
"""

from repro.analysis.report import render_table
from repro.sim.config import MachineConfig
from repro.workloads import SUITE

from benchmarks.conftest import FIGURE_OPS, bench_grid

CONCURRENT_DS = {"cceh", "dash_lh", "dash_eh", "p_art", "p_clht", "p_masstree"}


def run_figure3():
    config = MachineConfig(num_cores=4)
    result = bench_grid(SUITE, ["hops_rp"], config, ops_per_thread=FIGURE_OPS)
    rows, percents = [], {}
    for name in result.workloads:
        run = result.runs[(name, "hops_rp")]
        blocked = run.result.stats.total("cyclesBlocked")
        total = config.num_cores * run.result.drain_cycles
        percent = 100.0 * blocked / max(1, total)
        percents[name] = percent
        rows.append([name, blocked, f"{percent:.1f}%"])
    average = sum(percents.values()) / len(percents)
    rows.append(["average", "", f"{average:.1f}%"])
    table = render_table(
        ["workload", "blocked cycles", "% of cycles"],
        rows,
        title="Figure 3: persist buffer stall cycles under HOPS (paper avg: 26%)",
    )
    return table, percents, average


def test_fig03_pb_stall_cycles(benchmark, record):
    table, percents, average = benchmark.pedantic(
        run_figure3, rounds=1, iterations=1
    )
    record("fig03_pb_stalls", table)

    # The paper's shape: substantial average blocking (tens of percent).
    # Our absolute numbers run higher than the paper's 26% because the
    # re-implemented concurrent structures are tuned to the high-contention
    # end (see EXPERIMENTS.md); the ordering between workload classes is
    # what the figure is about.
    assert 10.0 < average < 95.0
    # ...with the concurrent data structures above the WHISPER apps.
    ds_avg = sum(percents[n] for n in CONCURRENT_DS) / len(CONCURRENT_DS)
    whisper_avg = sum(
        percents[n] for n in ("nstore", "echo", "vacation", "memcached")
    ) / 4
    assert ds_avg > whisper_avg
