"""Tracing must be invisible to the simulation.

Two contracts, both load-bearing for the result cache:

1. **Zero perturbation**: a traced run and an untraced run of the same
   cell produce byte-identical gem5-style stats files (and identical
   result fingerprints).  Sinks only observe; they never schedule
   events or touch counters.
2. **Key stability**: ``RunSpec.key()`` is computed from exactly the
   fields it had before tracing existed, so every previously cached
   result stays addressable.  Tracing is not part of a spec: a traced
   run is ``run_workload(..., sinks=[...])``.
"""

import pytest

from repro.analysis.statsfile import format_stats
from repro.exp import RunSpec
from repro.obs import StallProfiler
from repro.sim.config import MachineConfig
from repro.workloads.base import run_workload

MODELS = ["baseline", "hops_rp", "asap_rp", "eadr"]

TINY = MachineConfig(num_cores=2, pb_entries=4, wpq_entries=4)


def spec(model):
    return RunSpec("queue", model, machine=TINY, ops_per_thread=50,
                   num_threads=2, seed=3)


@pytest.mark.parametrize("model", MODELS)
def test_traced_run_is_byte_identical_to_untraced(model):
    cell = spec(model)
    untraced = cell.execute()
    profiler = StallProfiler()
    traced = run_workload(
        cell.build_workload(), cell.machine, cell.run_config(),
        num_threads=cell.num_threads, sinks=[profiler],
    )
    assert profiler.summary()["events_seen"] > 0
    assert format_stats(untraced.result) == format_stats(traced.result)
    assert untraced.fingerprint() == traced.fingerprint()


def test_untraced_describe_has_the_pre_tracing_field_set():
    d = spec("asap_rp").describe()
    assert set(d) == {
        "schema", "workload", "hardware", "persistency", "machine",
        "run_config", "ops_per_thread", "num_threads", "seed",
    }
