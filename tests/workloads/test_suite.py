"""Tests over the full Table III workload suite.

Each workload is run small but end-to-end under several models; we check
structural properties (valid programs, deterministic traces, plausible
persist behaviour) rather than performance numbers, which belong to the
benchmarks.
"""

import pytest

from repro.core.api import PMAllocator
from repro.sim.config import (
    HardwareModel,
    MachineConfig,
    PersistencyModel,
    RunConfig,
)
from repro.workloads import SUITE, get_workload, run_workload, workload_names
from repro.workloads.base import Workload

SMALL = 12  # ops per thread for functional checks


class TestRegistry:
    def test_suite_matches_table_iii(self):
        # Table III's classes plus WHISPER's ctree -- fifteen workloads,
        # matching the artifact appendix's count.
        assert workload_names() == [
            "nstore", "echo", "ctree", "vacation", "memcached",
            "heap", "queue", "skiplist",
            "cceh", "fast_fair", "dash_lh", "dash_eh",
            "p_art", "p_clht", "p_masstree",
        ]

    def test_get_workload_by_name(self):
        workload = get_workload("cceh", ops_per_thread=5)
        assert workload.name == "cceh"
        assert workload.ops_per_thread == 5

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown workload"):
            get_workload("nope")

    def test_microbenches_registered(self):
        assert get_workload("bandwidth").name == "bandwidth"
        assert get_workload("coalescing").name == "coalescing"

    def test_categories(self):
        categories = {cls.category for cls in SUITE}
        assert categories == {"whisper", "atlas", "concurrent-ds"}


@pytest.mark.parametrize("cls", SUITE, ids=lambda c: c.name)
class TestEveryWorkload:
    def test_runs_under_asap(self, cls, config4):
        result = run_workload(
            cls(ops_per_thread=SMALL), config4,
            RunConfig(hardware=HardwareModel.ASAP),
        )
        assert result.runtime_cycles > 0
        assert result.result.stats.total("entriesInserted") > 0

    def test_runs_under_baseline(self, cls, config4):
        result = run_workload(
            cls(ops_per_thread=SMALL), config4,
            RunConfig(hardware=HardwareModel.BASELINE),
        )
        assert result.runtime_cycles > 0

    def test_runs_under_hops_ep(self, cls, config4):
        result = run_workload(
            cls(ops_per_thread=SMALL), config4,
            RunConfig(hardware=HardwareModel.HOPS, persistency=PersistencyModel.EPOCH),
        )
        assert result.runtime_cycles > 0

    def test_single_thread_runs(self, cls):
        config = MachineConfig(num_cores=1)
        result = run_workload(
            cls(ops_per_thread=SMALL), config,
            RunConfig(hardware=HardwareModel.ASAP),
        )
        assert result.runtime_cycles > 0

    def test_deterministic_given_seed(self, cls, config4):
        runs = [
            run_workload(
                cls(ops_per_thread=SMALL, seed=3), config4,
                RunConfig(hardware=HardwareModel.ASAP),
            ).runtime_cycles
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_seed_changes_trace(self, cls, config4):
        """Different seeds should usually produce different traces; at
        minimum the run must still complete."""
        result = run_workload(
            cls(ops_per_thread=SMALL, seed=99), config4,
            RunConfig(hardware=HardwareModel.ASAP),
        )
        assert result.runtime_cycles > 0

    def test_writes_end_durable(self, cls, config4):
        """After a clean run the machine reports a drained persist path;
        workloads end with a dfence, so nothing should be in flight."""
        from repro.core.machine import Machine

        heap = PMAllocator()
        workload = cls(ops_per_thread=SMALL)
        machine = Machine(config4, RunConfig(hardware=HardwareModel.ASAP))
        machine.run(workload.programs(heap, config4.num_cores))
        assert all(path.is_drained() for path in machine.paths)


class TestWorkloadCharacter:
    """Spot checks that workloads exhibit their paper-documented traits."""

    def _deps(self, name, persistency=PersistencyModel.RELEASE, ops=40):
        config = MachineConfig(num_cores=4)
        result = run_workload(
            get_workload(name, ops_per_thread=ops), config,
            RunConfig(hardware=HardwareModel.ASAP, persistency=persistency),
        )
        return result.result.stats.total("interTEpochConflict")

    def test_concurrent_structures_have_many_deps(self):
        """Figure 2: CCEH/Dash/RECIPE show frequent cross-thread deps."""
        assert self._deps("dash_eh") > 10
        assert self._deps("p_clht") > 10

    def test_nstore_has_no_deps(self):
        """Nstore partitions are thread-private."""
        assert self._deps("nstore") == 0

    def test_vacation_deps_are_rare(self):
        """Coarse lock + volatile bookkeeping before release: by the time
        the next thread acquires, the previous epoch has committed."""
        assert self._deps("vacation") <= 2

    def test_base_class_contract(self):
        with pytest.raises(NotImplementedError):
            Workload().programs(PMAllocator(), 1)
