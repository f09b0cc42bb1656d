"""The determinism suite.

The whole `repro.exp` design rests on one invariant: a RunSpec names its
result uniquely.  Same spec => identical ``runtime_cycles`` and full
stats dict, whether the cell ran serially, in a worker process, or came
out of the on-disk cache.
"""

import pytest

from repro.exp import (
    ExperimentPlan,
    ResultCache,
    RunSpec,
    SerialExecutor,
    ParallelExecutor,
    run_plan,
)
from repro.sim.config import MachineConfig

MACHINE = MachineConfig(num_cores=2)


def small_plan() -> ExperimentPlan:
    return ExperimentPlan.grid(
        ["fence_latency", "coalescing"],
        ["baseline", "asap_rp"],
        machine=MACHINE,
        ops_per_thread=12,
    )


@pytest.fixture(scope="module")
def serial_outcome():
    return run_plan(small_plan(), executor=SerialExecutor())


class TestSerialVsParallel:
    def test_identical_results(self, serial_outcome):
        parallel = run_plan(small_plan(), executor=ParallelExecutor(jobs=2))
        for (s_spec, s_run), (p_spec, p_run) in zip(serial_outcome, parallel):
            assert s_spec == p_spec
            assert s_run.runtime_cycles == p_run.runtime_cycles
            assert s_run.stats_dict() == p_run.stats_dict()
            assert s_run.fingerprint() == p_run.fingerprint()

    def test_rerun_is_deterministic(self, serial_outcome):
        again = run_plan(small_plan())
        assert [r.fingerprint() for r in again.results] == [
            r.fingerprint() for r in serial_outcome.results
        ]


class TestCacheHitVsMiss:
    def test_hit_equals_miss(self, serial_outcome, tmp_path):
        cache = ResultCache(tmp_path)
        cold = run_plan(small_plan(), cache=cache)
        assert cold.cache_hits == 0
        assert cold.cache_misses == len(small_plan())

        warm = run_plan(small_plan(), cache=cache)
        assert warm.cache_hits == len(small_plan())
        assert warm.cache_misses == 0

        for fresh, cached, direct in zip(
            cold.results, warm.results, serial_outcome.results
        ):
            assert cached.runtime_cycles == fresh.runtime_cycles
            assert cached.stats_dict() == fresh.stats_dict()
            assert cached.fingerprint() == fresh.fingerprint()
            assert cached.fingerprint() == direct.fingerprint()

    def test_cached_bytes_are_stable(self, tmp_path):
        # A cache hit re-serializes to exactly the stored bytes: nothing
        # about loading mutates the result.
        import pickle

        spec = RunSpec(
            "fence_latency", "asap_rp", machine=MACHINE, ops_per_thread=12
        )
        cache = ResultCache(tmp_path)
        cache.put(spec, spec.execute())
        stored = (tmp_path / f"{spec.key()}.pkl").read_bytes()
        roundtrip = pickle.dumps(cache.get(spec), protocol=4)
        assert roundtrip == stored

    def test_parallel_populates_cache_serial_reads_it(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = run_plan(
            small_plan(), cache=cache, executor=ParallelExecutor(jobs=2)
        )
        warm = run_plan(small_plan(), cache=cache)
        assert warm.cache_hits == len(small_plan())
        assert [r.fingerprint() for r in warm.results] == [
            r.fingerprint() for r in cold.results
        ]

    def test_partial_overlap_runs_only_missing_cells(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_plan(small_plan(), cache=cache)
        wider = ExperimentPlan.grid(
            ["fence_latency", "coalescing"],
            ["baseline", "asap_rp", "eadr"],
            machine=MACHINE,
            ops_per_thread=12,
        )
        outcome = run_plan(wider, cache=cache)
        assert outcome.cache_hits == len(small_plan())
        assert outcome.cache_misses == len(wider) - len(small_plan())

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        spec = RunSpec(
            "fence_latency", "asap_rp", machine=MACHINE, ops_per_thread=12
        )
        cache = ResultCache(tmp_path)
        cache.put(spec, spec.execute())
        (tmp_path / f"{spec.key()}.pkl").write_bytes(b"garbage")
        assert cache.get(spec) is None
        # ...and the plan transparently recomputes.
        outcome = run_plan(ExperimentPlan([spec]), cache=cache)
        assert outcome.cache_misses == 1
        assert outcome.results[0].runtime_cycles > 0
