"""Plan construction, executors, and the CLI's --jobs/--cache-dir path."""

import pytest

from repro.cli import main
from repro.exp import (
    ExperimentPlan,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
    run_grid,
)
from repro.sim.config import MachineConfig


class TestPlan:
    def test_grid_is_workload_major(self):
        plan = ExperimentPlan.grid(
            ["fence_latency", "coalescing"], ["baseline", "asap_rp"]
        )
        cells = [(s.workload, s.model.name) for s in plan]
        assert cells == [
            ("fence_latency", "baseline"),
            ("fence_latency", "asap_rp"),
            ("coalescing", "baseline"),
            ("coalescing", "asap_rp"),
        ]

    def test_grid_expands_seeds(self):
        plan = ExperimentPlan.grid(
            ["fence_latency"], ["asap_rp"], seeds=(1, 2, 3)
        )
        assert [s.seed for s in plan] == [1, 2, 3]

    def test_run_grid_keys_by_display_name(self):
        result = run_grid(
            ["fence_latency"], ["hops", "asap"],
            MachineConfig(num_cores=1), ops_per_thread=5,
        )
        assert result.models == ["hops", "asap"]
        assert ("fence_latency", "hops") in result.runs


class TestExecutors:
    def test_make_executor_semantics(self):
        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor(0), SerialExecutor)
        assert isinstance(make_executor(1), SerialExecutor)
        assert isinstance(make_executor(3), ParallelExecutor)
        assert make_executor(3).jobs == 3

    def test_parallel_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            ParallelExecutor(-2)

    def test_parallel_preserves_order(self):
        # more items than workers, so completion order != input order
        result = ParallelExecutor(jobs=2).map(abs, [-5, 3, -1, 0, -2, 4])
        assert result == [5, 3, 1, 0, 2, 4]

    def test_empty_map(self):
        assert ParallelExecutor(jobs=2).map(abs, []) == []


class TestCLI:
    def test_compare_with_jobs(self, capsys):
        code = main([
            "compare", "--workloads", "fence_latency", "coalescing",
            "--models", "baseline", "asap_rp",
            "--ops", "10", "--threads", "2", "--jobs", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "geomean" in out and "asap_rp" in out

    def test_compare_microbench_alias(self, capsys):
        code = main([
            "compare", "--workloads", "microbench",
            "--models", "baseline", "asap_rp",
            "--ops", "8", "--threads", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        for name in ("bandwidth", "fence_latency", "coalescing"):
            assert name in out

    def test_run_and_compare_share_cache(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        args = ["run", "fence_latency", "--model", "asap_rp", "--ops", "10",
                "--threads", "2", "--cache-dir", str(cache_dir)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert len(list(cache_dir.glob("*.pkl"))) == 1
        # second invocation is served from the cache, byte-identical
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert len(list(cache_dir.glob("*.pkl"))) == 1

    def test_compare_cached_matches_fresh(self, tmp_path, capsys):
        args = [
            "compare", "--workloads", "fence_latency",
            "--models", "baseline", "asap_rp", "--ops", "10",
            "--threads", "2",
        ]
        assert main(args) == 0
        fresh = capsys.readouterr().out
        cached_args = args + ["--cache-dir", str(tmp_path)]
        assert main(cached_args) == 0
        capsys.readouterr()
        assert main(cached_args) == 0  # all hits
        assert capsys.readouterr().out == fresh

    @pytest.mark.parametrize(
        "argv, flag",
        [(argv, flag)
         for argv in (["run", "queue"], ["compare", "--workloads", "queue"],
                      ["timeline", "queue"], ["sample", "queue"],
                      ["fabric", "grid", "--serial"],
                      ["crash", "queue", "--at", "100"])
         for flag in ("--ops", "--threads", "--mcs")]
        + [(["lint", "queue"], "--ops"), (["lint", "queue"], "--threads")],
        ids=lambda value: value if isinstance(value, str) else value[0],
    )
    def test_sizes_below_one_exit_2(self, capsys, argv, flag):
        """Every size flag takes positive integers only: no silent default
        op count, no traceback from the machine config."""
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, flag, "0"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert flag in captured.err and "at least 1" in captured.err
        assert captured.out == ""
