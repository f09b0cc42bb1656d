"""Tests for the gem5-style stats writer and the CLI."""

import pytest

from repro.analysis.statsfile import (
    TABLE_VI_DESCRIPTIONS,
    format_stats,
    write_stats,
)
from repro.cli import main
from repro.sim.config import HardwareModel, MachineConfig, RunConfig
from repro.workloads import get_workload, run_workload


@pytest.fixture(scope="module")
def run_result():
    workload = get_workload("cceh", ops_per_thread=10)
    return run_workload(
        workload, MachineConfig(num_cores=2),
        RunConfig(hardware=HardwareModel.ASAP),
    ).result


class TestStatsFile:
    def test_contains_every_table_vi_stat(self, run_result):
        text = format_stats(run_result)
        for name, description in TABLE_VI_DESCRIPTIONS.items():
            assert name in text
            assert description in text

    def test_gem5_style_delimiters(self, run_result):
        text = format_stats(run_result)
        assert text.startswith("---------- Begin Simulation Statistics")
        assert "End Simulation Statistics" in text

    def test_values_parse_back(self, run_result):
        text = format_stats(run_result)
        for line in text.splitlines():
            if line.startswith("simTicks"):
                value = int(line.split()[1])
                assert value == run_result.runtime_cycles

    def test_write_stats(self, run_result, tmp_path):
        path = write_stats(run_result, tmp_path / "stats.txt")
        assert path.exists()
        assert "totSpecWrites" in path.read_text()


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "cceh" in out and "asap_rp" in out

    def test_run_prints_stats(self, capsys):
        assert main(["run", "p_clht", "--ops", "8", "--threads", "2"]) == 0
        out = capsys.readouterr().out
        assert "totSpecWrites" in out

    def test_run_writes_stats_file(self, tmp_path, capsys):
        stats_path = tmp_path / "stats.txt"
        code = main([
            "run", "p_clht", "--ops", "8", "--threads", "2",
            "--stats", str(stats_path),
        ])
        assert code == 0
        assert stats_path.exists()

    def test_compare(self, capsys):
        code = main([
            "compare", "--workloads", "p_clht",
            "--models", "baseline", "asap_rp",
            "--ops", "15", "--threads", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "geomean" in out and "asap_rp" in out

    def test_crash_consistent(self, capsys):
        code = main([
            "crash", "p_clht", "--at", "2000", "--ops", "10",
            "--threads", "2",
        ])
        assert code == 0
        assert "consistent" in capsys.readouterr().out

    def test_unknown_workload_errors(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "not_a_workload"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'not_a_workload'" in capsys.readouterr().err

    def test_vorpal_model_available(self, capsys):
        code = main([
            "run", "p_clht", "--model", "vorpal", "--ops", "8",
            "--threads", "2",
        ])
        assert code == 0
        assert "simTicks" in capsys.readouterr().out

    def test_crash_flags_no_undo_violation(self, capsys):
        """The crash subcommand exits non-zero on an inconsistent image
        when one actually occurs; on a consistent one it exits zero --
        exercise both the exit-code paths with the sound model."""
        code = main([
            "crash", "queue", "--model", "asap_rp", "--at", "400",
            "--ops", "10", "--threads", "2",
        ])
        assert code == 0
