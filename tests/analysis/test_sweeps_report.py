"""Unit tests for the grid driver and text reporting."""

import pytest

from repro.analysis.report import format_speedup, render_series, render_table
from repro.core.models import ModelSpec, RP_MODELS, STANDARD_MODELS
from repro.exp import run_grid
from repro.sim.config import HardwareModel, MachineConfig, PersistencyModel
from repro.workloads.microbench import FenceLatencyMicrobench


class TestModelSpecs:
    def test_standard_models_cover_figure8(self):
        names = [m.name for m in STANDARD_MODELS]
        assert names == [
            "baseline", "hops_ep", "hops_rp", "asap_ep", "asap_rp", "eadr",
        ]

    def test_rp_models(self):
        assert [m.name for m in RP_MODELS] == ["baseline", "hops", "asap", "eadr"]
        assert all(m.persistency is PersistencyModel.RELEASE for m in RP_MODELS)

    def test_run_config_construction(self):
        spec = ModelSpec("x", HardwareModel.ASAP, PersistencyModel.EPOCH)
        rc = spec.run_config(seed=5)
        assert rc.hardware is HardwareModel.ASAP
        assert rc.seed == 5


class TestSweep:
    @pytest.fixture(scope="class")
    def result(self):
        models = [
            ModelSpec("baseline", HardwareModel.BASELINE, PersistencyModel.RELEASE),
            ModelSpec("asap", HardwareModel.ASAP, PersistencyModel.RELEASE),
        ]
        return run_grid(
            [FenceLatencyMicrobench], models,
            MachineConfig(num_cores=2), ops_per_thread=20,
        )

    def test_runtime_accessible(self, result):
        assert result.runtime("fence_latency", "baseline") > 0

    def test_speedup_normalization(self, result):
        speedup = result.speedup("fence_latency", "asap")
        assert speedup == pytest.approx(
            result.runtime("fence_latency", "baseline")
            / result.runtime("fence_latency", "asap")
        )
        assert result.speedup("fence_latency", "baseline") == 1.0

    def test_geomean(self, result):
        assert result.geomean_speedup("asap") == result.speedups("asap")[0]

    def test_stat_access(self, result):
        assert result.stat("fence_latency", "asap", "entriesInserted") > 0


class TestReport:
    def test_render_table_alignment(self):
        text = render_table(
            ["name", "value"], [["a", 1], ["longer", 22]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert lines[2].startswith("-")
        assert len(lines) == 5

    def test_render_table_handles_wide_cells(self):
        text = render_table(["x"], [["wider-than-header"]])
        header, rule, row = text.splitlines()
        assert len(rule) >= len("wider-than-header")

    def test_render_series(self):
        text = render_series("asap", [1, 2, 4], [1.0, 1.5, 2.25], unit="x")
        assert text == "asap: 1=1.00x, 2=1.50x, 4=2.25x"

    def test_format_speedup(self):
        assert format_speedup(2.288) == "2.29x"
