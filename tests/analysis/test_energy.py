"""Tests for the operational-energy model."""

import pytest

from repro.analysis.energy import energy_per_op, estimate_energy
from repro.sim.config import HardwareModel, MachineConfig, PersistencyModel, RunConfig
from repro.workloads import get_workload, run_workload


def run(hardware, workload="dash_eh", ops=25):
    return run_workload(
        get_workload(workload, ops_per_thread=ops),
        MachineConfig(num_cores=2),
        RunConfig(hardware=hardware, persistency=PersistencyModel.RELEASE),
    ).result


class TestEstimates:
    def test_breakdown_positive_for_buffered_designs(self):
        breakdown = estimate_energy(run(HardwareModel.ASAP))
        assert breakdown.pb_pj > 0
        assert breakdown.et_pj > 0
        assert breakdown.rt_pj > 0
        assert breakdown.total_pj == pytest.approx(
            breakdown.pb_pj + breakdown.et_pj + breakdown.rt_pj
        )

    def test_eadr_spends_nothing(self):
        breakdown = estimate_energy(run(HardwareModel.EADR))
        assert breakdown.total_pj == 0

    def test_hops_has_no_rt_energy(self):
        breakdown = estimate_energy(run(HardwareModel.HOPS))
        assert breakdown.rt_pj == 0
        assert breakdown.pb_pj > 0

    def test_asap_rt_energy_tracks_speculation(self):
        """More early flushes => more recovery-table energy."""
        calm = estimate_energy(run(HardwareModel.ASAP, workload="nstore"))
        busy = estimate_energy(run(HardwareModel.ASAP, workload="queue"))
        assert busy.rt_pj > calm.rt_pj

    def test_energy_per_op_scale(self):
        """Sanity: per-op persistence energy is small -- far below an L1
        access-pair per op would be (Table V's comparison point)."""
        per_op = energy_per_op(run(HardwareModel.ASAP))
        assert 0 < per_op < 2000  # pJ

    def test_as_dict(self):
        d = estimate_energy(run(HardwareModel.ASAP)).as_dict()
        assert set(d) == {"pb_pj", "et_pj", "rt_pj", "total_pj"}
