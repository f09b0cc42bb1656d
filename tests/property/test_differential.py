"""Differential and online-invariant testing across hardware models.

Two families of properties:

1. **Convergence** -- every model, run to completion on the same trace,
   must leave the persistence domain holding the newest write of every
   line (durability is eventually total, whatever the ordering policy).

2. **Structural invariants hold throughout** -- persist buffers, epoch
   tables, recovery tables and WPQs never leave their legal envelopes at
   any sampled instant of any run.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.api import PMAllocator
from repro.core.crash import crash_machine
from repro.core.machine import Machine
from repro.sim.config import (
    HardwareModel,
    MachineConfig,
    PersistencyModel,
    RunConfig,
)
from repro.trace import SyntheticTraceConfig, synthetic_trace
from repro.verify.invariants import InvariantMonitor, validate_run
from repro.workloads import get_workload

ALL_MODELS = list(HardwareModel)


class TestConvergence:
    @pytest.mark.parametrize("hardware", ALL_MODELS, ids=lambda h: h.value)
    def test_final_memory_is_newest_writes(self, hardware):
        """After completion + drain, the persistence domain holds the
        newest value of every written line -- on every model, including
        the unsound one (its flaw is ordering, not convergence)."""
        trace = synthetic_trace(
            SyntheticTraceConfig(num_threads=2, ops_per_thread=30, sharing=0.3)
        )
        machine = Machine(
            MachineConfig(num_cores=2), RunConfig(hardware=hardware)
        )
        machine.run(trace.programs())
        state = crash_machine(machine)  # a crash after the end = final state
        expected = machine.log.newest_write_per_line()
        for line, write_id in expected.items():
            assert state.media.get(line) == write_id, hex(line)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        epoch_size=st.integers(min_value=1, max_value=6),
        sharing=st.floats(min_value=0.0, max_value=1.0),
    )
    @example(seed=421, epoch_size=1, sharing=0.9375)
    @settings(max_examples=15, deadline=None)
    def test_asap_and_hops_converge_identically(self, seed, epoch_size, sharing):
        """Trace-driven differential: both buffered designs end with the
        same durable value on every line that a single core writes.

        A line two cores write with no lock between them ends with
        whichever store came last, and that depends on each design's
        timing (the pinned example's shared line ends as core 0's write
        under ASAP and core 1's under HOPS), so it is not a property of
        the design.  That every line converges to its newest write on
        each design alone is ``test_final_memory_is_newest_writes``.

        Global write IDs are assigned in execution order, so two cores'
        stores can be numbered differently under different timing models;
        compare each line's surviving write by its model-invariant
        identity -- (core, program-order ordinal within that core) --
        not by raw write ID.
        """
        config = SyntheticTraceConfig(
            num_threads=2, ops_per_thread=24, epoch_size=epoch_size,
            sharing=sharing, seed=seed,
        )
        images = {}
        for hardware in (HardwareModel.ASAP, HardwareModel.HOPS):
            trace = synthetic_trace(config, PMAllocator())
            machine = Machine(
                MachineConfig(num_cores=2), RunConfig(hardware=hardware)
            )
            machine.run(trace.programs())
            media = crash_machine(machine).media
            ordinal = {}
            per_core = {}
            writers = {}
            for write_id in sorted(machine.log.writes):
                record = machine.log.writes[write_id]
                per_core[record.core] = per_core.get(record.core, -1) + 1
                ordinal[write_id] = (record.core, per_core[record.core])
                writers.setdefault(record.line, set()).add(record.core)
            images[hardware] = {
                line: ordinal[write_id] for line, write_id in media.items()
                if len(writers[line]) == 1
            }
        assert images[HardwareModel.ASAP] == images[HardwareModel.HOPS]


class TestOnlineInvariants:
    @pytest.mark.parametrize(
        "workload", ["cceh", "queue", "dash_eh", "nstore"]
    )
    @pytest.mark.parametrize(
        "hardware",
        [HardwareModel.ASAP, HardwareModel.HOPS, HardwareModel.BASELINE],
        ids=lambda h: h.value,
    )
    def test_invariants_hold_throughout_suite_runs(self, workload, hardware):
        machine = Machine(
            MachineConfig(num_cores=4),
            RunConfig(hardware=hardware, persistency=PersistencyModel.EPOCH),
        )
        heap = PMAllocator()
        programs = get_workload(workload, ops_per_thread=25).programs(heap, 4)
        result = validate_run(machine, programs)
        assert result.runtime_cycles > 0

    def test_invariants_hold_on_vorpal(self):
        machine = Machine(
            MachineConfig(num_cores=4),
            RunConfig(hardware=HardwareModel.VORPAL),
        )
        heap = PMAllocator()
        programs = get_workload("queue", ops_per_thread=25).programs(heap, 4)
        result = validate_run(machine, programs)
        assert result.runtime_cycles > 0
        assert machine.vorpal.pending_writes() == 0

    def test_invariants_hold_under_rt_pressure(self):
        """NACK/fallback paths stay within the envelopes too."""
        machine = Machine(
            MachineConfig(num_cores=4, rt_entries=2),
            RunConfig(hardware=HardwareModel.ASAP),
        )
        heap = PMAllocator()
        programs = get_workload("dash_lh", ops_per_thread=25).programs(heap, 4)
        result = validate_run(machine, programs, period_cycles=200)
        assert result.stats.total("flushes_nacked") > 0

    def test_monitor_counts_checks(self):
        machine = Machine(
            MachineConfig(num_cores=2), RunConfig(hardware=HardwareModel.ASAP)
        )
        monitor = InvariantMonitor(machine, period_cycles=100)
        monitor.arm()
        heap = PMAllocator()
        programs = get_workload("p_clht", ops_per_thread=15).programs(heap, 2)
        machine.run(programs)
        monitor.check()
        assert monitor.checks_run > 5

    def test_monitor_detects_seeded_corruption(self):
        """Sanity: the monitor actually fails on a broken structure."""
        from repro.verify.invariants import InvariantViolation

        machine = Machine(
            MachineConfig(num_cores=1), RunConfig(hardware=HardwareModel.ASAP)
        )
        monitor = InvariantMonitor(machine)
        # corrupt: fabricate a negative unacked count
        machine.paths[0].et.entries[1].unacked = -1
        with pytest.raises(InvariantViolation, match="negative unacked"):
            monitor.check()
