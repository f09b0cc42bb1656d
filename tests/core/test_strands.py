"""Strand persistency (the Section VII-E StrandWeaver integration).

Strands split a thread's persists into independent chains: epochs in
different strands are unordered (their flushes are safe immediately and
their commits proceed independently), except that conflicting accesses
still order across strands (strong persist atomicity).
"""

from repro.core.api import (
    DFence,
    NewStrand,
    OFence,
    PMAllocator,
    Store,
)
from repro.core.crash import crash_machine, run_and_crash
from repro.core.epoch_table import EpochTable
from repro.sim.config import (
    HardwareModel,
    MachineConfig,
    RunConfig,
)
from repro.verify import check_consistency
from repro.verify.dag import build_dag

from tests.conftest import make_machine


def two_strand_program(buf, epochs_per_strand=4):
    """Interleaved writes to two structures, one strand each."""
    yield Store(buf, 64)  # strand 0
    yield OFence()
    yield NewStrand()
    for i in range(epochs_per_strand):
        yield Store(buf + 64 * (1 + i), 64)  # strand 1
        yield OFence()
    yield NewStrand()
    for i in range(epochs_per_strand):
        yield Store(buf + 64 * (16 + i), 64)  # strand 2
        yield OFence()
    yield DFence()


class TestEpochTableStrands:
    def test_strand_break_epoch_has_no_predecessor(self, engine, stats):
        et = EpochTable(engine, 8, stats, "c0", 0)
        et.on_enqueue(1)
        ts = et.open_epoch(strand_break=True)
        assert et.entries[ts].prev is None
        assert et.entries[ts].strand != et._committed_sparse  # distinct id

    def test_strand_start_safe_despite_uncommitted_older_epochs(
        self, engine, stats
    ):
        et = EpochTable(engine, 8, stats, "c0", 0)
        et.on_enqueue(1)  # epoch 1 has an outstanding write
        ts = et.open_epoch(strand_break=True)
        assert not et.is_committed(1)
        assert et.is_safe(ts)  # new strand does not wait for epoch 1

    def test_chained_epoch_not_safe(self, engine, stats):
        et = EpochTable(engine, 8, stats, "c0", 0)
        et.on_enqueue(1)
        ts = et.open_epoch()  # same strand
        assert not et.is_safe(ts)

    def test_out_of_order_commits_across_strands(self, engine, stats):
        et = EpochTable(engine, 8, stats, "c0", 0)
        et.on_enqueue(1)
        strand_ts = et.open_epoch(strand_break=True)
        et.on_enqueue(strand_ts)
        et.open_epoch()  # close the strand epoch
        # The strand epoch commits before epoch 1 (different chains).
        et.on_write_acked(strand_ts)
        assert et.is_committed(strand_ts)
        assert not et.is_committed(1)
        # Epoch 1 commits later; the dense prefix catches up.
        et.on_write_acked(1)
        assert et.committed_upto >= strand_ts

    def test_strand_of(self, engine, stats):
        et = EpochTable(engine, 8, stats, "c0", 0)
        first = et.strand_of(1)
        ts = et.open_epoch(strand_break=True)
        assert et.strand_of(ts) != first

    def test_dfence_waits_for_all_strands(self, engine, stats):
        et = EpochTable(engine, 8, stats, "c0", 0)
        et.on_enqueue(1)
        strand_ts = et.open_epoch(strand_break=True)
        et.on_enqueue(strand_ts)
        closed = et.current_ts
        et.open_epoch()
        fired = []
        assert not et.wait_for_commit(closed, lambda: fired.append(1))
        et.on_write_acked(strand_ts)
        engine.run()
        assert fired == []  # epoch 1 still outstanding
        et.on_write_acked(1)
        engine.run()
        assert fired == [1]


class TestStrandsOnASAP:
    def test_strand_flushes_are_safe_not_early(self):
        """A jammed chain in strand A must not force strand B's flushes
        early."""
        machine = make_machine(HardwareModel.ASAP, num_cores=1)
        heap = PMAllocator()
        buf = heap.alloc(64 * 64)

        def with_strands():
            for i in range(10):
                yield Store(buf + 64 * i, 64)
                yield OFence()
                yield NewStrand()
            yield DFence()

        result = machine.run([with_strands()])
        with_spec = result.stats.total("totSpecWrites")

        machine2 = make_machine(HardwareModel.ASAP, num_cores=1)
        heap2 = PMAllocator()
        buf2 = heap2.alloc(64 * 64)

        def without_strands():
            for i in range(10):
                yield Store(buf2 + 64 * i, 64)
                yield OFence()
            yield DFence()

        result2 = machine2.run([without_strands()])
        without_spec = result2.stats.total("totSpecWrites")
        assert with_spec < without_spec

    def test_strand_starts_recorded(self):
        machine = make_machine(HardwareModel.ASAP, num_cores=1)
        heap = PMAllocator()
        buf = heap.alloc(64 * 64)
        result = machine.run([two_strand_program(buf)])
        assert len(result.log.strand_starts) == 2
        assert result.stats.total("strand_starts") == 2

    def test_dag_has_no_edges_into_strand_starts(self):
        machine = make_machine(HardwareModel.ASAP, num_cores=1)
        heap = PMAllocator()
        buf = heap.alloc(64 * 64)
        result = machine.run([two_strand_program(buf)])
        dag = build_dag(result.log)
        assert dag.is_acyclic()
        for start in result.log.strand_starts:
            for _node, succs in dag.successors.items():
                core, ts = start
                # only cross edges may enter a strand start; intra edge
                # (core, ts-1) -> (core, ts) must be absent
                assert (core, ts) not in dag.successors.get((core, ts - 1), [])

    def test_hops_treats_strand_as_epoch_boundary(self):
        machine = make_machine(HardwareModel.HOPS, num_cores=1)
        heap = PMAllocator()
        buf = heap.alloc(64 * 64)
        result = machine.run([two_strand_program(buf)])
        assert len(result.log.strand_starts) == 0  # no relaxation granted

    def test_baseline_runs_strands(self):
        machine = make_machine(HardwareModel.BASELINE, num_cores=1)
        heap = PMAllocator()
        buf = heap.alloc(64 * 64)
        result = machine.run([two_strand_program(buf)])
        assert result.runtime_cycles > 0


class TestStrandCrashConsistency:
    def test_strand_crashes_stay_consistent(self):
        """Crash the strand workload at many instants; the (strand-aware)
        checker must accept every recovered state."""
        for crash_cycle in range(100, 6000, 171):
            heap = PMAllocator()
            buf = heap.alloc(64 * 64)
            state = run_and_crash(
                MachineConfig(num_cores=1),
                RunConfig(hardware=HardwareModel.ASAP),
                [two_strand_program(buf)],
                crash_cycle,
            )
            report = check_consistency(state.log, state.media)
            assert report.consistent, (crash_cycle, report.summary())

    def test_strands_may_survive_independently(self):
        """The relaxation is real: find a crash where a later strand's
        write survived while an earlier strand's write was lost -- legal
        with strands, a violation without them."""
        observed = False
        for crash_cycle in range(100, 8000, 61):
            heap = PMAllocator()
            buf = heap.alloc(64 * 64)
            machine = make_machine(HardwareModel.ASAP, num_cores=1)
            machine.run_until([two_strand_program(buf)], crash_cycle)
            state = crash_machine(machine)
            report = check_consistency(state.log, state.media)
            assert report.consistent
            # strand-2 epochs have higher ts than strand-1 epochs; check
            # whether some strand-2 write survived while a strand-1 write
            # was lost.
            strand1 = [buf + 64 * (1 + i) for i in range(4)]
            strand2 = [buf + 64 * (16 + i) for i in range(4)]
            lost1 = any(state.surviving_value(line) == 0 for line in strand1)
            kept2 = any(state.surviving_value(line) != 0 for line in strand2)
            if lost1 and kept2:
                observed = True
                break
        assert observed

    def test_cross_strand_conflict_still_ordered(self):
        """Writes to the same line from different strands stay ordered
        (strong persist atomicity): the checker must never flag them."""

        def conflicting(buf):
            yield Store(buf, 64)
            yield OFence()
            yield NewStrand()
            yield Store(buf, 64)  # same line, new strand
            yield OFence()
            yield Store(buf + 64, 64)
            yield DFence()

        for crash_cycle in range(50, 3000, 97):
            heap = PMAllocator()
            buf = heap.alloc(64 * 8)
            state = run_and_crash(
                MachineConfig(num_cores=1),
                RunConfig(hardware=HardwareModel.ASAP),
                [conflicting(buf)],
                crash_cycle,
            )
            report = check_consistency(state.log, state.media)
            assert report.consistent, (crash_cycle, report.summary())

    def test_cross_strand_conflicts_counted(self):
        machine = make_machine(HardwareModel.ASAP, num_cores=1)
        heap = PMAllocator()
        buf = heap.alloc(64 * 8)

        def conflicting():
            yield Store(buf, 64)
            yield NewStrand()
            yield Store(buf, 64)
            yield DFence()

        result = machine.run([conflicting()])
        assert result.stats.total("cross_strand_conflicts") == 1
