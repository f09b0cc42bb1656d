"""Stall-cycle conservation: profiler attribution == registry counters.

The observability layer's core correctness claim is that it *attributes*
the stall cycles the simulator already counts, without inventing or
losing any.  One call closes each stall interval and writes both the
registry counter and the ``STALL_END`` event, with the same amount (a
core stall in ``PersistencePath._stall_end``, a blocked persist buffer
in ``PersistBuffer._update_blocked``), so for every model and any
workload shape:

- cycles attributed to ``PB_FULL``   == ``cyclesStalled``
- cycles attributed to ``DFENCE``    == ``dfenceStalled``
- cycles attributed to ``SFENCE``    == ``sfenceStalled``
- cycles attributed to ``PB_BLOCKED``== ``cyclesBlocked``

and the per-epoch breakdown sums back to those totals.  Every interval,
``ET_FULL`` (which has no registry counter) included, is opened by one
``STALL_BEGIN`` and closed by one ``STALL_END`` whose ``dur`` is the
cycles between them.  Hypothesis generates the workload shapes (store
runs, fence placement, locked sections creating cross-thread
dependencies) over a deliberately tiny machine (4-entry buffers, a
2-entry epoch table) so back-pressure stalls actually occur.
"""

from hypothesis import given, settings, strategies as st

import pytest

from repro.core.api import (
    Acquire,
    Compute,
    DFence,
    OFence,
    Release,
    Store,
)
from repro.core.machine import Machine
from repro.core.models import MODEL_REGISTRY, resolve_model
from repro.obs import (
    REASON_COUNTERS,
    EventType,
    RingBufferSink,
    StallProfiler,
    StallReason,
)
from repro.sim.config import MachineConfig

MODELS = list(MODEL_REGISTRY)

#: the designs with an epoch table (the only ones that can stall on it).
EPOCH_TABLE_MODELS = [
    name for name in MODELS if name not in ("baseline", "eadr")
]

#: tiny buffers force PB-full / blocked / fence / ET-full stalls to
#: actually occur.
TINY = dict(num_cores=2, pb_entries=4, wpq_entries=4, et_entries=2)

LINE = 64


# -- workload-shape strategy -------------------------------------------------

#: one generated program segment: (kind, payload)
#:   ("stores", n)   n stores to the thread's private region
#:   ("ofence", 0) / ("dfence", 0) / ("compute", cycles)
#:   ("locked", n)   acquire; n stores to the shared region; release
segment = st.one_of(
    st.tuples(st.just("stores"), st.integers(1, 6)),
    st.tuples(st.just("ofence"), st.just(0)),
    st.tuples(st.just("dfence"), st.just(0)),
    st.tuples(st.just("compute"), st.integers(1, 40)),
    st.tuples(st.just("locked"), st.integers(1, 3)),
)

program_shape = st.lists(segment, min_size=1, max_size=10)
two_thread_shapes = st.tuples(program_shape, program_shape)


def build_program(shape, thread, lock_addr, shared_base, private_base):
    """Materialize one generated shape as an op generator."""
    def program():
        cursor = 0
        for kind, n in shape:
            if kind == "stores":
                for i in range(n):
                    yield Store(private_base + LINE * (cursor % 16), 8)
                    cursor += 1
            elif kind == "ofence":
                yield OFence()
            elif kind == "dfence":
                yield DFence()
            elif kind == "compute":
                yield Compute(n)
            elif kind == "locked":
                yield Acquire(lock_addr)
                for i in range(n):
                    yield Store(shared_base + LINE * (i % 4), 8)
                yield OFence()
                yield Release(lock_addr)
        yield DFence()

    return program()


def run_traced(model_name, shapes, *sinks):
    config = MachineConfig(**TINY)
    run_config = resolve_model(model_name).run_config(seed=7)
    profiler = StallProfiler()
    machine = Machine(config, run_config, sinks=[profiler, *sinks])
    lock_addr = 0x100000
    shared_base = 0x200000
    programs = [
        build_program(shape, t, lock_addr, shared_base,
                      0x400000 + t * 0x10000)
        for t, shape in enumerate(shapes)
    ]
    result = machine.run(programs)
    return profiler, result.stats


@pytest.mark.parametrize("model_name", MODELS)
@settings(max_examples=15, deadline=None)
@given(shapes=two_thread_shapes)
def test_attributed_cycles_match_registry_counters(model_name, shapes):
    profiler, stats = run_traced(model_name, shapes)
    for reason, counter in REASON_COUNTERS.items():
        assert profiler.total(reason) == stats.total(counter), (
            f"{model_name}: {reason.value} attribution diverged from "
            f"{counter}"
        )


@pytest.mark.parametrize("model_name", MODELS)
@settings(max_examples=10, deadline=None)
@given(shapes=two_thread_shapes)
def test_per_epoch_breakdown_sums_to_totals(model_name, shapes):
    profiler, stats = run_traced(model_name, shapes)
    # per-(core, epoch) attribution re-aggregates to the per-reason totals
    per_reason: dict = {}
    for cells in profiler.epoch_totals().values():
        for reason_value, cycles in cells.items():
            per_reason[reason_value] = per_reason.get(reason_value, 0) + cycles
    for reason, counter in REASON_COUNTERS.items():
        assert per_reason.get(reason.value, 0) == stats.total(counter)
    # and per-core attribution agrees with the machine-wide totals
    for reason in REASON_COUNTERS:
        cores_sum = sum(
            cycles for (_core, r), cycles in profiler.by_core.items()
            if r is reason
        )
        assert cores_sum == profiler.total(reason)


@pytest.mark.parametrize("model_name", MODELS)
@settings(max_examples=15, deadline=None)
@given(shapes=two_thread_shapes)
def test_every_stall_begin_is_closed_by_one_matching_end(model_name, shapes):
    capture = RingBufferSink()
    run_traced(model_name, shapes, capture)
    #: (component, core, reason) -> cycle its open interval began.
    open_at = {}
    for event in capture.events:
        key = (event.comp, event.core, event.reason)
        if event.type is EventType.STALL_BEGIN:
            assert key not in open_at, f"{model_name}: {key} opened twice"
            open_at[key] = event.cycle
        elif event.type is EventType.STALL_END:
            assert key in open_at, f"{model_name}: {key} closed unopened"
            assert event.dur == event.cycle - open_at.pop(key)
    assert not open_at, f"{model_name}: left open at the end: {open_at}"


def test_stalls_actually_happen_under_the_tiny_config():
    """Guard against the properties passing vacuously (0 == 0)."""
    shapes = ([("stores", 6), ("dfence", 0), ("stores", 6), ("dfence", 0)],
              [("locked", 3), ("stores", 6), ("dfence", 0)])
    stalled_somewhere = 0
    for model_name in MODELS:
        profiler, _stats = run_traced(model_name, shapes)
        stalled_somewhere += sum(
            profiler.total(reason) for reason in REASON_COUNTERS
        )
    assert stalled_somewhere > 0
    fenced = ([("stores", 2), ("ofence", 0)] * 4,
              [("stores", 2), ("ofence", 0)] * 4)
    for model_name in EPOCH_TABLE_MODELS:
        profiler, _stats = run_traced(model_name, fenced)
        assert any(
            reason is StallReason.ET_FULL
            for (_core, reason) in profiler.by_core
        ), f"{model_name}: no ET_FULL interval"
