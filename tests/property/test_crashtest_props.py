"""Hypothesis properties behind the crash-sweep engine.

Three invariants the campaign silently relies on:

1. **Crash determinism** -- ``crash_machine`` on a fixed stopped machine
   is a pure function, and two fresh same-spec runs crash to identical
   serialized states.  Without this, result caching and failure
   minimization (which re-simulate) would be unsound.
2. **The undo overlay only rewinds** -- the post-crash media image never
   runs *ahead* of the ADR image (the controllers' ``adr_value``): for
   every line, the surviving write with undo records applied appears at
   the same or an earlier position in that line's persist order than
   without them.  Undo records unwind speculation; they must never
   invent newer state.
3. **Serialization is exact** -- a crash state survives a JSON
   round-trip bit-for-bit (canonical text) and field-for-field.
"""

from hypothesis import given, settings, strategies as st

from repro.core.api import PMAllocator
from repro.core.crash import crash_machine, run_and_crash
from repro.core.machine import Machine
from repro.core.models import resolve_model
from repro.crashtest.serialize import dumps_state, loads_state
from repro.sim.config import MachineConfig
from repro.workloads import get_workload

MODELS = ["baseline", "hops_rp", "asap_rp", "eadr", "asap_no_undo"]
WORKLOADS = ["queue", "nstore", "dash_eh"]


def _stopped_machine(workload, model, crash_cycle, seed=7):
    w = get_workload(workload, ops_per_thread=6, seed=seed)
    config = MachineConfig()
    programs = w.programs(PMAllocator(), config.num_cores)
    run_config = resolve_model(model).run_config(seed=seed)
    machine = Machine(config, run_config)
    machine.run_until(programs, crash_cycle)
    return machine


def _spec_state(workload, model, crash_cycle, seed=7):
    w = get_workload(workload, ops_per_thread=6, seed=seed)
    config = MachineConfig()
    programs = w.programs(PMAllocator(), config.num_cores)
    run_config = resolve_model(model).run_config(seed=seed)
    return run_and_crash(config, run_config, programs, crash_cycle)


@settings(max_examples=10, deadline=None)
@given(
    workload=st.sampled_from(WORKLOADS),
    model=st.sampled_from(MODELS),
    crash_cycle=st.integers(min_value=1, max_value=3000),
)
def test_crash_machine_is_deterministic(workload, model, crash_cycle):
    machine = _stopped_machine(workload, model, crash_cycle)
    first = crash_machine(machine)
    second = crash_machine(machine)
    assert first.crash_cycle == second.crash_cycle
    assert first.media == second.media
    assert first.log is second.log  # same log object, untouched
    # ...and the full pipeline agrees across fresh runs of the same spec
    fresh = _spec_state(workload, model, crash_cycle)
    assert dumps_state(fresh, {}) == dumps_state(
        _spec_state(workload, model, crash_cycle), {}
    )


@settings(max_examples=10, deadline=None)
@given(
    workload=st.sampled_from(WORKLOADS),
    model=st.sampled_from(["asap_rp", "asap_no_undo", "hops_rp", "baseline"]),
    crash_cycle=st.integers(min_value=1, max_value=3000),
)
def test_undo_overlay_never_advances_the_media(workload, model, crash_cycle):
    machine = _stopped_machine(workload, model, crash_cycle)
    order = machine.log.line_order
    with_undo = crash_machine(machine).media
    without_undo = {}
    for mc in machine.mcs:
        without_undo.update(mc.adr_value)
    assert set(with_undo) >= {
        line for line, wid in without_undo.items() if wid
    }
    for line, survivor in with_undo.items():
        baseline_wid = without_undo.get(line, 0)
        if survivor == baseline_wid:
            continue
        line_writes = order.get(line, [])
        # a divergent survivor must be a rewind: same line, strictly
        # earlier in the persist order than the ADR image's write.
        if survivor and baseline_wid:
            assert line_writes.index(survivor) < line_writes.index(
                baseline_wid
            ), f"undo overlay advanced line {line:#x}"


@settings(max_examples=10, deadline=None)
@given(
    workload=st.sampled_from(WORKLOADS),
    model=st.sampled_from(MODELS),
    crash_cycle=st.integers(min_value=1, max_value=5000),
    seed=st.integers(min_value=0, max_value=3),
)
def test_crash_state_json_round_trips_exactly(
    workload, model, crash_cycle, seed
):
    state = _spec_state(workload, model, crash_cycle, seed=seed)
    meta = {"workload": workload, "model": model}
    text = dumps_state(state, meta)
    loaded, loaded_meta = loads_state(text)
    assert loaded_meta == meta
    assert dumps_state(loaded, loaded_meta) == text
    assert loaded.crash_cycle == state.crash_cycle
    assert loaded.media == state.media
    assert loaded.run_config == state.run_config
    assert loaded.log.line_order == state.log.line_order
    assert loaded.log.payloads == state.log.payloads
    assert loaded.log.dep_edges == state.log.dep_edges
    assert loaded.log.strand_starts == state.log.strand_starts
