"""Hypothesis property behind recorded crash cells.

:func:`repro.core.crash.record_run` simulates a cell once and journals
every change a crash image reads;
:meth:`~repro.core.crash.CrashRecording.crash_at_each` replays the image
at many cycles from that journal instead of re-simulating the cell from
cycle 0 for each.  That is sound only if the journal holds every such
change at the cycle it happened, and if each image is judged before the
replay moves on.  The property compares, byte for byte, the serialized
crash state the replay hands its judge at every cycle with a fresh
:func:`~repro.core.crash.run_and_crash` -- a real run stopped at that
cycle.  The serialized state includes the epoch log, so a replay that
judged after advancing (a log with later writes in it) fails too.

Two program sources feed it: registry workloads, and the litmus corpus,
whose programs are the only ones that start strands.
"""

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.core.api import PMAllocator
from repro.core.crash import record_run, run_and_crash
from repro.core.models import MODEL_REGISTRY, resolve_model
from repro.crashtest.serialize import dumps_state
from repro.litmus.corpus import build_corpus
from repro.sim.config import MachineConfig
from repro.workloads import get_workload

WORKLOADS = [
    "queue", "nstore", "echo", "heap", "ctree", "skiplist", "cceh",
    "fast_fair", "dash_eh", "p_clht", "xpub",
]
LITMUS_TESTS = build_corpus()

# crash cycles as per-mille of the drain horizon; above 1000 lands past
# the drain, where the image is the final memory.
PERMILLE = st.lists(
    st.integers(min_value=1, max_value=1300), min_size=1, max_size=8
)
PAST_DRAIN = st.integers(min_value=1, max_value=200)
# No shrink phase: every example re-simulates its cell at each cycle, so
# shrinking a failure takes many minutes; the unshrunk example reports
# the first diverging cycle's state just as well, within seconds.
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


def _assert_replay_matches_fresh_runs(model, programs, permille, past_drain):
    config = MachineConfig()
    run_config = resolve_model(model).run_config(seed=7)
    recording = record_run(config, run_config, programs())
    drain = recording.reference.drain_cycles
    cycles = sorted(
        [max(1, drain * p // 1000) for p in permille] + [drain + past_drain]
    )

    in_pass = recording.crash_at_each(
        cycles, lambda state: dumps_state(state, {})
    )
    fresh = [
        dumps_state(run_and_crash(config, run_config, programs(), c), {})
        for c in cycles
    ]
    assert in_pass == fresh


@pytest.mark.parametrize("model", sorted(MODEL_REGISTRY))
@settings(max_examples=6, deadline=None, phases=NO_SHRINK)
@given(
    workload=st.sampled_from(WORKLOADS),
    threads=st.sampled_from([1, 2, 4]),
    ops=st.integers(min_value=4, max_value=24),
    permille=PERMILLE,
    past_drain=PAST_DRAIN,
)
def test_one_pass_matches_a_fresh_run_at_every_cycle(
    model, workload, threads, ops, permille, past_drain
):
    def programs():
        w = get_workload(workload, ops_per_thread=ops, seed=7)
        return w.programs(PMAllocator(), threads)

    _assert_replay_matches_fresh_runs(model, programs, permille, past_drain)


@pytest.mark.parametrize("model", sorted(MODEL_REGISTRY))
@settings(max_examples=8, deadline=None, phases=NO_SHRINK)
@given(
    test=st.sampled_from(LITMUS_TESTS),
    permille=PERMILLE,
    past_drain=PAST_DRAIN,
)
def test_one_pass_matches_a_fresh_run_on_litmus_programs(
    model, test, permille, past_drain
):
    def programs():
        return [iter(ops) for ops in test.threads]

    _assert_replay_matches_fresh_runs(model, programs, permille, past_drain)


def test_cycles_must_ascend():
    config = MachineConfig()
    run_config = resolve_model("asap_rp").run_config(seed=7)
    programs = get_workload("queue", ops_per_thread=6).programs(
        PMAllocator(), config.num_cores
    )
    recording = record_run(config, run_config, programs)
    with pytest.raises(ValueError, match="200 precedes cycle 400"):
        recording.crash_at_each([400, 200], lambda state: state)
    with pytest.raises(ValueError, match="-1 precedes cycle 0"):
        recording.crash_at_each([-1], lambda state: state)
    with pytest.raises(ValueError, match="-1 precedes cycle 0"):
        run_and_crash(config, run_config, programs, -1)
