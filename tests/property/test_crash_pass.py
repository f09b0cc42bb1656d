"""Hypothesis property behind one-pass crash cells.

:func:`repro.core.crash.crash_at_each` crashes one simulation at many
cycles instead of re-simulating the cell from cycle 0 for each.  That
is sound only if stopping the engine at a cycle and resuming it leaves
the run exactly as an uninterrupted one, and if each crash image is
judged before the engine moves on.  The property compares, byte for
byte, the serialized crash state the pass hands its judge at every
cycle with a fresh :func:`~repro.core.crash.run_and_crash` at that
cycle.  The serialized state includes the epoch log, so a pass that
judged after advancing (a log with later writes in it) fails too.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.api import PMAllocator
from repro.core.crash import crash_at_each, run_and_crash
from repro.core.models import MODEL_REGISTRY, resolve_model
from repro.crashtest.serialize import dumps_state
from repro.sim.config import MachineConfig
from repro.workloads import get_workload
from repro.workloads.base import run_workload

WORKLOADS = [
    "queue", "nstore", "echo", "heap", "ctree", "skiplist", "cceh",
    "fast_fair", "dash_eh", "p_clht", "xpub",
]


@pytest.mark.parametrize("model", sorted(MODEL_REGISTRY))
@settings(max_examples=6, deadline=None)
@given(
    workload=st.sampled_from(WORKLOADS),
    threads=st.sampled_from([1, 2, 4]),
    ops=st.integers(min_value=4, max_value=24),
    # crash cycles as per-mille of the drain horizon; above 1000 lands
    # past the drain, where the image is the final memory.
    permille=st.lists(
        st.integers(min_value=1, max_value=1300), min_size=1, max_size=8
    ),
    past_drain=st.integers(min_value=1, max_value=200),
)
def test_one_pass_matches_a_fresh_run_at_every_cycle(
    model, workload, threads, ops, permille, past_drain
):
    config = MachineConfig()
    run_config = resolve_model(model).run_config(seed=7)

    def programs():
        w = get_workload(workload, ops_per_thread=ops, seed=7)
        return w.programs(PMAllocator(), threads)

    drain = run_workload(
        get_workload(workload, ops_per_thread=ops, seed=7), config,
        run_config, num_threads=threads,
    ).result.drain_cycles
    cycles = sorted(
        [max(1, drain * p // 1000) for p in permille] + [drain + past_drain]
    )

    in_pass = crash_at_each(
        config, run_config, programs(), cycles,
        lambda state: dumps_state(state, {}),
    )
    fresh = [
        dumps_state(run_and_crash(config, run_config, programs(), c), {})
        for c in cycles
    ]
    assert in_pass == fresh


def test_cycles_must_ascend():
    config = MachineConfig()
    run_config = resolve_model("asap_rp").run_config(seed=7)
    programs = get_workload("queue", ops_per_thread=6).programs(
        PMAllocator(), config.num_cores
    )
    with pytest.raises(ValueError, match="precedes the current cycle"):
        crash_at_each(
            config, run_config, programs, [400, 200], lambda state: state
        )
