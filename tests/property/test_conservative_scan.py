"""The conservative flush policy's strand skip selects what a full scan
selects.

``make_conservative_policy`` stops asking about a strand once one of its
epochs is unsafe and resumes at the next strand's first epoch.  That is
sound because a strand is a contiguous run of timestamps that commits in
order: an epoch after an unsafe one in the same strand has an
uncommitted predecessor.  The property drives a real epoch table through
random strand layouts, dependencies, write ACKs and dependency
resolutions, and compares the policy with the full scan over persist
buffer entries in epoch order with random in-flight states.
"""

from hypothesis import given, settings, strategies as st

from repro.core.epoch_table import EpochTable
from repro.core.persist_buffer import (
    PBEntry,
    PBEntryState,
    PersistBuffer,
    make_conservative_policy,
)
from repro.sim.engine import Engine
from repro.sim.stats import StatsRegistry


def _full_scan(table, pb):
    """The policy's specification: the oldest waiting entry whose epoch
    is safe."""
    for entry in pb.entries:
        if entry.state is not PBEntryState.INFLIGHT and table.is_safe(
            entry.epoch_ts
        ):
            return entry
    return None


@st.composite
def tables(draw):
    """An epoch table after random strand breaks, dependencies, ACKs and
    dependency resolutions; every epoch holds one write."""
    engine = Engine()
    table = EpochTable(engine, 64, StatsRegistry(), "core0", 0)
    table.on_enqueue(table.current_ts)
    for strand_break in draw(st.lists(st.booleans(), max_size=14)):
        table.open_epoch(strand_break=strand_break)
        table.on_enqueue(table.current_ts)
    epochs = range(1, table.current_ts + 1)
    deps = draw(st.sets(st.sampled_from(epochs)))
    for ts in sorted(deps):
        table.set_dep(ts, (1, ts))
    actions = [("ack", ts) for ts in epochs] + [
        ("resolve", ts) for ts in sorted(deps)
    ]
    order = draw(st.permutations(actions))
    for kind, ts in order[: draw(st.integers(0, len(order)))]:
        if kind == "ack":
            table.on_write_acked(ts)
        else:
            table.resolve_dep(ts)
    return table


@given(tables(), st.data())
@settings(max_examples=300)
def test_strand_skip_selects_what_the_full_scan_selects(table, data):
    epochs = st.integers(1, table.current_ts)
    stamps = sorted(data.draw(st.lists(epochs, max_size=12)))
    pb = PersistBuffer(Engine(), 64, 1, StatsRegistry(), "core0", 0)
    for seq, ts in enumerate(stamps):
        state = data.draw(st.sampled_from(list(PBEntryState)))
        pb.entries.append(PBEntry(seq, seq * 64, seq + 1, ts, state))
    assert make_conservative_policy(table)(pb) is _full_scan(table, pb)
