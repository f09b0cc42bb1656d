"""Model-based testing of the epoch table with hypothesis state machines.

Drives random sequences of the epoch table's operations (enqueue writes,
open epochs, strand breaks, ACKs, dependence set/resolve) against a
simple reference model and asserts the lifecycle invariants after every
step:

- commits within a strand happen in order;
- an epoch is never committed while it has outstanding writes or an
  unresolved dependence;
- ``committed_upto`` is a dense prefix and never regresses;
- retired epochs never reappear.
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.core.epoch_table import EpochTable
from repro.sim.engine import Engine
from repro.sim.stats import StatsRegistry


class EpochTableMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.engine = Engine()
        self.et = EpochTable(
            self.engine, capacity=8, stats=StatsRegistry(), scope="t", core=0
        )
        #: reference model: ts -> outstanding write count for live epochs
        self.outstanding = {1: 0}
        self.deps_unresolved = set()
        self.committed = set()
        self.last_committed_upto = 0
        self.dep_source_ts = 0

    # ------------------------------------------------------------------

    @rule()
    def enqueue_write(self):
        ts = self.et.current_ts
        self.et.on_enqueue(ts)
        self.outstanding[ts] = self.outstanding.get(ts, 0) + 1

    @rule(strand=st.booleans())
    def open_epoch(self, strand):
        old = self.et.current_ts
        new = self.et.open_epoch(strand_break=strand)
        assert new == old + 1
        self.outstanding.setdefault(new, 0)
        self._sync_commits()

    @rule(data=st.data())
    def ack_write(self, data):
        pending = [
            ts for ts, count in self.outstanding.items()
            if count > 0 and ts not in self.committed
        ]
        if not pending:
            return
        ts = data.draw(st.sampled_from(pending))
        self.et.on_write_acked(ts)
        self.outstanding[ts] -= 1
        self._sync_commits()

    @precondition(lambda self: self.et.current_ts not in self.deps_unresolved
                  and self.et.entries[self.et.current_ts].dep is None)
    @rule()
    def set_dep(self):
        ts = self.et.current_ts
        self.dep_source_ts += 1
        self.et.set_dep(ts, (1, self.dep_source_ts))
        self.deps_unresolved.add(ts)

    @rule(data=st.data())
    def resolve_dep(self, data):
        if not self.deps_unresolved:
            return
        ts = data.draw(st.sampled_from(sorted(self.deps_unresolved)))
        self.et.resolve_dep(ts)
        self.deps_unresolved.discard(ts)
        self._sync_commits()

    def _sync_commits(self):
        self.engine.run()
        for ts in list(self.outstanding):
            if self.et.is_committed(ts) and ts not in self.committed:
                # a commit is only legal once the epoch closed, drained
                # its writes, and resolved its dependence
                assert self.outstanding[ts] == 0, ts
                assert ts not in self.deps_unresolved, ts
                assert ts != self.et.current_ts
                self.committed.add(ts)

    # ------------------------------------------------------------------

    @invariant()
    def committed_prefix_is_dense_and_monotone(self):
        if not hasattr(self, "et"):
            return
        assert self.et.committed_upto >= self.last_committed_upto
        self.last_committed_upto = self.et.committed_upto
        for ts in range(1, self.et.committed_upto + 1):
            assert ts not in self.et.entries

    @invariant()
    def current_epoch_always_live(self):
        if not hasattr(self, "et"):
            return
        assert self.et.current_ts in self.et.entries

    @invariant()
    def retired_epochs_stay_retired(self):
        if not hasattr(self, "et"):
            return
        for ts in self.committed:
            assert self.et.is_committed(ts)
            assert ts not in self.et.entries

    @invariant()
    def no_entry_negative(self):
        if not hasattr(self, "et"):
            return
        for entry in self.et.entries.values():
            assert entry.unacked >= 0


EpochTableModelTest = EpochTableMachine.TestCase
EpochTableModelTest.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
