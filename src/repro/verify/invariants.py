"""Online invariant monitoring for running machines.

The crash-consistency checker validates end states; this module validates
*intermediate* states: structural invariants that every hardware
component must maintain at every instant.  Attach a monitor to a machine
and it re-checks the invariants on a fixed cadence (plus once at the
end); any violation raises with a precise description.

Checked invariants:

- persist buffers never exceed capacity, never hold more in-flight
  flushes than their limit, and their entries' sequence numbers are
  strictly increasing (FIFO identity);
- epoch tables: the committed prefix is dense below ``committed_upto``;
  a *safe* epoch's predecessor has committed; no entry has negative
  outstanding-write counts; the current epoch exists;
- recovery tables never exceed capacity, and no record belongs to an
  epoch its owner's epoch table has already committed (commit messages
  must have cleaned them first);
- WPQs never exceed capacity.
"""

from __future__ import annotations

from repro.core.machine import Machine


class InvariantViolation(AssertionError):
    """A structural invariant failed during simulation."""


class InvariantMonitor:
    """Periodically validates a machine's component invariants."""

    def __init__(self, machine: Machine, period_cycles: int = 500) -> None:
        self.machine = machine
        self.period = period_cycles
        self.checks_run = 0
        self._armed = False

    def arm(self) -> None:
        """Start periodic checking (call before ``machine.run``)."""
        if self._armed:
            return
        self._armed = True
        self.machine.engine.schedule(self.period, self._tick)

    def _tick(self) -> None:
        self.check()
        if self.machine.engine.pending() > 0:
            self.machine.engine.schedule(self.period, self._tick)

    # ------------------------------------------------------------------

    def check(self) -> None:
        """Validate every invariant right now."""
        self.checks_run += 1
        for index, path in enumerate(self.machine.paths):
            if path.has_persist_buffer:
                self._check_pb(index, path.pb)
            if hasattr(path, "et"):
                self._check_et(index, path.et)
        for mc in self.machine.mcs:
            self._check_mc(mc)

    def _fail(self, message: str) -> None:
        raise InvariantViolation(
            f"@cycle {self.machine.engine.now}: {message}"
        )

    def _check_pb(self, core: int, pb) -> None:
        if len(pb.entries) > pb.capacity:
            self._fail(f"PB[{core}] over capacity: {len(pb.entries)}")
        seqs = [entry.seq for entry in pb.entries]
        if seqs != sorted(seqs):
            self._fail(f"PB[{core}] lost FIFO order: {seqs}")
        inflight = sum(
            1 for e in pb.entries if e.state.name == "INFLIGHT"
        )
        if inflight > pb.inflight_max:
            self._fail(f"PB[{core}] too many in flight: {inflight}")

    def _check_et(self, core: int, et) -> None:
        if et.current_ts not in et.entries:
            self._fail(f"ET[{core}] current epoch {et.current_ts} missing")
        for ts, entry in et.entries.items():
            if entry.unacked < 0:
                self._fail(f"ET[{core}] epoch {ts} negative unacked")
            if entry.committed:
                self._fail(f"ET[{core}] committed epoch {ts} not retired")
            if entry.prev is not None and entry.prev >= ts:
                self._fail(f"ET[{core}] epoch {ts} precedes its predecessor")
        for ts in et._committed_sparse:
            if ts <= et.committed_upto:
                self._fail(f"ET[{core}] sparse commit {ts} below the prefix")
            if ts in et.entries:
                self._fail(f"ET[{core}] committed epoch {ts} still live")

    def _check_mc(self, mc) -> None:
        if len(mc.wpq) > mc.wpq.capacity:
            self._fail(f"MC[{mc.index}] WPQ over capacity")
        rt = mc.recovery_table
        if rt is not None:
            if len(rt) > rt.capacity:
                self._fail(f"MC[{mc.index}] RT over capacity: {len(rt)}")
            self._check_rt_vs_ets(mc, rt)

    def _check_rt_vs_ets(self, mc, rt) -> None:
        """No RT record may belong to an epoch its ET has retired.

        The epoch table finalizes a commit only after the controller
        ACKed the commit message, and the controller deletes the epoch's
        records before ACKing -- so a retired epoch with surviving records
        means the protocol leaked recovery state."""
        for record in list(rt._undo.values()) + list(rt._delay):
            path = self.machine.paths[record.core]
            if not hasattr(path, "et"):
                continue
            if path.et.is_committed(record.epoch_ts):
                self._fail(
                    f"MC[{mc.index}] RT holds a record of committed epoch "
                    f"({record.core}, {record.epoch_ts}) on line "
                    f"{record.line:#x}"
                )


def validate_run(machine: Machine, programs, period_cycles: int = 300):
    """Run ``programs`` on ``machine`` with invariants checked throughout.

    Returns the run result; raises :class:`InvariantViolation` on any
    breach (including one final check after the drain).
    """
    monitor = InvariantMonitor(machine, period_cycles)
    monitor.arm()
    result = machine.run(programs)
    monitor.check()
    return result


__all__ = ["InvariantMonitor", "InvariantViolation", "validate_run"]
