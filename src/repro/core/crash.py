"""Crash injection and post-crash memory reconstruction.

Section V-E: on a power failure, the memory controllers drain their WPQs,
write the undo-record values on top (unwinding speculative updates), and
discard delay records.  The surviving image therefore follows from the
ADR domain alone -- each controller's newest durable write per line and
its live undo records -- or, under eADR, from the newest write per line
of the epoch log.  :func:`crash_image` computes it; :func:`crash_machine`
applies it to a machine stopped at an arbitrary cycle, and the checker in
:mod:`repro.verify.consistency` validates the result against the run's
epoch log.

:func:`record_run` simulates a cell once to completion and journals, with
its cycle, every change a crash image reads;
:meth:`CrashRecording.crash_at_each` replays that journal to the image at
any cycle, which is how crash campaigns and litmus cells crash a cell at
many points with one simulation.  :func:`run_and_crash` stays a real run
stopped at its cycle: it is the oracle the replay is tested against.

This is the reproduction's machine-checked version of the paper's
Theorem 2 ("when the system recovers from a crash, memory is in a
consistent state"): instead of a paper proof, the property tests crash
every model at randomized instants and assert the invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Tuple, TypeVar

from repro.sim.config import HardwareModel, MachineConfig, RunConfig
from repro.core.api import Program
from repro.core.epoch import EpochLog
from repro.core.machine import Machine

T = TypeVar("T")


@dataclass
class CrashState:
    """What survived the crash."""

    #: cycle at which power was lost.
    crash_cycle: int
    #: line -> surviving write id (0 / absent = pristine).
    media: Dict[int, int]
    log: EpochLog
    run_config: RunConfig

    def surviving_value(self, line: int) -> int:
        return self.media.get(line, 0)

    def surviving_payload(self, line: int, default: object = None) -> object:
        """Logical payload of the write that survived on ``line``."""
        write_id = self.surviving_value(line)
        if write_id == 0:
            return default
        return self.log.payloads.get(write_id, default)


def crash_image(
    hardware: HardwareModel,
    log: EpochLog,
    controllers: Iterable[Tuple[Mapping[int, int], Iterable[Tuple[int, int]]]],
) -> Dict[int, int]:
    """The media after the power-fail sequence.

    ``controllers`` holds, per memory controller, its ``adr_value``
    (line -> newest write id the WPQ accepted) and its undo records
    (line, safe value).  Each controller drains its ADR domain and writes
    its undo values on top; delay records are discarded.  eADR flushes
    the whole cache hierarchy instead: every write that ever executed is
    durable.
    """
    if hardware is HardwareModel.EADR:
        return log.newest_write_per_line()
    media: Dict[int, int] = {}
    for adr_value, undo in controllers:
        media.update(adr_value)
        media.update(undo)
    return media


def crash_machine(machine: Machine) -> CrashState:
    """Apply the power-fail sequence to a stopped machine."""
    controllers = [
        (
            mc.adr_value,
            mc.recovery_table.undo_records()
            if mc.recovery_table is not None else (),
        )
        for mc in machine.mcs
    ]
    return CrashState(
        crash_cycle=machine.engine.now,
        media=crash_image(
            machine.run_config.hardware, machine.log, controllers
        ),
        log=machine.log,
        run_config=machine.run_config,
    )


@dataclass(frozen=True)
class ReferenceRun:
    """Horizon and commit boundaries of one full run."""

    #: cycle at which the machine fully drained (enumeration horizon).
    drain_cycles: int
    runtime_cycles: int
    #: epoch-commit cycles, ascending, deduplicated.
    commit_cycles: tuple


#: one journal entry: ``(cycle, kind, *args)`` (see :func:`record_run`).
JournalEntry = Tuple[object, ...]


@dataclass(frozen=True)
class CrashRecording:
    """One full run of a cell and the journal its crash images replay."""

    run_config: RunConfig
    num_mcs: int
    reference: ReferenceRun
    #: crash-visible changes in the order they happened.
    journal: List[JournalEntry]

    def crash_at_each(
        self, cycles: Iterable[int], judge: Callable[[CrashState], T]
    ) -> List[T]:
        """Lose power at each of ``cycles`` (ascending from 0); judge each.

        One pass over the journal applies every change of cycle <= c to
        a fresh epoch log and to per-controller ADR and undo maps, so the
        state handed to ``judge`` at ``c`` is the one a run stopped at
        ``c`` would leave.  Later cycles extend the same log: ``judge``
        must be done with the state when it returns, and its return
        value is what the list keeps.
        """
        log = EpochLog()
        adr: List[Dict[int, int]] = [{} for _ in range(self.num_mcs)]
        undo: List[Dict[int, int]] = [{} for _ in range(self.num_mcs)]
        journal = self.journal
        position = 0
        previous = 0
        verdicts: List[T] = []
        for cycle in cycles:
            if cycle < previous:
                raise ValueError(
                    f"crash cycle {cycle} precedes cycle {previous}"
                )
            previous = cycle
            while position < len(journal) and journal[position][0] <= cycle:
                entry = journal[position]
                position += 1
                kind = entry[1]
                if kind == "write":
                    log.record_write(*entry[2:])
                elif kind == "adr":
                    adr[entry[2]][entry[3]] = entry[4]
                elif kind == "undo":
                    if entry[4] is None:
                        del undo[entry[2]][entry[3]]
                    else:
                        undo[entry[2]][entry[3]] = entry[4]
                elif kind == "dep":
                    log.record_dep(entry[2], entry[3])
                elif kind == "strand":
                    log.record_strand_start(entry[2], entry[3])
                # "commit" entries only feed the reference's commit cycles
            media = crash_image(
                self.run_config.hardware, log,
                [(adr[mc], undo[mc].items()) for mc in range(self.num_mcs)],
            )
            verdicts.append(judge(CrashState(
                crash_cycle=cycle, media=media, log=log,
                run_config=self.run_config,
            )))
        return verdicts


def record_run(
    config: MachineConfig,
    run_config: RunConfig,
    programs: Iterable[Program],
) -> CrashRecording:
    """Run ``programs`` to completion once and journal every change a
    crash image reads.

    The machine's components append ``(cycle, kind, *args)`` entries:

    - ``"write"``, ``"dep"``, ``"strand"``: the machine's
      :class:`~repro.core.epoch.EpochLog` ``record_write``,
      ``record_dep`` and ``record_strand_start`` calls, with their
      arguments;
    - ``"adr", mc, line, write_id``: a write entered controller ``mc``'s
      WPQ, so it is durable;
    - ``"undo", mc, line, safe_value``: an undo record was created or
      took a new safe value, or was deleted (``safe_value`` None);
    - ``"commit"``: an epoch table committed an epoch.
    """
    journal: List[JournalEntry] = []
    result = Machine(config, run_config, journal=journal).run(programs)
    commits = {entry[0] for entry in journal if entry[1] == "commit"}
    return CrashRecording(
        run_config=run_config,
        num_mcs=config.num_mcs,
        reference=ReferenceRun(
            drain_cycles=result.drain_cycles,
            runtime_cycles=result.runtime_cycles,
            commit_cycles=tuple(sorted(commits)),
        ),
        journal=journal,
    )


def run_and_crash(
    config: MachineConfig,
    run_config: RunConfig,
    programs: Iterable[Program],
    crash_cycle: int,
) -> CrashState:
    """Build a machine, run it, and lose power at ``crash_cycle``.

    If the workload finishes (and the system drains) before the crash
    cycle, the returned state is simply the final memory image.
    """
    machine = Machine(config, run_config)
    machine.run_until(programs, crash_cycle)
    return crash_machine(machine)


__all__ = [
    "CrashRecording",
    "CrashState",
    "ReferenceRun",
    "crash_image",
    "crash_machine",
    "record_run",
    "run_and_crash",
]
