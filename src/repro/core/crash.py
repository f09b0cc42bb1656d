"""Crash injection and post-crash memory reconstruction.

Section V-E: on a power failure, the memory controllers drain their WPQs,
write the undo-record values on top (unwinding speculative updates), and
discard delay records.  :func:`crash_machine` models exactly that sequence
against a machine stopped at an arbitrary cycle and returns the surviving
memory image, which the checker in :mod:`repro.verify.consistency`
validates against the run's epoch log.  :func:`crash_at_each` takes
that image at many cycles of one run, which is how crash campaigns and
litmus cells crash a cell with one simulation.

This is the reproduction's machine-checked version of the paper's
Theorem 2 ("when the system recovers from a crash, memory is in a
consistent state"): instead of a paper proof, the property tests crash
every model at randomized instants and assert the invariant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, TypeVar

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


def crash_machine(machine: Machine) -> CrashState:
    """Apply the power-fail sequence to a stopped machine."""
    hardware = machine.run_config.hardware
    if hardware is HardwareModel.EADR:
        # eADR flushes the entire cache hierarchy: every write that ever
        # executed is durable.
        media = machine.log.newest_write_per_line()
    else:
        media = {}
        for mc in machine.mcs:
            media.update(mc.crash_drain())
    return CrashState(
        crash_cycle=machine.engine.now,
        media=media,
        log=machine.log,
        run_config=machine.run_config,
    )


def crash_at_each(
    config: MachineConfig,
    run_config: RunConfig,
    programs: Iterable[Program],
    cycles: Iterable[int],
    judge: Callable[[CrashState], T],
) -> List[T]:
    """Lose power at each of ``cycles`` (ascending) in one run; judge each.

    One machine runs the programs and stops at every crash cycle in
    turn.  Stopping the engine leaves its queue untouched and the power-
    fail sequence only reads state, so the image at each cycle is the one
    a fresh run crashed there would leave -- the whole cell costs one
    simulation instead of one per cycle.

    The :class:`CrashState` handed to ``judge`` shares the machine's live
    epoch log, which later cycles extend: ``judge`` must be done with the
    state when it returns, and its return value is what the list keeps.
    """
    machine = Machine(config, run_config)
    machine.start(programs)
    verdicts: List[T] = []
    for cycle in cycles:
        machine.continue_until(cycle)
        verdicts.append(judge(crash_machine(machine)))
    return verdicts


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
    (state,) = crash_at_each(
        config, run_config, programs, [crash_cycle], lambda state: state
    )
    return state


__all__ = ["CrashState", "crash_at_each", "crash_machine", "run_and_crash"]
