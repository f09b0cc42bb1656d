"""High-level checkpoint API: create, inspect, resume.

A checkpoint's ``meta`` records everything needed to rebuild the cell --
workload name, ops per thread, thread count, seed, model name -- so
resuming only needs the checkpoint document.  Programs are *regenerated*
from the workload registry and fast-forwarded by each core's executed-op
count, which replays generator-internal state (including the workload's
PRNG) exactly; the machine state itself comes from the snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.core.api import PMAllocator, Program
from repro.core.machine import Machine, RunResult
from repro.core.models import ModelSpec, resolve_model
from repro.exp.spec import digest
from repro.sim.config import MachineConfig, RunConfig
from repro.workloads.registry import get_workload


@dataclass(frozen=True)
class CheckpointCell:
    """One checkpointable simulation cell: everything but the barrier."""

    workload: str
    model: str
    ops_per_thread: Optional[int] = None
    num_threads: Optional[int] = None
    seed: int = 7

    def spec(self) -> ModelSpec:
        return resolve_model(self.model)

    def machine_config(self) -> MachineConfig:
        return MachineConfig()

    def run_config(self) -> RunConfig:
        return self.spec().run_config(seed=self.seed)

    def programs(self) -> List[Program]:
        workload = get_workload(
            self.workload, ops_per_thread=self.ops_per_thread, seed=self.seed
        )
        threads = self.num_threads or self.machine_config().num_cores
        return workload.programs(PMAllocator(), threads)

    def build_machine(self, sinks: Optional[Iterable[object]] = None) -> Machine:
        return Machine(
            self.machine_config(), run_config=self.run_config(), sinks=sinks
        )

    def meta(self, barrier_cycle: int) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "model": self.model,
            "ops_per_thread": self.ops_per_thread,
            "num_threads": self.num_threads,
            "seed": self.seed,
            "barrier_cycle": barrier_cycle,
        }

    @classmethod
    def from_meta(cls, meta: Dict[str, Any]) -> "CheckpointCell":
        ops = meta.get("ops_per_thread")
        threads = meta.get("num_threads")
        return cls(
            workload=str(meta["workload"]),
            model=str(meta["model"]),
            ops_per_thread=int(ops) if ops is not None else None,
            num_threads=int(threads) if threads is not None else None,
            seed=int(meta.get("seed", 7)),
        )


def create_checkpoint(
    cell: CheckpointCell,
    barrier_cycle: int,
    sinks: Optional[Iterable[object]] = None,
) -> Optional[Tuple[Dict[str, Any], Dict[str, Any], Machine]]:
    """Run ``cell`` to a quiescent barrier at ``barrier_cycle``.

    Returns ``(meta, state, machine)`` -- the live machine is handed back
    so callers can also continue it in-process (the equivalence tests
    compare exactly that against a resumed copy).  Returns None when the
    run finished before the barrier (nothing left to checkpoint)."""
    machine = cell.build_machine(sinks=sinks)
    if not machine.run_to_barrier(cell.programs(), barrier_cycle):
        return None
    return cell.meta(barrier_cycle), machine.snapshot(), machine


def resume_machine(
    meta: Dict[str, Any],
    state: Dict[str, Any],
    sinks: Optional[Iterable[object]] = None,
) -> Machine:
    """Rebuild a machine from a parsed checkpoint document."""
    cell = CheckpointCell.from_meta(meta)
    return Machine.resume(
        cell.machine_config(),
        cell.run_config(),
        cell.programs(),
        state,
        sinks=sinks,
    )


def run_fingerprint(machine: Machine, result: RunResult) -> str:
    """Digest of everything a finished run observably produced.

    Two runs with equal fingerprints executed the same events, produced
    the same statistics, the same NVM contents, and the same epoch log --
    the equivalence the checkpoint tests assert byte-for-byte."""
    from repro.crashtest.serialize import log_to_dict

    doc = {
        "events_executed": machine.engine.events_executed,
        "now": machine.engine.now,
        "stats": machine.stats.as_dict(),
        "media": [
            sorted(mc.nvm.media.items()) for mc in machine.mcs
        ],
        "log": log_to_dict(machine.log),
        "per_core_runtime": list(result.per_core_runtime),
        "runtime_cycles": result.runtime_cycles,
        "ops_executed": result.ops_executed,
    }
    return digest(doc)


def describe_checkpoint(
    meta: Dict[str, Any], state: Dict[str, Any]
) -> Dict[str, Any]:
    """Human-oriented summary for ``repro ckpt --inspect``."""
    engine = state.get("engine", {})
    cores = state.get("cores", [])
    return {
        "workload": meta.get("workload"),
        "model": meta.get("model"),
        "seed": meta.get("seed"),
        "barrier_cycle": meta.get("barrier_cycle"),
        "quiesced_at": engine.get("now"),
        "events_executed": engine.get("events_executed"),
        "cores": [
            {
                "index": c.get("index"),
                "ops_executed": c.get("ops_executed"),
                "finished": c.get("finished"),
                "parked": c.get("parked"),
            }
            for c in cores
        ],
        "locks_held": sum(
            1 for entry in state.get("locks", []) if entry[1] is not None
        ),
    }


__all__ = [
    "CheckpointCell",
    "create_checkpoint",
    "describe_checkpoint",
    "resume_machine",
    "run_fingerprint",
]
