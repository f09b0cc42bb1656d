"""The crash-sweep campaign engine.

One **campaign** = (workloads x models) cells; one **cell** = a
deterministic set of crash points (see :mod:`repro.crashtest.points`).
A cell is simulated once: :func:`repro.core.crash.crash_at_each` runs
its machine through the crash cycles in ascending order and, at each,
adjudicates the crash image against:

- the generic Theorem-2 checker
  (:func:`repro.verify.consistency.check_consistency`), and
- the workload's semantic ``recovery_oracle()``
  (:meth:`repro.workloads.base.Workload.recovery_oracle`).

Cells fan out and cache exactly like experiment cells: a
:class:`CrashCellSpec` is a :class:`~repro.exp.spec.RunSpec` plus a
crash-point budget, run through :func:`~repro.exp.spec.run_specs`, and
its result is the cell's reference run plus one small picklable
:class:`CrashPointResult` per point.  On a violation the campaign
minimizes the failure (:mod:`repro.crashtest.minimize`) and serializes
a replayable :class:`~repro.core.crash.CrashState`.

Reports are **canonical**: same spec + same seed = byte-identical
``to_dict()`` JSON, whether results came fresh, from the cache, or from
a different worker count.  Nothing wall-clock-dependent is recorded.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.core.api import PMAllocator, Program
from repro.core.crash import CrashState, crash_at_each, run_and_crash
from repro.core.models import RP_MODELS, ModelSpec
from repro.exp.cache import ResultCache
from repro.exp.executors import Executor, SerialExecutor
from repro.exp.spec import RunSpec, jsonable, run_specs
from repro.sim.config import MachineConfig
from repro.verify.consistency import check_consistency
from repro.workloads.base import Workload
from repro.workloads.registry import get_workload
from repro.crashtest.minimize import minimize_failure
from repro.crashtest.points import (
    ReferenceRun,
    enumerate_crash_points,
    trace_reference,
)
from repro.crashtest.serialize import save_state

#: participates in every CrashCellSpec key and in the seed of every
#: cell's crash-point enumeration; bump when adjudication or crash
#: semantics change in a way that invalidates cached verdicts.
CRASHTEST_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# adjudication
# ---------------------------------------------------------------------------

def adjudicate(state: CrashState, workload: Workload) -> Tuple[List[str], List[str]]:
    """(generic violations, oracle violations) for one crash image."""
    report = check_consistency(state.log, state.media)
    generic = [v.describe() for v in report.violations]
    generic += [
        f"unknown recovered value {value} on line {line:#x}"
        for line, value in report.unknown_values
    ]
    oracle = list(workload.recovery_oracle(state))
    return generic, oracle


# ---------------------------------------------------------------------------
# one crash cell
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrashCellSpec(RunSpec):
    """One (workload, model) crash cell: a :class:`RunSpec` plus how many
    crash points to enumerate for it."""

    points: int = 50

    def __init__(
        self,
        workload: str,
        model: Union[str, ModelSpec],
        points: int,
        machine: Optional[MachineConfig] = None,
        ops_per_thread: Optional[int] = None,
        num_threads: Optional[int] = None,
        seed: int = 7,
    ) -> None:
        super().__init__(
            workload, model, machine=machine, ops_per_thread=ops_per_thread,
            num_threads=num_threads, seed=seed,
        )
        object.__setattr__(self, "points", int(points))

    def programs(self) -> List[Program]:
        threads = self.num_threads or self.machine.num_cores
        return self.build_workload().programs(PMAllocator(), threads)

    def simulate(self, crash_cycle: int) -> CrashState:
        """Fresh run of this cell, crashed at ``crash_cycle`` (what
        minimization bisects)."""
        return run_and_crash(
            self.machine, self.run_config(), self.programs(), crash_cycle
        )

    def crash_cycles(self, reference: ReferenceRun) -> List[int]:
        """The cell's crash points.  Their seed is this identity, which
        predates cell specs: keep it as it is, or every cycle moves."""
        identity = {
            "schema": CRASHTEST_SCHEMA_VERSION,
            "workload": self.workload,
            "hardware": self.model.hardware.value,
            "persistency": self.model.persistency.value,
            "machine": jsonable(self.machine),
            "ops_per_thread": self.ops_per_thread,
            "num_threads": self.num_threads,
            "seed": self.seed,
            "points": self.points,
        }
        return enumerate_crash_points(reference, self.points, identity)

    # -- identity -----------------------------------------------------------

    def describe(self) -> dict:
        return {
            **super().describe(),
            "schema": CRASHTEST_SCHEMA_VERSION,
            "kind": "crashtest-cell",
            "points": self.points,
        }

    def label(self) -> str:
        return (
            f"crash:{self.workload}/{self.model.name}"
            f"@p{self.points}/seed{self.seed}"
        )

    # -- execution ----------------------------------------------------------

    def execute(self) -> Tuple[ReferenceRun, List[CrashPointResult]]:
        """Trace the reference run, enumerate the crash points, then crash
        one simulation at each in cycle order and adjudicate it there."""
        reference = trace_reference(
            self.machine, self.run_config(), self.programs()
        )
        oracle = self.build_workload()

        def judge(state: CrashState) -> CrashPointResult:
            generic, violations = adjudicate(state, oracle)
            return CrashPointResult(
                crash_cycle=state.crash_cycle,
                generic_violations=tuple(generic),
                oracle_violations=tuple(violations),
                surviving_lines=len(state.media),
                writes_logged=len(state.log.writes),
            )

        results = crash_at_each(
            self.machine, self.run_config(), self.programs(),
            self.crash_cycles(reference), judge,
        )
        return reference, results


@dataclass(frozen=True)
class CrashPointResult:
    """Small, picklable, cacheable verdict for one crash point."""

    crash_cycle: int
    generic_violations: Tuple[str, ...]
    oracle_violations: Tuple[str, ...]
    surviving_lines: int
    writes_logged: int

    @property
    def ok(self) -> bool:
        return not self.generic_violations and not self.oracle_violations

    def to_dict(self) -> dict:
        return {
            "crash_cycle": self.crash_cycle,
            "ok": self.ok,
            "generic_violations": list(self.generic_violations),
            "oracle_violations": list(self.oracle_violations),
            "surviving_lines": self.surviving_lines,
            "writes_logged": self.writes_logged,
        }


# ---------------------------------------------------------------------------
# campaign reports
# ---------------------------------------------------------------------------

@dataclass
class CellReport:
    """All crash points of one (workload, model) cell."""

    workload: str
    model: str
    reference: ReferenceRun
    results: List[CrashPointResult]
    #: set when the cell violated and minimization ran.
    failure: Optional[dict] = None

    @property
    def failures(self) -> List[CrashPointResult]:
        return [r for r in self.results if not r.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "model": self.model,
            "drain_cycles": self.reference.drain_cycles,
            "runtime_cycles": self.reference.runtime_cycles,
            "commit_boundaries": len(self.reference.commit_cycles),
            "points": [r.to_dict() for r in self.results],
            "violations": sum(
                len(r.generic_violations) + len(r.oracle_violations)
                for r in self.results
            ),
            "failure": self.failure,
        }


@dataclass
class CampaignReport:
    """The campaign verdict: every cell, canonical and replayable."""

    cells: List[CellReport]
    points_requested: int
    seed: int
    #: cache bookkeeping, counted in cells -- excluded from to_dict() so
    #: reports stay byte-identical whether results were fresh or cached.
    cache_hits: int = 0
    cache_misses: int = 0
    saved_failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    @property
    def total_points(self) -> int:
        return sum(len(cell.results) for cell in self.cells)

    @property
    def total_failing_points(self) -> int:
        return sum(len(cell.failures) for cell in self.cells)

    def to_dict(self) -> dict:
        return {
            "schema": CRASHTEST_SCHEMA_VERSION,
            "kind": "crashtest-campaign",
            "points_requested": self.points_requested,
            "seed": self.seed,
            "ok": self.ok,
            "total_points": self.total_points,
            "total_failing_points": self.total_failing_points,
            "cells": [cell.to_dict() for cell in self.cells],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1) + "\n"

    def summary(self) -> str:
        lines = []
        for cell in self.cells:
            status = "ok" if cell.ok else f"{len(cell.failures)} FAILING"
            lines.append(
                f"{cell.workload:>12s} {cell.model:>12s}  "
                f"{len(cell.results):3d} points  {status}"
            )
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(
            f"{verdict}: {self.total_points} crash points, "
            f"{self.total_failing_points} failing"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------

def run_campaign(
    workloads: Sequence[str],
    models: Optional[Sequence[Union[str, ModelSpec]]] = None,
    machine: Optional[MachineConfig] = None,
    points: int = 50,
    seed: int = 7,
    ops_per_thread: Optional[int] = None,
    num_threads: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    save_dir: Optional[str] = None,
    minimize: bool = True,
    executor: Executor = SerialExecutor(),
) -> CampaignReport:
    """Sweep every (workload, model) cell and adjudicate every point.

    Cells are run through :func:`~repro.exp.spec.run_specs`: ``cache``
    hits are served first and only the misses are mapped through
    ``executor`` (a process pool, or a :class:`repro.fabric.
    FabricExecutor` for the fault-tolerant fabric; the report bytes are
    the same).  ``save_dir`` is where minimized failing states are
    serialized.
    """
    if points < 1:
        raise ValueError(
            f"a crash campaign needs at least 1 point per cell, got {points}"
        )
    machine = machine or MachineConfig()
    specs = [
        CrashCellSpec(
            name, model, points, machine=machine,
            ops_per_thread=ops_per_thread, num_threads=num_threads,
            seed=seed,
        )
        for name in workloads
        for model in (models or RP_MODELS)
    ]
    outcomes, hits = run_specs(specs, executor, cache)

    report = CampaignReport(
        cells=[],
        points_requested=points,
        seed=seed,
        cache_hits=hits,
        cache_misses=len(specs) - hits,
    )
    for spec, (reference, results) in zip(specs, outcomes):
        cell = CellReport(
            workload=spec.workload,
            model=spec.model.name,
            reference=reference,
            results=results,
        )
        if not cell.ok and minimize:
            cell.failure = _minimize_cell(spec, cell.results, save_dir, report)
        report.cells.append(cell)
    return report


def _minimize_cell(
    spec: CrashCellSpec,
    cell_results: List[CrashPointResult],
    save_dir: Optional[str],
    report: CampaignReport,
) -> dict:
    """Minimize the cell's first failing point; serialize for replay."""
    failing_index = next(
        i for i, r in enumerate(cell_results) if not r.ok
    )
    workload = spec.build_workload()

    def judge(state: CrashState) -> List[str]:
        generic, oracle = adjudicate(state, workload)
        return generic + oracle

    passing_cycle = 0
    for i in range(failing_index - 1, -1, -1):
        if cell_results[i].ok:
            passing_cycle = cell_results[i].crash_cycle
            break
    minimized = minimize_failure(
        spec.simulate, judge, cell_results[failing_index].crash_cycle,
        passing_cycle,
    )
    failure = {
        "crash_cycle": minimized.state.crash_cycle,
        "original_cycle": minimized.original_cycle,
        "media_lines": len(minimized.state.media),
        "original_media_lines": minimized.original_media_lines,
        "violations": list(minimized.violations),
        "replay_file": None,
    }
    if save_dir:
        os.makedirs(save_dir, exist_ok=True)
        filename = f"crash-{spec.workload}-{spec.model.name}.json"
        path = os.path.join(save_dir, filename)
        save_state(path, minimized.state, {
            "spec": spec.describe(),
            "violations": list(minimized.violations),
            "original_cycle": minimized.original_cycle,
            "original_media_lines": minimized.original_media_lines,
        })
        failure["replay_file"] = filename
        report.saved_failures.append(path)
    return failure


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def replay_failure(path: str) -> dict:
    """Re-adjudicate a serialized failing state without re-simulating."""
    from repro.crashtest.serialize import load_state

    state, meta = load_state(path)
    spec_doc = meta.get("spec", {})
    name = spec_doc.get("workload")
    workload = get_workload(
        name,
        ops_per_thread=spec_doc.get("ops_per_thread"),
        seed=spec_doc.get("seed", 7),
    )
    generic, oracle = adjudicate(state, workload)
    return {
        "file": path,
        "workload": name,
        "crash_cycle": state.crash_cycle,
        "media_lines": len(state.media),
        "generic_violations": generic,
        "oracle_violations": oracle,
        "recorded_violations": meta.get("violations", []),
        "reproduced": bool(generic or oracle),
    }


__all__ = [
    "CRASHTEST_SCHEMA_VERSION",
    "CampaignReport",
    "CellReport",
    "CrashCellSpec",
    "CrashPointResult",
    "adjudicate",
    "replay_failure",
    "run_campaign",
]
