"""Drive a litmus run: axiomatic sets, operational cells, the diff.

For each selected test the runner computes the axiomatic allowed-set
once, then runs one :class:`~repro.litmus.spec.LitmusSpec` per
registered RP model through :func:`~repro.exp.spec.run_specs` (an
optional :class:`~repro.exp.cache.ResultCache` for content-addressed
reuse, and the executor the caller chose: serial by default, a process
pool or the fabric), and classifies the per-cell state diff into a
:class:`~repro.litmus.report.LitmusReport`.

EP-persistency designs are deliberately out of scope: under epoch
persistency the machine inserts *more* ordering (every conflict is a
dependence), so the RP axioms still upper-bound them, but the
too-strong slack would swamp the report.  The gate models are exactly
:data:`repro.core.models.RP_MODELS`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.axiom.allowed import allowed_states
from repro.axiom.program import LitmusTest, format_state
from repro.core.models import RP_MODELS, ModelSpec
from repro.exp.cache import ResultCache
from repro.exp.executors import Executor, SerialExecutor
from repro.exp.spec import run_specs
from repro.litmus.report import CellDiff, LitmusReport
from repro.litmus.spec import LitmusSpec
from repro.sim.config import MachineConfig


@dataclass
class LitmusRunOptions:
    """Knobs of one litmus run (defaults are the CI full-run shape)."""

    models: List[ModelSpec] = field(default_factory=lambda: list(RP_MODELS))
    points: int = 24
    seed: int = 7
    machine: MachineConfig = field(default_factory=MachineConfig)
    cache: Optional[ResultCache] = None
    #: maps the cells: serial by default, a process pool, or a
    #: :class:`repro.fabric.FabricExecutor` for the fault-tolerant fabric.
    executor: Executor = field(default_factory=SerialExecutor)


def run_litmus(
    tests: List[LitmusTest],
    options: Optional[LitmusRunOptions] = None,
) -> LitmusReport:
    """Cross-validate ``tests`` under every model in ``options.models``.

    Raises ``ValueError`` before any work if two tests share a name
    (cells are matched to their allowed sets by test name) or if
    ``options.points`` is below 1.
    """
    counts = Counter(test.name for test in tests)
    duplicates = sorted(name for name, count in counts.items() if count > 1)
    if duplicates:
        raise ValueError(f"duplicate litmus test names: {duplicates}")
    options = options or LitmusRunOptions()
    if options.points < 1:
        raise ValueError(
            f"a litmus run needs at least 1 point per cell, "
            f"got {options.points}"
        )

    allowed: Dict[str, List[str]] = {}
    executions: Dict[str, int] = {}
    truncated: List[str] = []
    for test in tests:
        aset = allowed_states(test)
        allowed[test.name] = aset.formatted()
        executions[test.name] = aset.executions
        if aset.truncated:
            truncated.append(test.name)

    specs = [
        LitmusSpec(
            test,
            model,
            machine=options.machine,
            points=options.points,
            seed=options.seed,
        )
        for test in tests
        for model in options.models
    ]

    results, _ = run_specs(specs, options.executor, options.cache)

    cells: List[CellDiff] = []
    for result in results:
        allowed_set = set(allowed[result.test])
        observed_set = set(result.states)
        cells.append(
            CellDiff(
                test=result.test,
                family=result.family,
                model=result.model,
                observed=tuple(sorted(observed_set)),
                forbidden=tuple(sorted(observed_set - allowed_set)),
                unobserved=tuple(sorted(allowed_set - observed_set)),
                first_cycle=dict(result.first_cycle),
            )
        )
    return LitmusReport(
        points=options.points,
        seed=options.seed,
        models=[model.name for model in options.models],
        allowed=allowed,
        executions=executions,
        truncated=truncated,
        cells=cells,
    )


__all__ = ["LitmusRunOptions", "run_litmus", "format_state"]
