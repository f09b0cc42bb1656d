"""Experiment plans: build a grid of cells, execute, aggregate.

The lifecycle every driver (CLI ``compare``, the figure benchmarks,
``scripts/reproduce_results.py``) now shares:

1. :meth:`ExperimentPlan.grid` expands workloads x models (x seeds) into
   fully-specified :class:`~repro.exp.spec.RunSpec` cells.
2. :func:`run_plan` executes the cells through a pluggable executor
   (serial or process fan-out), consulting an optional
   :class:`~repro.exp.cache.ResultCache` first.  Cells are independent,
   so wall clock under ``jobs=N`` approaches the slowest cell, not the
   sum.
3. :class:`SweepResult` aggregates (workload, model) cells with the
   normalization helpers the figures are written against (speedups,
   geomeans, stat extraction).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Type, Union

from repro.core.models import ModelSpec, resolve_model
from repro.exp.cache import ResultCache
from repro.exp.executors import Executor, make_executor
from repro.exp.spec import RunSpec, run_specs
from repro.sim.config import MachineConfig
from repro.workloads.base import Workload, WorkloadResult

WorkloadRef = Union[str, Type[Workload]]
ModelRef = Union[str, ModelSpec]
CacheRef = Union[ResultCache, str, "os.PathLike[str]"]


@dataclass(frozen=True)
class ExperimentPlan:
    """An ordered list of fully-specified cells."""

    specs: Tuple[RunSpec, ...]

    def __init__(self, specs: Sequence[RunSpec]) -> None:
        object.__setattr__(self, "specs", tuple(specs))

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self) -> Iterator[RunSpec]:
        return iter(self.specs)

    @classmethod
    def grid(
        cls,
        workloads: Sequence[WorkloadRef],
        models: Sequence[ModelRef],
        machine: Optional[MachineConfig] = None,
        ops_per_thread: Optional[int] = None,
        num_threads: Optional[int] = None,
        seeds: Sequence[int] = (7,),
    ) -> "ExperimentPlan":
        """Expand workloads x models x seeds, workload-major (the order
        every figure presents its bars in)."""
        machine = machine or MachineConfig()
        specs = [
            RunSpec(
                workload,
                model,
                machine=machine,
                ops_per_thread=ops_per_thread,
                num_threads=num_threads,
                seed=seed,
            )
            for workload in workloads
            for model in models
            for seed in seeds
        ]
        return cls(specs)


@dataclass
class PlanResult:
    """Results of a plan run, in plan order, plus execution accounting."""

    plan: ExperimentPlan
    results: List[WorkloadResult]
    cache_hits: int = 0
    cache_misses: int = 0

    def __iter__(self) -> Iterator[Tuple[RunSpec, WorkloadResult]]:
        return iter(zip(self.plan.specs, self.results))

    def __len__(self) -> int:
        return len(self.results)


def run_plan(
    plan: ExperimentPlan,
    jobs: Optional[int] = None,
    cache: Optional[CacheRef] = None,
    executor: Optional[Executor] = None,
) -> PlanResult:
    """Execute every cell of ``plan``; return results in plan order.

    Cached cells are served without touching the executor; only misses
    are fanned out.  ``executor`` overrides ``jobs`` when given.
    """
    if cache is not None and not isinstance(cache, ResultCache):
        cache = ResultCache(cache)
    results, hits = run_specs(
        plan.specs, executor or make_executor(jobs), cache
    )
    return PlanResult(
        plan=plan,
        results=results,
        cache_hits=hits,
        cache_misses=len(plan) - hits,
    )


# ---------------------------------------------------------------------------
# grid aggregation (the figures' view of a plan)
# ---------------------------------------------------------------------------

@dataclass
class SweepResult:
    """Results of one workload x model sweep."""

    workloads: List[str]
    models: List[str]
    #: (workload, model) -> full run result.
    runs: Dict[Tuple[str, str], WorkloadResult] = field(default_factory=dict)

    def runtime(self, workload: str, model: str) -> int:
        return self.runs[(workload, model)].runtime_cycles

    def speedup(self, workload: str, model: str, over: str = "baseline") -> float:
        return self.runtime(workload, over) / self.runtime(workload, model)

    def speedups(self, model: str, over: str = "baseline") -> List[float]:
        return [self.speedup(w, model, over) for w in self.workloads]

    def geomean_speedup(self, model: str, over: str = "baseline") -> float:
        values = self.speedups(model, over)
        product = 1.0
        for value in values:
            product *= value
        return product ** (1.0 / len(values))

    def stat(self, workload: str, model: str, name: str) -> int:
        return self.runs[(workload, model)].stats.total(name)


def run_grid(
    workloads: Sequence[WorkloadRef],
    models: Sequence[ModelRef],
    machine: Optional[MachineConfig] = None,
    ops_per_thread: Optional[int] = None,
    num_threads: Optional[int] = None,
    seed: int = 7,
    jobs: Optional[int] = None,
    cache: Optional[CacheRef] = None,
    executor: Optional[Executor] = None,
) -> SweepResult:
    """Run every workload under every model; the standard figure driver.

    The returned :class:`SweepResult` keys runs by the *display* names
    of the workloads and models given, so callers that label designs
    ``hops``/``asap`` keep their labels while sharing cache entries with
    ``hops_rp``/``asap_rp`` runs.
    """
    plan = ExperimentPlan.grid(
        workloads,
        models,
        machine=machine,
        ops_per_thread=ops_per_thread,
        num_threads=num_threads,
        seeds=(seed,),
    )
    outcome = run_plan(plan, jobs=jobs, cache=cache, executor=executor)
    model_specs = [resolve_model(m) for m in models]
    result = SweepResult(
        workloads=[
            w if isinstance(w, str) else w.name for w in workloads
        ],
        models=[m.name for m in model_specs],
    )
    for spec, run in outcome:
        result.runs[(spec.workload, spec.model.name)] = run
    return result


__all__ = [
    "ExperimentPlan",
    "PlanResult",
    "SweepResult",
    "run_grid",
    "run_plan",
]
