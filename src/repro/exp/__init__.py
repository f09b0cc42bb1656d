"""`repro.exp` -- the experiment-execution subsystem.

Everything that runs a *grid* of simulations (the CLI's ``compare``,
every figure benchmark, ``scripts/reproduce_results.py``) goes through
this package:

- :class:`Spec` / :func:`run_specs` (:mod:`repro.exp.spec`) -- the one
  spec path: every cached or fanned-out unit of work is a ``Spec``
  keyed by :func:`digest` of its ``describe()``, and ``run_specs``
  serves cache hits and maps only the misses through an executor.
- :class:`RunSpec` (:mod:`repro.exp.spec`) -- one fully-specified cell:
  workload, model, machine, knobs, seed.
- :class:`ExperimentPlan` / :func:`run_plan` (:mod:`repro.exp.plan`) --
  expand a grid into cells and run them through ``run_specs``.
- :class:`SerialExecutor` / :class:`ParallelExecutor`
  (:mod:`repro.exp.executors`) -- in-process or ``--jobs N`` process
  fan-out (``make_executor(jobs)``); identical results either way.  The
  caller builds the executor and the cache once and passes both down.
- :class:`ResultCache` (:mod:`repro.exp.cache`) -- content-addressed
  on-disk store; re-running a suite skips already-computed cells.
- :func:`run_grid` -- the one-call driver returning a
  :class:`SweepResult` with the figures' normalization helpers.
"""

from repro.exp.cache import ResultCache
from repro.exp.executors import (
    Executor,
    ParallelExecutor,
    SerialExecutor,
    WorkerDiedError,
    make_executor,
)
from repro.exp.plan import (
    ExperimentPlan,
    PlanResult,
    SweepResult,
    run_grid,
    run_plan,
)
from repro.exp.spec import RunSpec, Spec, digest, execute_spec, run_specs

__all__ = [
    "Executor",
    "ExperimentPlan",
    "ParallelExecutor",
    "PlanResult",
    "ResultCache",
    "RunSpec",
    "SerialExecutor",
    "Spec",
    "SweepResult",
    "WorkerDiedError",
    "digest",
    "execute_spec",
    "make_executor",
    "run_grid",
    "run_plan",
    "run_specs",
]
