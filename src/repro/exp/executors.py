"""Pluggable execution backends for experiment plans.

An executor maps a pure function over a list of items and returns the
results *in input order*.  Implementations:

- :class:`SerialExecutor` -- runs in-process, one item at a time.  Zero
  overhead; the default, and the reference semantics.
- :class:`ParallelExecutor` -- fans items out over a
  ``concurrent.futures.ProcessPoolExecutor`` with ``jobs`` workers.
  Simulation cells are CPU-bound pure Python, so processes (not threads)
  are the only way to use more than one core.
- :class:`repro.fabric.executor.FabricExecutor` -- the fault-tolerant
  distributed fabric; same :class:`Executor` protocol, survives worker
  death (where :class:`ParallelExecutor` raises
  :class:`WorkerDiedError`).

Because every cell is deterministic given its :class:`~repro.exp.spec.
RunSpec`, the executors are interchangeable: same plan, same results,
different wall-clock (see ``tests/exp/test_determinism.py``).
"""

from __future__ import annotations

import concurrent.futures
import os
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Protocol, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


class Executor(Protocol):
    """What plan/campaign/litmus drivers require of an execution backend."""

    jobs: int

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Apply ``fn`` to every item; results in input order."""
        ...


class WorkerDiedError(RuntimeError):
    """A pool worker died (SIGKILL, OOM) before returning its results.

    The process-pool backend cannot tell which items finished, so the
    whole ``map`` is lost.  Re-run, or use the fabric executor
    (``--fabric``), which retries the affected cells automatically.
    """


class SerialExecutor:
    """Run every item in the calling process, in order."""

    jobs = 1

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        return [fn(item) for item in items]

    def __repr__(self) -> str:
        return "SerialExecutor()"


class ParallelExecutor:
    """Fan items out across ``jobs`` worker processes.

    ``fn`` and every item must be picklable (RunSpec and WorkloadResult
    are, by design).  Results come back in input order regardless of
    completion order, so parallel runs are drop-in replacements for
    serial ones.
    """

    def __init__(self, jobs: Optional[int] = None) -> None:
        self.jobs = jobs or os.cpu_count() or 1
        if self.jobs < 1:
            raise ValueError(f"need at least one worker, got {jobs}")

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        items = list(items)
        if not items:
            return []
        # A pool wider than the work list just burns fork latency.
        workers = min(self.jobs, len(items))
        if workers == 1:
            return [fn(item) for item in items]
        # Chunk to amortize per-task IPC, but keep at least ~4 chunks per
        # worker in flight so uneven cell runtimes still balance.
        chunksize = max(1, len(items) // (workers * 4))
        with concurrent.futures.ProcessPoolExecutor(workers) as pool:
            try:
                return list(pool.map(fn, items, chunksize=chunksize))
            except BrokenProcessPool as exc:
                raise WorkerDiedError(
                    f"a worker process died while mapping {len(items)} "
                    f"items over {workers} workers; partial results were "
                    f"discarded (use the fabric executor for automatic "
                    f"retry)"
                ) from exc

    def __repr__(self) -> str:
        return f"ParallelExecutor(jobs={self.jobs})"


def make_executor(jobs: Optional[int] = None) -> Executor:
    """The one place a job count becomes an executor (the drivers take
    the executor itself):

    ``None``/``0``/``1`` -> serial; ``N > 1`` -> N worker processes.
    """
    if jobs is None or jobs in (0, 1):
        return SerialExecutor()
    return ParallelExecutor(jobs)


__all__ = [
    "Executor",
    "ParallelExecutor",
    "SerialExecutor",
    "WorkerDiedError",
    "make_executor",
]
